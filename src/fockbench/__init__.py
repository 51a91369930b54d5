"""fockbench: truncated interacting Fock spaces at desk scale.

Construction of interacting Fock spaces from deformation operators,
squeezings, moment sequences, or subproduct-system projections, plus
numerical verification of their structural identities, positivity and
kernel conditions, boundedness criteria, and operator-algebra spans.
"""

__version__ = "0.1.0"

from .tensor_core import TruncatedFockSpace, kron_id  # noqa: F401
