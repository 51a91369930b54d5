"""One-mode spaces: symmetric moment sequences, Jacobi parameters, orthogonal polynomials.

A one-mode (d = 1) deformation family is a scalar sequence L_n = [[ell_n]]
with ell_n = k_n * ... * k_1; the field a + a* on the resulting space has a
symmetric vacuum distribution whose monic orthogonal polynomials satisfy the
three-term recursion P_{n+1} = t P_n - k_n P_{n-1}.  ``jacobi_from_moments``
recovers the k_n from the moments by an LDL factorization of the Hankel
matrix (the pivots are exactly the squared norms ell_n), and
``vacuum_moments`` goes back via powers of the Jacobi matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deformations import EPS_PSD, DeformationFamily
from .tensor_core import TruncatedFockSpace

__all__ = [
    "MomentSequence",
    "jacobi_from_moments",
    "polynomials",
    "onemode_space",
    "jacobi_matrix",
    "vacuum_moments",
]

DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class MomentSequence:
    """Moments (m_0, m_1, ..., m_K) of a symmetric probability measure.

    Requires m_0 = 1, vanishing odd moments, and PSD Hankel matrices
    (m_{i+j})_{i,j} — the conditions for being a moment sequence at all.
    """

    moments: tuple

    def __post_init__(self):
        m = tuple(float(v) for v in self.moments)
        if not m:
            raise ValueError("need at least the zeroth moment")
        if abs(m[0] - 1.0) > 1e-14:
            raise ValueError(f"m_0 = {m[0]}, want 1 (probability measure)")
        for i in range(1, len(m), 2):
            if m[i] != 0.0:
                raise ValueError(f"odd moment m_{i} = {m[i]} nonzero; measure must be symmetric")
        object.__setattr__(self, "moments", m)
        H = self.hankel()
        w = np.linalg.eigvalsh(H)
        if w[0] < -EPS_PSD * max(w[-1], 1.0):  # the library's one PSD slack
            raise ValueError(f"Hankel matrix not PSD (min eigenvalue {w[0]:.3e}); not a moment sequence")

    @property
    def order(self) -> int:
        """Number of Jacobi parameters determined: k_1 .. k_order."""
        return (len(self.moments) - 1) // 2

    def hankel(self) -> np.ndarray:
        M = self.order
        m = self.moments
        return np.array([[m[i + j] for j in range(M + 1)] for i in range(M + 1)])


def jacobi_from_moments(moments):
    """Jacobi parameters (k_1, ..., k_M) from moments m_0 .. m_{2M} (or m_{2M+1}).

    LDL factorization of the Hankel matrix: the n-th pivot is
    ell_n = k_n * ... * k_1, so k_n is the pivot ratio.  A pivot at or below
    DEGENERACY_TOL (relative) marks a finitely supported measure: every later
    k is zero.
    """
    seq = moments if isinstance(moments, MomentSequence) else MomentSequence(tuple(moments))
    H = seq.hankel()
    M = seq.order
    ell = np.zeros(M + 1)
    P = np.eye(M + 1)
    alive = True
    for j in range(M + 1):
        piv = H[j, j] - sum(abs(P[j, t]) ** 2 * ell[t] for t in range(j))
        if not alive or piv <= DEGENERACY_TOL * max(1.0, ell[j - 1] if j else 1.0):
            ell[j] = 0.0
            alive = False
            continue
        ell[j] = piv
        for i in range(j + 1, M + 1):
            P[i, j] = (H[i, j] - sum(P[i, t] * P[j, t] * ell[t] for t in range(j))) / piv
    k = []
    for n in range(1, M + 1):
        k.append(ell[n] / ell[n - 1] if ell[n - 1] > 0.0 else 0.0)
    return tuple(k)


def polynomials(k, degree: int):
    """Monic orthogonal polynomials P_0 .. P_degree as coefficient arrays.

    P_0 = 1, P_1 = t, P_{n+1} = t P_n - k_n P_{n-1}.  Coefficient arrays are
    index-by-power (length degree+1).
    """
    if degree >= 2 and len(k) < degree - 1:
        raise ValueError(f"need at least {degree - 1} Jacobi parameters for degree {degree}")
    out = [np.zeros(degree + 1) for _ in range(degree + 1)]
    out[0][0] = 1.0
    if degree >= 1:
        out[1][1] = 1.0
    for n in range(1, degree):
        out[n + 1][1:] += out[n][:-1]  # multiply by t
        out[n + 1] -= k[n - 1] * out[n - 1]
    return out


def onemode_space(k, N: int | None = None) -> DeformationFamily:
    """The one-mode deformation family with L_n = [[k_n ... k_1]].

    N defaults to len(k); larger N is rejected since the missing weights are
    unknown.
    """
    k = tuple(float(v) for v in k)
    if any(v < 0 for v in k):
        raise ValueError("Jacobi parameters must be nonnegative")
    if N is None:
        N = len(k)
    if N > len(k):
        raise ValueError(f"truncation N = {N} needs {N} Jacobi parameters, got {len(k)}")
    ell = np.concatenate([[1.0], np.cumprod(k[:N])])
    return DeformationFamily(TruncatedFockSpace(d=1, N=N), tuple(np.array([[v]]) for v in ell))


def jacobi_matrix(k) -> np.ndarray:
    """Tridiagonal matrix of a + a* with off-diagonal entries sqrt(k_n)."""
    k = np.asarray(k, dtype=float)
    J = np.zeros((k.size + 1, k.size + 1))
    for n, v in enumerate(k):
        J[n, n + 1] = J[n + 1, n] = np.sqrt(v)
    return J


def vacuum_moments(k, M: int):
    """First M+1 vacuum moments of a + a* on the one-mode space with weights k.

    Computed as powers of the Jacobi matrix evaluated at the vacuum corner.
    The truncation to len(k)+1 levels is exact for moments up to order
    2*len(k)+1; higher orders are refused unless some weight vanishes (the
    measure is then finitely supported and the matrix is the whole story).
    """
    k = tuple(float(v) for v in k)
    if M > 2 * len(k) + 1 and all(v > 0 for v in k):
        raise ValueError(
            f"moment order {M} exceeds what {len(k)} Jacobi parameters determine (2*{len(k)}+1)"
        )
    J = jacobi_matrix(k)
    out = [1.0]
    vec = np.zeros(J.shape[0])
    vec[0] = 1.0
    for _ in range(M):
        vec = J @ vec
        out.append(float(vec[0]))
    return tuple(out)
