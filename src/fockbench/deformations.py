"""Deformation families L = (L_n): construction and validation.

A deformation family is a level-indexed family of PSD matrices L_n on the
tensor powers of C^d with L_0 = [1], defining the semiinner product
(x, y) = <x, L y> level-wise.  The family is admissible when additionally
H (x) ker L_n is contained in ker L_{n+1}; then L_{n+1} factors as
K_{n+1} (id (x) L_n).  A family is held in one form: its dense matrices
L_n, or its quotient maps Lambda_n with L_n = Lambda_n* Lambda_n
(``DeformationFamily.from_factors``), which stores no L_n.  Either form
gives each level's thin spectrum, the eigenvalues it does not leave out (the
others are exactly 0) and their eigenvectors, through the one cached
``spectrum``.  A dense level that commutes with the gauge torus, which its
Hermitian part certifies by an exact 0.0 in every entry between two
occupation types (``tensor_core.occupation_types``), is decomposed sector by
sector, and its spectrum records the sector of each eigenvector
(``sectors``).  A family is real (float64) unless some level or factor
given to it is complex (``_linalg.dtype_of``), and its spectrum has its
dtype: every named constructor here builds a real family.  ``validate``
owns the one numerical rule for the kernel condition, read from that
spectrum without a kernel basis, and ``interacting.build`` applies it
through it.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .tensor_core import (
    TruncatedFockSpace,
    flat_index,
    inversions,
    kron_id,
    occupation_types,
    position_map,
    words,
)

__all__ = [
    "DeformationFamily",
    "ValidationReport",
    "identity_family",
    "q_fock",
    "q_fock_recursive",
    "discrete_monotone",
    "validate",
]

NAIVE_PERMUTATION_CAP = 8
EPS_PSD = 1e-10  # relative slack under which a negative eigenvalue still counts as PSD
# cap on 16 bytes per entry of the d**N x d**N top level a named constructor
# forms: the real level and its cached eigenvectors, 8 bytes each
DENSE_LEVEL_BYTES = 2**31


class DeformationFamily:
    """PSD matrices (L_n) for n = 0..N with L_0 = [1], held in one of two forms.

    A family made from its matrices keeps read-only copies of them, so the
    per-level spectrum it caches cannot go stale.  ``dtype`` is float unless
    some level (or factor) given is complex; then every level is held
    complex.  A family made by
    ``from_factors`` keeps only its quotient maps Lambda_n (r_n x d**n) as
    ``factors`` and reads each level's spectrum from a thin SVD of Lambda_n;
    ``factors`` is None otherwise.  ``level(n)`` and ``L`` return the dense
    matrices of either form, formed on each call for a factored family: no
    library path reads them there.
    """

    def __init__(self, space: TruncatedFockSpace, L):
        if len(L) != space.N + 1:
            raise ValueError("need one matrix per level 0..N")
        dtype = _linalg.dtype_of(*L)
        mats = []
        for n, M in enumerate(L):
            M = np.array(M, dtype=dtype)
            want = (space.dim(n), space.dim(n))
            if M.shape != want:
                raise ValueError(f"level {n} matrix has shape {M.shape}, want {want}")
            M.setflags(write=False)
            mats.append(M)
        if not np.array_equal(mats[0], np.ones((1, 1))):
            raise ValueError("L_0 must be [[1]] exactly")
        self.space, self.dtype = space, dtype
        self._dense, self.factors, self._spectra = tuple(mats), None, {}

    @classmethod
    def from_factors(cls, space: TruncatedFockSpace, factors) -> DeformationFamily:
        """The family of the quotient maps Lambda_n, factors[n] of shape r_n x d**n.

        L_n is the Hermitian part of Lambda_n* Lambda_n, so the factors and L
        cannot disagree; Lambda_0 must be [[1]] exactly.  The factors are
        kept as read-only copies, and no L_n is stored.
        """
        if len(factors) != space.N + 1:
            raise ValueError("need one factor per level 0..N")
        dtype = _linalg.dtype_of(*factors)
        mats = []
        for n, F in enumerate(factors):
            F = np.array(F, dtype=dtype)
            if F.ndim != 2 or F.shape[1] != space.dim(n):
                raise ValueError(f"level {n} factor has shape {F.shape}, want (r_{n}, {space.dim(n)})")
            F.setflags(write=False)
            mats.append(F)
        if not np.array_equal(mats[0], np.ones((1, 1))):
            raise ValueError("level 0 factor must be [[1]] exactly")
        family = object.__new__(cls)
        family.space, family.dtype = space, dtype
        family._dense, family.factors, family._spectra = None, tuple(mats), {}
        return family

    def level(self, n: int) -> np.ndarray:
        if self.factors is None:
            return self._dense[n]
        F = self.factors[n]
        return _hermitian_part(F.conj().T @ F)

    @property
    def L(self) -> tuple:
        """All levels L_n; formed on each access for a factored family."""
        return tuple(self.level(n) for n in self.space.levels())

    def spectrum(self, n: int) -> tuple:
        """Eigenvalues w (ascending) and orthonormal eigenvectors V of the
        Hermitian part of L_n, with len(w) == V.shape[1].

        The d**n - len(w) eigenvalues left out are exactly 0.  Computed once
        on first use and cached: validation, the quotient construction and
        ``interacting.verify_space`` all read this one decomposition.  For a family with factors it is a thin SVD of
        Lambda_n (O(d**n r_n**2)), which leaves out the kernel it does not
        span.  A dense level leaves nothing out.  When every entry of its
        Hermitian part between two occupation types is exactly 0.0, the
        level commutes with the d number operators, and it is one ``eigh``
        per type sector, sectors of equal size in one batched call; ties in
        w are then ordered by each column's leading word index.  Otherwise,
        and on a level of one type, it is one ``eigh`` of the level.
        """
        if n not in self._spectra:
            sectors = None
            if self.factors is not None:
                w, V = _factor_spectrum(self.factors[n])
            else:
                H = _hermitian_part(self._dense[n])
                types = occupation_types(n, self.space.d)
                certified = not np.any(H, where=types[:, None] != types[None, :])
                if certified and types.max() > 0:
                    w, V, sectors = _sector_spectrum(H, types)
                else:  # one sector, or none certified
                    w, V = np.linalg.eigh(H)
                    sectors = np.zeros(len(w), dtype=types.dtype) if certified else None
                if sectors is not None:
                    sectors.setflags(write=False)
            w.setflags(write=False)
            V.setflags(write=False)
            self._spectra[n] = (w, V, sectors)
        return self._spectra[n][:2]

    def sectors(self, n: int):
        """The occupation type of each eigenvector of ``spectrum(n)``, or None
        where level n has no certified sectors (a factored family, or a
        dense level with an entry between two types)."""
        self.spectrum(n)
        return self._spectra[n][2]

    def kept(self, n: int, rank_tol: float = _linalg.RANK_TOL) -> tuple:
        """The kept eigenvalues mu_n (w > rank_tol * max w) and their
        eigenvectors xi_n: a suffix of ``spectrum(n)``, xi_n a read-only view."""
        w, V = self.spectrum(n)
        start = len(w) - int(np.count_nonzero(_linalg.kept_mask(w, rank_tol)))
        return w[start:], V[:, start:]


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    return (M + M.conj().T) / 2.0


def _sector_spectrum(H: np.ndarray, types: np.ndarray) -> tuple:
    """Ascending eigenvalues, orthonormal eigenvectors and the sector of each
    eigenvector of an H with no entry between two types: one batched
    ``eigh`` per sector size, scattered into one d**n x d**n V in place.
    Ties in w go by each column's leading (first nonzero) word index."""
    dim = len(types)
    parts = []
    for idx, _ in _linalg.label_blocks(types, types):  # the words of each sector, ascending
        wb, Vb = np.linalg.eigh(H[idx[:, :, None], idx[:, None, :]])
        lead = idx[np.arange(len(idx))[:, None], (Vb != 0).argmax(axis=1)]
        parts.append((idx, wb, Vb, lead, types[idx]))
    w, lead, sectors = (np.concatenate([p[k].ravel() for p in parts]) for k in (1, 3, 4))
    by_value = np.lexsort((lead, w))
    column = np.empty(dim, dtype=np.intp)
    column[by_value] = np.arange(dim)
    V = np.zeros((dim, dim), dtype=H.dtype)
    start = 0
    for idx, _, Vb, _, _ in parts:
        cols = column[start : start + idx.size].reshape(idx.shape)
        V[idx[:, :, None], cols[:, None, :]] = Vb
        start += idx.size
    return w[by_value], V, sectors[by_value]


def _factor_spectrum(F: np.ndarray) -> tuple:
    """Ascending eigenvalues and orthonormal eigenvectors of F* F on the
    row space of F, from a thin SVD of F."""
    if F.shape[0] == 0:
        return np.zeros(0), np.zeros((F.shape[1], 0), dtype=F.dtype)
    _, s, Vh = np.linalg.svd(F, full_matrices=False)
    return s[::-1] ** 2, Vh[::-1].conj().T


def _check_dense(space: TruncatedFockSpace) -> None:
    """Refuse, before anything is allocated, a dense family whose top level
    and its cached eigenvectors (8 bytes per entry each, real) would take
    more than DENSE_LEVEL_BYTES; a factored family has no such cap."""
    size = 16 * space.d ** (2 * space.N)
    if size > DENSE_LEVEL_BYTES:
        raise ValueError(
            f"the dense top level of a d={space.d}, N={space.N} family and its eigenvectors would take "
            f"{size} bytes, above the cap of {DENSE_LEVEL_BYTES}"
        )


def identity_family(space: TruncatedFockSpace) -> DeformationFamily:
    """The undeformed (full Fock) family L_n = id."""
    _check_dense(space)
    return DeformationFamily(space, tuple(np.eye(space.dim(n)) for n in space.levels()))


# ------------------------------------------------------------------ q-Fock


def _check_q(q: float) -> float:
    q = float(q)
    if not -1 <= q <= 1:  # refuses nan too
        raise ValueError(f"deformation parameter must lie in [-1, 1], got {q}")
    return q


def q_fock(space: TruncatedFockSpace, q: float) -> DeformationFamily:
    """q-deformed family L_n = sum over permutations of q**inversions.

    Naive full-group enumeration (the oracle path); capped at level 8
    because of the factorial cost.  q = 0 gives the identity family, and at
    q = +/-1 the matrices L_n / n! are the symmetrizer / antisymmetrizer
    projections.
    """
    q = _check_q(q)
    _check_dense(space)
    if space.N > NAIVE_PERMUTATION_CAP:
        raise ValueError(
            f"naive permutation enumeration capped at level {NAIVE_PERMUTATION_CAP}; "
            "use q_fock_recursive"
        )
    d = space.d
    mats = [np.ones((1, 1))]
    for n in range(1, space.N + 1):
        table, cols = words(n, d), np.arange(space.dim(n))
        L = np.zeros((len(cols), len(cols)))
        for sigma in itertools.permutations(range(n)):
            L[flat_index(table[:, position_map(sigma)], d), cols] += q ** inversions(sigma)
        mats.append(L)
    return DeformationFamily(space, tuple(mats))


def q_fock_recursive(space: TruncatedFockSpace, q: float) -> DeformationFamily:
    """q-deformed family via the cyclic-insertion recursion (no factorial blowup).

    L_{n+1} = (id (x) L_n) T_{n+1} with T_{n+1} = sum_k q**k C_k, where C_k is
    the cyclic permutation exchanging the new factor with the one in slot k+1
    (equivalently: the transpose of inserting the leading factor into slot
    k+1): C_k sends the word w to the word that moves w's letter k to the
    front.  Agrees with the naive enumeration wherever both run.
    """
    q = _check_q(q)
    _check_dense(space)
    d = space.d
    mats = [np.ones((1, 1))]
    for n in range(space.N):
        table, cols = words(n + 1, d), np.arange(space.dim(n + 1))
        T = np.zeros((len(cols), len(cols)))
        for k in range(n + 1):
            front = [k] + list(range(k)) + list(range(k + 1, n + 1))
            T[flat_index(table[:, front], d), cols] += q**k
        mats.append(kron_id(mats[n], T, d, op_first=True))
    return DeformationFamily(space, tuple(mats))


# ----------------------------------------------------------- monotone grid


def discrete_monotone(space: TruncatedFockSpace) -> DeformationFamily:
    """Diagonal 0/1 family keeping only strictly decreasing multi-indices.

    The discrete stand-in for the monotone weight: a level-n basis tensor
    survives exactly when its tuple decreases strictly left to right, so
    rank L_n = binomial(d, n) and L_n = 0 once n > d.
    """
    _check_dense(space)
    mats = [np.ones((1, 1))]
    for n in range(1, space.N + 1):
        decreasing = np.all(np.diff(words(n, space.d), axis=1) < 0, axis=1)
        mats.append(np.diag(decreasing.astype(float)))
    return DeformationFamily(space, tuple(mats))


# ---------------------------------------------------------------- validate


@dataclass
class ValidationReport:
    """Per-level PSD evidence and kernel-condition residuals for a family."""

    min_eigs: list = field(default_factory=list)
    max_eigs: list = field(default_factory=list)
    kernel_dims: list = field(default_factory=list)
    kernel_violations: list = field(default_factory=list)
    psd_ok: bool = True
    kernel_ok: bool = True

    @property
    def ok(self) -> bool:
        return self.psd_ok and self.kernel_ok

    def to_dict(self) -> dict:
        return {
            "min_eigs": [float(x) for x in self.min_eigs],
            "max_eigs": [float(x) for x in self.max_eigs],
            "kernel_dims": [int(x) for x in self.kernel_dims],
            "kernel_violations": [float(x) for x in self.kernel_violations],
            "psd_ok": bool(self.psd_ok),
            "kernel_ok": bool(self.kernel_ok),
            "ok": bool(self.ok),
        }


def validate(
    family: DeformationFamily,
    rank_tol: float = _linalg.RANK_TOL,
    kernel_tol: float = 1e-8,
) -> ValidationReport:
    """Check Hermitian/PSD per level and the kernel condition between levels.

    A dense L is given from outside, so its mild asymmetry (below 1e-8
    relative) is accepted with a warning and a larger one is rejected;
    factors are Hermitian by construction.  Everything else is read from the
    family's cached spectrum, that of the Hermitian part, where the
    eigenvalues left out are exactly 0.  Per level the eigenvalues w >
    rank_tol * max w are kept (a suffix, w ascends), the quotient map is
    Lambda_n = diag(sqrt(mu_n)) xi_n* on the kept ones, and all others are
    kernel, so a negative eigenvalue within EPS_PSD is kernel.  Since the
    kernel projection is 1 - xi_n xi_n*, the kernel condition residual at
    transition n is max_i ||Lambda_{n+1}(e_i (x) .) - Lambda_{n+1}(e_i (x)
    xi_n) xi_n*|| / max(1, ||Lambda_{n+1}||) (Frobenius norms), with no
    kernel basis formed; it is 0.0 where level n has full rank or level n+1
    has rank 0, and fails above kernel_tol.  This is the one kernel rule:
    ``build`` calls this function with its residual_tol and keeps these
    residuals as its own.  A rank_tol outside (0, 1) is refused: from 1 up
    the cut drops every eigenvalue, the vacuum's too.
    """
    if not 0 < rank_tol < 1:
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol}")
    report = ValidationReport()
    d, dims = family.space.d, family.space.dims
    kept = []
    for n in family.space.levels():
        if family.factors is None:
            res = _linalg.herm_residual(family.level(n))
            if res > _linalg.HERM_HARD_TOL:
                raise ValueError(f"level {n} matrix is not Hermitian (residual {res:.3e})")
            if res > 1e-12:
                warnings.warn(f"symmetrizing level {n} (asymmetry {res:.3e})")
        w, _ = family.spectrum(n)
        lo = float(w[0]) if len(w) == dims[n] else 0.0
        hi = float(w[-1]) if len(w) else 0.0
        report.min_eigs.append(lo)
        report.max_eigs.append(hi)
        if lo < -EPS_PSD * max(hi, 1.0):
            report.psd_ok = False
        kept.append(family.kept(n, rank_tol))
        report.kernel_dims.append(dims[n] - len(kept[n][0]))
    for n in range(family.space.N):
        xi, (mu, xi_next) = kept[n][1], kept[n + 1]
        viol = 0.0
        if xi.shape[1] < dims[n] and len(mu):
            Lambda = np.sqrt(mu)[:, None] * xi_next.conj().T
            on_kept = kron_id(xi, Lambda, d)  # Lambda_{n+1}(id (x) xi_n)
            off = Lambda - kron_id(xi.conj().T, on_kept, d)  # block i: Lambda_{n+1}(e_i (x) (1 - xi_n xi_n*))
            blocks = np.linalg.norm(off.reshape(len(mu), d, dims[n]), axis=(0, 2))
            viol = float(blocks.max()) / max(1.0, _linalg.fro_norm(Lambda))
        report.kernel_violations.append(viol)
        if viol > kernel_tol:
            report.kernel_ok = False
    return report
