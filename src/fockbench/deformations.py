"""Deformation families L = (L_n): construction, validation, K-factorization.

A deformation family is a level-indexed family of PSD matrices L_n on the
tensor powers of C^d with L_0 = [1], defining the semiinner product
(x, y) = <x, L y> level-wise.  The family is admissible when additionally
H (x) ker L_n is contained in ker L_{n+1}; then L_{n+1} factors as
K_{n+1} (id (x) L_n).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .tensor_core import TruncatedFockSpace, inversions, kron_id, position_map

__all__ = [
    "DeformationFamily",
    "ValidationReport",
    "KernelFactorization",
    "identity_family",
    "q_fock",
    "q_fock_recursive",
    "discrete_monotone",
    "validate",
    "factor_K",
]

NAIVE_PERMUTATION_CAP = 8


@dataclass(frozen=True)
class DeformationFamily:
    """PSD matrices (L_n) for n = 0..N with L_0 = [1].

    The family keeps read-only copies of the matrices it is given, so the
    per-level spectrum it caches cannot go stale.
    """

    space: TruncatedFockSpace
    L: tuple
    eps_psd: float = 1e-10

    def __post_init__(self):
        mats = []
        if len(self.L) != self.space.N + 1:
            raise ValueError("need one matrix per level 0..N")
        for n, M in enumerate(self.L):
            M = np.array(M, dtype=complex)
            want = (self.space.dim(n), self.space.dim(n))
            if M.shape != want:
                raise ValueError(f"level {n} matrix has shape {M.shape}, want {want}")
            M.setflags(write=False)
            mats.append(M)
        if not np.array_equal(mats[0], np.ones((1, 1))):
            raise ValueError("L_0 must be [[1]] exactly")
        object.__setattr__(self, "L", tuple(mats))
        object.__setattr__(self, "_spectra", {})

    def level(self, n: int) -> np.ndarray:
        return self.L[n]

    def spectrum(self, n: int) -> tuple:
        """Eigenvalues (ascending) and eigenvectors of the Hermitian part of L_n.

        Computed by one ``eigh`` on first use and cached: validation, the
        quotient construction, the K-factorization and the level constants
        all read this one decomposition.
        """
        if n not in self._spectra:
            L = self.L[n]
            w, U = np.linalg.eigh((L + L.conj().T) / 2.0)
            w.setflags(write=False)
            U.setflags(write=False)
            self._spectra[n] = (w, U)
        return self._spectra[n]


def identity_family(space: TruncatedFockSpace) -> DeformationFamily:
    """The undeformed (full Fock) family L_n = id."""
    return DeformationFamily(space, tuple(np.eye(space.dim(n), dtype=complex) for n in space.levels()))


# ------------------------------------------------------------------ q-Fock


def _check_q(q: float) -> float:
    q = float(q)
    if abs(q) > 1:
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
    if space.N > NAIVE_PERMUTATION_CAP:
        raise ValueError(
            f"naive permutation enumeration capped at level {NAIVE_PERMUTATION_CAP}; "
            "use q_fock_recursive"
        )
    d = space.d
    mats = [np.ones((1, 1), dtype=complex)]
    for n in range(1, space.N + 1):
        dim = space.dim(n)
        tuples = np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64)
        powers = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
        L = np.zeros((dim, dim), dtype=complex)
        cols = np.arange(dim)
        for sigma in itertools.permutations(range(n)):
            out = tuples[:, position_map(sigma)] @ powers
            L[out, cols] += q ** inversions(sigma)
        mats.append(L)
    return DeformationFamily(space, tuple(mats))


def _cycle_to_front_matrix(n1: int, k: int, d: int) -> np.ndarray:
    """Permutation matrix on d**n1 cycling the factor in slot k+1 to the front."""
    dim = d ** n1
    tuples = np.array(list(itertools.product(range(d), repeat=n1)), dtype=np.int64)
    pos = [k] + list(range(0, k)) + list(range(k + 1, n1))
    powers = d ** np.arange(n1 - 1, -1, -1, dtype=np.int64)
    out = tuples[:, pos] @ powers
    C = np.zeros((dim, dim), dtype=complex)
    C[out, np.arange(dim)] = 1.0
    return C


def q_fock_recursive(space: TruncatedFockSpace, q: float) -> DeformationFamily:
    """q-deformed family via the cyclic-insertion recursion (no factorial blowup).

    L_{n+1} = (id (x) L_n) T_{n+1} with T_{n+1} = sum_k q**k C_k, where C_k is
    the cyclic permutation exchanging the new factor with the one in slot k+1
    (equivalently: the transpose of inserting the leading factor into slot
    k+1).  Agrees with the naive enumeration wherever both run.
    """
    q = _check_q(q)
    d = space.d
    mats = [np.ones((1, 1), dtype=complex)]
    for n in range(space.N):
        T = sum(q ** k * _cycle_to_front_matrix(n + 1, k, d) for k in range(n + 1))
        mats.append(kron_id(mats[n], T, d, op_first=True))
    return DeformationFamily(space, tuple(mats))


# ----------------------------------------------------------- monotone grid


def discrete_monotone(space: TruncatedFockSpace) -> DeformationFamily:
    """Diagonal 0/1 family keeping only strictly decreasing multi-indices.

    The discrete stand-in for the monotone weight: a level-n basis tensor
    survives exactly when its tuple decreases strictly left to right, so
    rank L_n = binomial(d, n) and L_n = 0 once n > d.
    """
    d = space.d
    mats = [np.ones((1, 1), dtype=complex)]
    for n in range(1, space.N + 1):
        diag = np.array(
            [
                1.0 if all(t[i] > t[i + 1] for i in range(n - 1)) else 0.0
                for t in itertools.product(range(d), repeat=n)
            ],
            dtype=complex,
        )
        mats.append(np.diag(diag))
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

    Mild asymmetry (below 1e-8 relative) is symmetrized with a warning;
    beyond that the input is rejected.  Eigenvalues and kernel bases come from
    the family's cached spectrum.  The kernel keeps the eigenvectors with
    w <= rank_tol * max w, the rule ``build`` cuts ranks by, so a negative
    eigenvalue within eps_psd is kernel.  The kernel condition residual at
    level n is the largest norm of L_{n+1}(e_i (x) v) over kernel basis
    vectors v.
    """
    report = ValidationReport()
    d = family.space.d
    herm, kernels, scales = [], [], []
    for n, L in enumerate(family.L):
        res = _linalg.herm_residual(L)
        if res > _linalg.HERM_HARD_TOL:
            raise ValueError(f"level {n} matrix is not Hermitian (residual {res:.3e})")
        if res > 0:
            if res > 1e-12:
                warnings.warn(f"symmetrizing level {n} (asymmetry {res:.3e})")
            L = (L + L.conj().T) / 2.0
        herm.append(L)
        w, U = family.spectrum(n)
        report.min_eigs.append(float(w[0]))
        report.max_eigs.append(float(w[-1]))
        if w[0] < -family.eps_psd * max(float(w[-1]), 1.0):
            report.psd_ok = False
        kernels.append(U[:, ~_linalg.eigen_kept(w, rank_tol)])
        scales.append(float(np.abs(w).max()))
    for n in range(family.space.N):
        V = kernels[n]
        report.kernel_dims.append(V.shape[1])
        if V.shape[1] == 0:
            report.kernel_violations.append(0.0)
            continue
        image = kron_id(V, herm[n + 1], d)
        viol = float(np.max(np.linalg.norm(image, axis=0)))
        report.kernel_violations.append(viol)
        if viol > kernel_tol * max(1.0, scales[n + 1]):
            report.kernel_ok = False
    report.kernel_dims.append(kernels[-1].shape[1])
    return report


# ------------------------------------------------------------- factor by K


@dataclass(frozen=True)
class KernelFactorization:
    """Matrices K_n with L_n = K_n (id (x) L_{n-1}), minimal Frobenius norm."""

    family: DeformationFamily
    K: tuple  # K[i] is the level-(i+1) factor
    residuals: tuple

    def level(self, n: int) -> np.ndarray:
        if not 1 <= n <= len(self.K):
            raise ValueError(f"K defined for levels 1..{len(self.K)}")
        return self.K[n - 1]

    def reconstruct(self) -> list:
        """Iterate L_{n+1} = K_{n+1}(id (x) L_n) from L_0 = [1]."""
        d = self.family.space.d
        mats = [np.ones((1, 1), dtype=complex)]
        for Kn in self.K:
            mats.append(kron_id(mats[-1], Kn, d))
        return mats


def factor_K(
    family: DeformationFamily,
    rank_tol: float = _linalg.RANK_TOL,
    residual_tol: float = 1e-9,
) -> KernelFactorization:
    """Factor L_{n+1} = K_{n+1}(id (x) L_n) via the pseudoinverse.

    The minimal-Frobenius-norm solution K_{n+1} = L_{n+1} (id (x) pinv(L_n))
    reconstructs L_{n+1} exactly (up to residual_tol, relative) precisely
    when the kernel condition holds; a larger residual is reported as an
    error since it certifies kernel-condition failure.  pinv(L_n) comes from
    the cached spectrum, inverting the eigenvalues with
    w > rank_tol * max w, the ones ``build`` keeps.
    """
    d = family.space.d
    Ks, residuals = [], []
    for n in range(family.space.N):
        w, U = family.spectrum(n)
        kept = _linalg.eigen_kept(w, rank_tol)
        pinv_L = (U[:, kept] / w[kept]) @ U[:, kept].conj().T
        Kn = kron_id(pinv_L, family.level(n + 1), d)
        resid = _linalg.fro_norm(family.level(n + 1) - kron_id(family.level(n), Kn, d))
        scale = max(_linalg.fro_norm(family.level(n + 1)), 1e-300)
        rel = resid / scale if scale > 0 else 0.0
        if family.level(n + 1).any():
            residuals.append(rel)
        else:
            residuals.append(resid)
        if residuals[-1] > residual_tol:
            raise ValueError(
                f"factorization residual {residuals[-1]:.3e} at level {n + 1}: "
                "kernel condition fails"
            )
        Ks.append(Kn)
    return KernelFactorization(family, tuple(Ks), tuple(residuals))
