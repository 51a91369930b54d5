"""Reference implementations that only the tests call.

Each one is an independent second way to compute something the library
computes, or a dense stand-in for a demo the library evaluates in closed
form, so a test can compare the two.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from fockbench import _linalg
from fockbench.boundedness import level_constants
from fockbench.deformations import DeformationFamily
from fockbench.interacting import InteractingSpace
from fockbench.tensor_core import TruncatedFockSpace, flat_index, inversions, kron_id, position_map, words


def permutation_operator(sigma, space: TruncatedFockSpace):
    """Matrix of the factor substitution at level n = len(sigma), plus inv(sigma).

    Sends e_{i1} x ... x e_{in} (labels n..1 left to right) to the simple
    tensor whose label-j factor is the old label-sigma(j) factor.  Returns
    the d**n x d**n complex matrix and the inversion count of sigma.
    """
    positions = position_map(sigma)  # refuses a non-permutation
    n = len(positions)
    if n > space.N:
        raise ValueError(f"level {n} exceeds cutoff {space.N}")
    dim = space.dim(n)
    P = np.zeros((dim, dim), dtype=complex)
    P[flat_index(words(n, space.d)[:, positions], space.d), np.arange(dim)] = 1.0
    return P, inversions(sigma)


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
    w > rank_tol * max w, the ones ``build`` keeps.  This is a second kernel
    rule, independent of ``deformations.validate``.
    """
    d = family.space.d
    Ks, residuals = [], []
    L_prev = family.level(0)
    for n in range(family.space.N):
        mu, xi = family.kept(n, rank_tol)
        L_next = family.level(n + 1)
        Kn = kron_id((xi / mu) @ xi.conj().T, L_next, d)
        resid = _linalg.fro_norm(L_next - kron_id(L_prev, Kn, d))
        if L_next.any():
            resid /= _linalg.fro_norm(L_next)
        residuals.append(resid)
        if resid > residual_tol:
            raise ValueError(
                f"factorization residual {resid:.3e} at level {n + 1}: "
                "kernel condition fails"
            )
        Ks.append(Kn)
        L_prev = L_next
    return KernelFactorization(family, tuple(Ks), tuple(residuals))


def grid_family(m: int) -> DeformationFamily:
    """Dense realization of the grid demo (small m only): L_1 = diag(midpoints), L_2 = id."""
    mid = (np.arange(m) + 0.5) / m
    return DeformationFamily(
        TruncatedFockSpace(d=m, N=2),
        (np.eye(1, dtype=complex), np.diag(mid).astype(complex), np.eye(m * m, dtype=complex)),
    )


def block_compression(x, dims) -> np.ndarray:
    """(x (x) id)* L_2 (x (x) id) for the block demo, assembled blockwise."""
    parts = np.split(np.asarray(x, dtype=complex).reshape(-1), np.cumsum(list(dims))[:-1])
    return block_diag(*(np.outer(p.conj(), p) for p in parts))


def creator_vs_squeezing_gap(space: InteractingSpace, probes) -> float:
    """max over probes of (sup-level ||a*(x)|| - ||kappa|| ||x||), clipped at 0.

    Nonpositive up to numerical noise: the creator norm is dominated by the
    squeezing norm.
    """
    kappa_norm = max(space.kappa_norms)
    gap = 0.0
    for x in probes:
        x = np.asarray(x, dtype=complex).reshape(-1)
        rep = level_constants(space, x, with_creator_map=False)
        worst = max(rep.creator_norms) if rep.creator_norms else 0.0
        gap = max(gap, worst - kappa_norm * np.linalg.norm(x))
    return max(gap, 0.0)


def moment_pairing(p, q, moments) -> float:
    """<p, q> under the moment functional: sum_ij p_i q_j m_{i+j}."""
    return sum(float(a * b * moments[i + j]) for i, a in enumerate(p) for j, b in enumerate(q) if a and b)
