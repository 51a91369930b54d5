"""Interacting Fock spaces built from deformation families.

``build`` realizes the quotient of the truncated full Fock space by the
kernel of the semiinner product <., L .>: per level, the family's one cached
eigendecomposition L_n = U diag(w) U* yields, on the kept eigenvalues mu_n,
the quotient map Lambda_n = diag(sqrt(mu_n)) xi_n* onto orthonormal
coordinates of the level space, the embedding isometry xi_n (eigenvector
columns), and the embedded form lambda_n = xi_n Lambda_n = sqrt(L_n).
Creators act on quotient coordinates and are solved from a_n(i) Lambda_n =
Lambda_{n+1}(e_i (x) id) with pinv(Lambda_n) = xi_n diag(mu_n^-1/2); the
solution is well defined exactly when the family's kernel condition holds.

A built space needs no further decomposition: sqrt(mu_n) is the diagonal of
Lambda_n xi_n, so pinv(lambda_n) = xi_n diag(mu_n^-1/2) xi_n* and the
projection onto ker lambda_n is id - xi_n xi_n*.  ``squeezing_of`` computes
the squeezing kappa_{n+1} = lambda_{n+1}(id (x) pinv(lambda_n)) — the unique
vacuum-preserving map onto the embedded copy, vanishing on H (x) (embedded
copy)-perp, that intertwines the full-Fock creators with the quotient
creators.  ``lambda_from_squeezing`` iterates the
defining recursion lambda_{n+1} = kappa_{n+1}(id (x) lambda_n) back, and
``space_from_squeezing`` builds an interacting Fock space from any squeezing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .deformations import DeformationFamily, validate
from .tensor_core import TruncatedFockSpace, kron_id

__all__ = [
    "InteractingSpace",
    "Squeezing",
    "build",
    "squeezing_of",
    "lambda_from_squeezing",
    "is_squeezing",
    "space_from_squeezing",
    "random_poi_family",
    "vacuum_expectation",
    "word_on_vacuum",
    "verify_space",
]


@dataclass(frozen=True)
class InteractingSpace:
    """Quotient data of a deformation family.

    ranks[n] is the dimension of the level space; Lambda[n] (ranks[n] x d**n)
    the quotient map; xi[n] the embedding isometry (d**n x ranks[n]); lam[n]
    the PSD square root of L_n; creators[n][i] the matrix of the i-th basis
    creator from level n to n+1 in quotient coordinates.
    """

    family: DeformationFamily
    ranks: tuple
    Lambda: tuple
    xi: tuple
    lam: tuple
    creators: tuple  # creators[n][i]: ranks[n+1] x ranks[n]
    residuals: tuple  # well-definedness residual per level transition
    rank_tol: float

    @property
    def space(self) -> TruncatedFockSpace:
        return self.family.space

    @property
    def total_dim(self) -> int:
        return int(sum(self.ranks))

    def creator(self, n: int, i: int) -> np.ndarray:
        return self.creators[n][i]

    def sqrt_mu(self, n: int) -> np.ndarray:
        """Kept singular values sqrt(mu_n) of lambda_n: the diagonal of Lambda_n xi_n."""
        return np.einsum("ij,ji->i", self.Lambda[n], self.xi[n]).real

    def lam_pinv(self, n: int) -> np.ndarray:
        """pinv(lambda_n) = xi_n diag(mu_n^-1/2) xi_n*."""
        xi = self.xi[n]
        return (xi / self.sqrt_mu(n)) @ xi.conj().T

    def creator_x(self, n: int, x) -> np.ndarray:
        """Creator of the one-particle vector x at level n (linear in x)."""
        x = np.asarray(x, dtype=complex).reshape(-1)
        if x.shape != (self.space.d,):
            raise ValueError(f"one-particle vector has length {x.size}, want {self.space.d}")
        out = np.zeros((self.ranks[n + 1], self.ranks[n]), dtype=complex)
        for i, c in enumerate(x):
            if c != 0:
                out += c * self.creators[n][i]
        return out


@dataclass(frozen=True)
class Squeezing:
    """Per-level matrices kappa_n (d**n x d**n) for n = 1..N; identity on the vacuum."""

    space: TruncatedFockSpace
    kappa: tuple

    def __post_init__(self):
        if len(self.kappa) != self.space.N:
            raise ValueError("need one squeezing matrix per level 1..N")
        mats = []
        for i, M in enumerate(self.kappa):
            M = np.array(M, dtype=complex)
            dim = self.space.dim(i + 1)
            if M.shape != (dim, dim):
                raise ValueError(f"kappa at level {i + 1} has shape {M.shape}, want {(dim, dim)}")
            M.setflags(write=False)
            mats.append(M)
        object.__setattr__(self, "kappa", tuple(mats))

    def level(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.space.N:
            raise ValueError(f"kappa defined for levels 1..{self.space.N}")
        return self.kappa[n - 1]

    def norms(self) -> list:
        return [_linalg.op_norm(K) for K in self.kappa]


def build(
    family: DeformationFamily,
    rank_tol: float = _linalg.RANK_TOL,
    residual_tol: float = 1e-8,
) -> InteractingSpace:
    """Construct the interacting Fock space of an admissible family."""
    report = validate(family, rank_tol=rank_tol)
    if not report.ok:
        raise ValueError(f"family fails validation: {report.to_dict()}")
    fock = family.space
    eye_d = np.eye(fock.d)
    ranks, Lambdas, xis, lams, pinvs = [], [], [], [], []
    for n in fock.levels():
        w, U = family.spectrum(n)
        kept = _linalg.eigen_kept(w, rank_tol)
        Uk = U[:, kept]
        sk = np.sqrt(w[kept])
        ranks.append(int(kept.sum()))
        Lambdas.append(sk[:, None] * Uk.conj().T)
        xis.append(Uk)
        lams.append((Uk * sk) @ Uk.conj().T)
        pinvs.append(Uk / sk)  # pinv(Lambda_n) = xi_n diag(mu_n^-1/2)
    creators, residuals = [], []
    for n in range(fock.N):
        level_ops, worst = [], 0.0
        for i in range(fock.d):
            # Lambda_{n+1}(e_i (x) id)
            shifted = kron_id(eye_d[:, [i]], Lambdas[n + 1], fock.dim(n), id_first=False)
            a = shifted @ pinvs[n]
            diff = _linalg.fro_norm(a @ Lambdas[n] - shifted)
            worst = max(worst, diff / max(1.0, _linalg.fro_norm(Lambdas[n + 1])))
            level_ops.append(a)
        residuals.append(worst)
        if worst > residual_tol:
            raise ValueError(
                f"creators not well defined at level {n} (residual {worst:.3e}): "
                "kernel condition violated"
            )
        creators.append(tuple(level_ops))
        if _linalg.matrix_rank(np.hstack(level_ops), rank_tol) != ranks[n + 1]:
            raise ValueError(f"creators fail to span level {n + 1}")
    return InteractingSpace(
        family=family,
        ranks=tuple(ranks),
        Lambda=tuple(Lambdas),
        xi=tuple(xis),
        lam=tuple(lams),
        creators=tuple(creators),
        residuals=tuple(residuals),
        rank_tol=rank_tol,
    )


def squeezing_of(space: InteractingSpace) -> Squeezing:
    """The squeezing kappa_{n+1} = lambda_{n+1} (id (x) pinv(lambda_n))."""
    d = space.space.d
    mats = [kron_id(space.lam_pinv(n), space.lam[n + 1], d) for n in range(space.space.N)]
    return Squeezing(space.space, tuple(mats))


def lambda_from_squeezing(squeezing: Squeezing) -> list:
    """Iterate lambda_{n+1} = kappa_{n+1}(id (x) lambda_n) from lambda_0 = [1]."""
    d = squeezing.space.d
    lams = [np.ones((1, 1), dtype=complex)]
    for n in range(squeezing.space.N):
        lams.append(kron_id(lams[n], squeezing.level(n + 1), d))
    return lams


def is_squeezing(squeezing: Squeezing, rank_tol: float = _linalg.RANK_TOL, tol: float = 1e-9):
    """Check the squeezing axioms against the range flag the map itself induces.

    The flag starts at the vacuum line and grows by range_n = kappa_n(H (x)
    range_{n-1}); the axioms are that kappa_n vanishes on H (x) (range_{n-1})
    perp (and is then automatically onto range_n).  Returns (ok, worst
    vanishing residual, flag bases).
    """
    d = squeezing.space.d
    flag = [np.ones((1, 1), dtype=complex)]
    worst = 0.0
    for n in range(1, squeezing.space.N + 1):
        K = squeezing.level(n)
        prev = flag[-1]
        comp = _linalg.kernel_onb(prev.conj().T, rank_tol)  # ONB of range-perp
        if comp.shape[1]:
            resid = _linalg.op_norm(kron_id(comp, K, d))
            worst = max(worst, resid / max(1.0, _linalg.op_norm(K)))
        flag.append(_linalg.range_onb(kron_id(prev, K, d), rank_tol))
    return worst <= tol, worst, flag


def space_from_squeezing(
    squeezing: Squeezing,
    rank_tol: float = _linalg.RANK_TOL,
) -> InteractingSpace:
    """Interacting Fock space of a squeezing: lambda by recursion, L = lambda* lambda.

    The embedding stored on the result is the canonical PSD one (sqrt of L);
    when the recursion's lambda is itself PSD — e.g. any squeezing recovered
    from a built space, or any projection family — the recovered squeezing
    coincides with the input (uniqueness); otherwise the result is the same
    space under a partial-Fock-isometry change of embedding.
    """
    ok, worst, _ = is_squeezing(squeezing, rank_tol)
    if not ok:
        raise ValueError(f"not a squeezing: vanishing residual {worst:.3e} on H (x) flag-perp")
    lams = lambda_from_squeezing(squeezing)
    L = [np.ones((1, 1), dtype=complex)]
    for lam in lams[1:]:
        G = lam.conj().T @ lam
        L.append((G + G.conj().T) / 2.0)
    fam = DeformationFamily(squeezing.space, tuple(L))
    return build(fam, rank_tol=rank_tol)


def random_poi_family(d: int, N: int, seed: int, ranks=None) -> DeformationFamily:
    """Seeded random admissible family with prescribed (or random) rank profile.

    Quotient maps are drawn as Lambda_{n+1} = G (id (x) Lambda_n) with G a
    random full-rank matrix, which enforces the compatibility
    Lambda_{n+1}(e_i (x) ker Lambda_n) = 0 by construction; L = Lambda* Lambda.
    """
    space = TruncatedFockSpace(d=d, N=N)
    rng = np.random.default_rng(seed)
    if ranks is not None:
        ranks = [int(r) for r in ranks]
        if len(ranks) != N + 1 or ranks[0] != 1:
            raise ValueError("rank profile must be (1, r_1, ..., r_N)")
        for n in range(N):
            if ranks[n + 1] > d * ranks[n]:
                raise ValueError(
                    f"infeasible rank profile: r_{n + 1} = {ranks[n + 1]} exceeds d*r_{n} = {d * ranks[n]}"
                )
            if ranks[n + 1] < 0:
                raise ValueError("ranks must be nonnegative")
    Lambda = np.ones((1, 1), dtype=complex)
    mats = [np.ones((1, 1), dtype=complex)]
    for n in range(N):
        cap = d * Lambda.shape[0]
        r = ranks[n + 1] if ranks is not None else (int(rng.integers(1, cap + 1)) if cap else 0)
        G = (rng.standard_normal((r, d * Lambda.shape[0])) + 1j * rng.standard_normal((r, d * Lambda.shape[0]))) / np.sqrt(
            max(1, 2 * d * Lambda.shape[0])
        )
        Lambda = kron_id(Lambda, G, d)
        Gram = Lambda.conj().T @ Lambda
        mats.append((Gram + Gram.conj().T) / 2.0)
    return DeformationFamily(space, tuple(mats))


def _as_sign(kind) -> int:
    if kind in (+1, "a*", "create", "creator"):
        return +1
    if kind in (-1, "a", "annihilate", "annihilator"):
        return -1
    raise ValueError(f"letter kind must be +1/-1 or 'a*'/'a', got {kind!r}")


def word_on_vacuum(word, space: InteractingSpace):
    """Apply a word of creators/annihilators to the vacuum.

    The word is listed left to right as the operator product is written, so
    the rightmost letter acts first.  Returns (level, coordinates) of the
    resulting vector in quotient coordinates; a vector that was annihilated
    comes back as (0, zero).
    """
    level = 0
    cur = np.array([1.0 + 0j])
    for kind, x in reversed(list(word)):
        sign = _as_sign(kind)
        if sign > 0:
            if level >= space.space.N:
                raise ValueError("word exceeds the truncation level")
            cur = space.creator_x(level, x) @ cur
            level += 1
        else:
            if level == 0:
                return 0, np.zeros(1, dtype=complex)
            cur = space.creator_x(level - 1, x).conj().T @ cur
            level -= 1
        if not cur.any():
            return 0, np.zeros(1, dtype=complex)
    return level, cur


def vacuum_expectation(word, space: InteractingSpace) -> complex:
    """<Omega, w Omega> for a word w of creators/annihilators.

    The empty word gives 1; a word of nonzero total degree gives 0.
    """
    level, cur = word_on_vacuum(word, space)
    if level != 0:
        return 0.0 + 0.0j
    return complex(cur[0])


def verify_space(space: InteractingSpace) -> dict:
    """Residuals of the structural identities of a built space (all should be tiny)."""
    fam, d = space.family, space.space.d
    out = {
        "gram": 0.0,  # Lambda* Lambda = L
        "isometry": 0.0,  # xi* xi = id
        "embedding": 0.0,  # xi Lambda = lam
        "intertwine": 0.0,  # kappa (e_i (x) id) = xi a_n(i) xi*
        "recursion": 0.0,  # recursion fixed point
        "spanning": True,
    }
    for n in space.space.levels():
        scale = max(1.0, _linalg.fro_norm(fam.level(n)))
        out["gram"] = max(out["gram"], _linalg.fro_norm(space.Lambda[n].conj().T @ space.Lambda[n] - fam.level(n)) / scale)
        r = space.ranks[n]
        out["isometry"] = max(out["isometry"], _linalg.fro_norm(space.xi[n].conj().T @ space.xi[n] - np.eye(r)))
        out["embedding"] = max(out["embedding"], _linalg.fro_norm(space.xi[n] @ space.Lambda[n] - space.lam[n]) / scale)
    sq = squeezing_of(space)
    lams = lambda_from_squeezing(sq)
    eye_d = np.eye(d)
    for n in range(space.space.N):
        scale = max(1.0, _linalg.fro_norm(space.lam[n + 1]))
        for i in range(d):
            lhs = kron_id(eye_d[:, [i]], sq.level(n + 1), space.space.dim(n), id_first=False)
            rhs = space.xi[n + 1] @ space.creator(n, i) @ space.xi[n].conj().T
            out["intertwine"] = max(out["intertwine"], _linalg.fro_norm(lhs - rhs) / scale)
        out["recursion"] = max(out["recursion"], _linalg.fro_norm(lams[n + 1] - space.lam[n + 1]) / scale)
        stacked = np.hstack(space.creators[n]) if space.creators[n] else np.zeros((space.ranks[n + 1], 0))
        if _linalg.matrix_rank(stacked, space.rank_tol) != space.ranks[n + 1]:
            out["spanning"] = False
    return out
