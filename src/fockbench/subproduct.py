"""Projection families, subproduct certification, product maps, and two-sidedness.

A graded family of orthogonal projections pi_n on the tensor levels is a
subproduct system exactly when both adjacent dominations hold:
pi_{n+1} <= id (x) pi_n (the squeezing-side chain) and pi_{n+1} <= pi_n (x) id
(the kernel-side chain); then every pairwise domination
pi_m (x) pi_n >= pi_{m+n} follows, and the compressed tensor products
v_{m,n} = R_{m+n}* (R_m (x) R_n) are coisometric and associative on range
coordinates.  A family satisfying only the squeezing-side chain is still a
valid deformation family with pi = L = lambda = kappa (``pi_space``); the
kernel-side chain is precisely what the two-sidedness test on the built
space checks.

Projection order P <= Q is tested as ||(id - Q) P|| <= tol throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from . import _linalg
from .deformations import DeformationFamily, q_fock_recursive
from .interacting import InteractingSpace, Squeezing, build, squeezing_of
from .tensor_core import TruncatedFockSpace, kron_id

__all__ = [
    "ProjectionFamily",
    "SubproductCertificate",
    "certify",
    "product_maps",
    "pi_space",
    "random_adjacent_family",
    "two_sided_test",
    "symmetric_projections",
    "nested_point_projections",
    "identity_projections",
]

PROJ_TOL = 1e-10


@dataclass(frozen=True)
class ProjectionFamily:
    """Hermitian idempotents pi_n on the tensor levels, pi_0 = [1].

    ``normalized`` records whether pi_1 = id; the product-map construction
    requires it (the one-particle space must be all of H), certification and
    space building do not.
    """

    space: TruncatedFockSpace
    pi: tuple

    def __post_init__(self):
        if len(self.pi) != self.space.N + 1:
            raise ValueError(f"need projections for levels 0..{self.space.N}")
        mats = []
        for n, P in enumerate(self.pi):
            P = np.array(P, dtype=complex)
            dim = self.space.dim(n)
            if P.shape != (dim, dim):
                raise ValueError(f"pi_{n} has shape {P.shape}, want {(dim, dim)}")
            if _linalg.fro_norm(P - P.conj().T) > PROJ_TOL * max(1.0, _linalg.fro_norm(P)):
                raise ValueError(f"pi_{n} is not Hermitian")
            if _linalg.fro_norm(P @ P - P) > PROJ_TOL * max(1.0, _linalg.fro_norm(P)):
                raise ValueError(f"pi_{n} is not idempotent")
            P.setflags(write=False)
            mats.append(P)
        if abs(mats[0][0, 0] - 1.0) > PROJ_TOL:
            raise ValueError("pi_0 must be the identity on the vacuum line")
        object.__setattr__(self, "pi", tuple(mats))

    def level(self, n: int) -> np.ndarray:
        return self.pi[n]

    @property
    def ranks(self) -> tuple:
        return tuple(int(round(float(np.trace(P).real))) for P in self.pi)

    @property
    def normalized(self) -> bool:
        return bool(_linalg.fro_norm(self.pi[1] - np.eye(self.space.d)) <= PROJ_TOL)

    def range_basis(self, n: int) -> np.ndarray:
        return _linalg.range_onb(self.pi[n])


def _dominance_violation(P: np.ndarray, QP: np.ndarray) -> float:
    """||(id - Q) P|| from P and the product QP: zero exactly when P <= Q."""
    return _linalg.op_norm(P - QP)


@dataclass(frozen=True)
class SubproductCertificate:
    squeezing_side: tuple  # ||(1 - id (x) pi_n) pi_{n+1}|| per transition
    kernel_side: tuple  # ||(1 - pi_n (x) id) pi_{n+1}|| per transition
    pairwise: dict  # {(m, n): ||(1 - pi_m (x) pi_n) pi_{m+n}||}
    coisometry: float | None
    associativity: float | None
    tol: float
    theorem_confirmed: bool | None

    @property
    def squeezing_side_ok(self) -> bool:
        return max(self.squeezing_side, default=0.0) <= self.tol

    @property
    def kernel_side_ok(self) -> bool:
        return max(self.kernel_side, default=0.0) <= self.tol

    @property
    def pairwise_ok(self) -> bool:
        return max(self.pairwise.values(), default=0.0) <= self.tol

    @property
    def ok(self) -> bool:
        return self.squeezing_side_ok and self.kernel_side_ok and self.pairwise_ok

    def to_dict(self) -> dict:
        return {
            "squeezing_side": list(self.squeezing_side),
            "kernel_side": list(self.kernel_side),
            "pairwise": {f"{m},{n}": v for (m, n), v in sorted(self.pairwise.items())},
            "coisometry": self.coisometry,
            "associativity": self.associativity,
            "ok": self.ok,
            "theorem_confirmed": self.theorem_confirmed,
        }


def certify(family: ProjectionFamily, tol: float = PROJ_TOL) -> SubproductCertificate:
    """All adjacent and pairwise domination verdicts for a projection family.

    When both adjacent chains pass, the pairwise dominations are implied;
    they are still computed, and a disagreement is flagged as a software bug.
    """
    d, N = family.space.d, family.space.N
    squeezing_side, kernel_side = [], []
    for n in range(N):
        P = family.level(n + 1)
        squeezing_side.append(_dominance_violation(P, kron_id(family.level(n), P, d, op_first=True)))
        kernel_side.append(
            _dominance_violation(P, kron_id(family.level(n), P, d, id_first=False, op_first=True))
        )
    pairwise = {}
    for m in range(1, N):
        for n in range(1, N - m + 1):
            P = family.level(m + n)
            pairwise[(m, n)] = _dominance_violation(P, np.kron(family.level(m), family.level(n)) @ P)
    adjacent_ok = max(squeezing_side, default=0.0) <= tol and max(kernel_side, default=0.0) <= tol
    theorem = None
    if adjacent_ok:
        theorem = max(pairwise.values(), default=0.0) <= tol
        if not theorem:
            raise RuntimeError(
                "both adjacent chains pass but a pairwise domination fails: software bug"
            )
    coiso = assoc = None
    if adjacent_ok and family.normalized:
        _, coiso, assoc = product_maps(family, tol=tol, _certified=True)
    return SubproductCertificate(
        squeezing_side=tuple(squeezing_side),
        kernel_side=tuple(kernel_side),
        pairwise=pairwise,
        coisometry=coiso,
        associativity=assoc,
        tol=tol,
        theorem_confirmed=theorem,
    )


def product_maps(family: ProjectionFamily, tol: float = PROJ_TOL, _certified: bool = False):
    """Compressed tensor products v_{m,n} on orthonormal range coordinates.

    Returns ({(m, n): matrix}, coisometry residual, associativity residual).
    Requires the family to pass both adjacent chains and to be normalized
    (pi_1 = id).
    """
    if not family.normalized:
        raise ValueError("product maps need the normalization pi_1 = id")
    if not _certified:
        cert = certify(family, tol=tol)
        if not (cert.squeezing_side_ok and cert.kernel_side_ok):
            raise ValueError("family fails an adjacent chain; not a subproduct system")
    N = family.space.N
    bases = [family.range_basis(n) for n in range(N + 1)]
    v = {}
    for m in range(N + 1):
        for n in range(N + 1 - m):
            v[(m, n)] = bases[m + n].conj().T @ np.kron(bases[m], bases[n])
    coiso = 0.0
    for (m, n), mat in v.items():
        r = mat.shape[0]
        coiso = max(coiso, _linalg.fro_norm(mat @ mat.conj().T - np.eye(r)))
    assoc = 0.0
    for m in range(1, N):
        for n in range(1, N - m):
            for k in range(1, N - m - n + 1):
                lhs = kron_id(v[(m, n)], v[(m + n, k)], bases[k].shape[1], id_first=False)
                rhs = kron_id(v[(n, k)], v[(m, n + k)], bases[m].shape[1])
                assoc = max(assoc, _linalg.fro_norm(lhs - rhs))
    return v, coiso, assoc


def pi_space(family: ProjectionFamily, tol: float = PROJ_TOL):
    """Interacting Fock space with L := pi; here pi = L = lambda = kappa.

    Requires the squeezing-side chain (squeezing_side); the kernel-side chain is not
    needed.  ``tol`` bounds the dominance violation and is the rank tolerance
    of the build.  Returns (space, squeezing, max deviation of lambda and
    kappa from pi).
    """
    d, N = family.space.d, family.space.N
    for n in range(N):
        P = family.level(n + 1)
        if _dominance_violation(P, kron_id(family.level(n), P, d, op_first=True)) > tol:
            raise ValueError(
                f"pi_{n + 1} not dominated by id (x) pi_{n}: pi is not a squeezing"
            )
    space = build(DeformationFamily(family.space, family.pi), rank_tol=tol)
    sq = squeezing_of(space)
    lam = space.lam
    dev = 0.0
    for n in range(1, N + 1):
        dev = max(dev, _linalg.fro_norm(lam[n] - family.level(n)))
        dev = max(dev, _linalg.fro_norm(sq.level(n) - family.level(n)))
    return space, sq, dev


def random_adjacent_family(d: int, N: int, ranks=None, seed: int = 0) -> ProjectionFamily:
    """Seeded projection family satisfying both adjacent chains by construction.

    pi_{n+1} projects onto a random subspace of range(id (x) pi_n) cut with
    range(pi_n (x) id).  ``ranks`` is the full profile (1, d, r_2, ..., r_N);
    levels 0 and 1 are forced.  A requested rank above the intersection
    dimension is an error; rank 0 zeroes every later level.
    """
    space = TruncatedFockSpace(d=d, N=N)
    rng = np.random.default_rng(seed)
    if ranks is not None:
        ranks = [int(r) for r in ranks]
        if len(ranks) != N + 1 or ranks[0] != 1 or (N >= 1 and ranks[1] != d):
            raise ValueError(f"rank profile must be (1, {d}, r_2, ..., r_N)")
    eye_d = np.eye(d, dtype=complex)
    pis = [np.ones((1, 1), dtype=complex)]
    if N >= 1:
        pis.append(eye_d.copy())
    for n in range(1, N):
        C = _linalg.kernel_onb(
            np.vstack(
                [
                    np.eye(space.dim(n + 1), dtype=complex) - np.kron(eye_d, pis[n]),
                    np.eye(space.dim(n + 1), dtype=complex) - np.kron(pis[n], eye_d),
                ]
            )
        )
        s = C.shape[1]
        if ranks is not None:
            r = ranks[n + 1]
            if r > s:
                raise ValueError(
                    f"requested rank {r} at level {n + 1} exceeds intersection dimension {s}"
                )
        else:
            r = int(rng.integers(1, s + 1)) if s else 0
        if r == 0:
            pis.append(np.zeros((space.dim(n + 1), space.dim(n + 1)), dtype=complex))
            continue
        G = rng.standard_normal((s, r)) + 1j * rng.standard_normal((s, r))
        Q, _ = np.linalg.qr(G)
        W = C @ Q
        pis.append(W @ W.conj().T)
    return ProjectionFamily(space, tuple(pis))


def two_sided_test(space: InteractingSpace, tol: float = 1e-9) -> dict:
    """Does the space also carry creators from the right?

    Membership in a productive system needs lambda_{n+1} to vanish on
    (ker lambda_n) (x) H; when it does, the right squeezing
    kappa'_{n+1} = lambda_{n+1} (pinv(lambda_n) (x) id) exists and satisfies
    the mirrored recursion.  A failed residual is a verdict, not an error.
    """
    d, N = space.space.d, space.space.N
    lam = space.lam
    residuals = []
    for n in range(N):
        if space.ranks[n] == space.space.dim(n):
            residuals.append(0.0)
            continue
        ker = np.eye(space.space.dim(n)) - space.xi[n] @ space.xi[n].conj().T  # onto ker lambda_n
        resid = _linalg.op_norm(kron_id(ker, lam[n + 1], d, id_first=False))
        residuals.append(resid / max(1.0, float(space.sqrt_mu[n + 1].max(initial=0.0))))
    exists = max(residuals, default=0.0) <= tol
    out = {
        "exists": exists,
        "kernel_residuals": residuals,
        "kappa_norms": squeezing_of(space).norms(),
    }
    if exists:
        kprime, recursion = [], 0.0
        for n in range(N):
            lam_pinv = (space.xi[n] / space.sqrt_mu[n]) @ space.xi[n].conj().T
            Kp = kron_id(lam_pinv, lam[n + 1], d, id_first=False)
            kprime.append(Kp)
            recursion = max(
                recursion,
                _linalg.fro_norm(kron_id(lam[n], Kp, d, id_first=False) - lam[n + 1])
                / max(1.0, _linalg.fro_norm(lam[n + 1])),
            )
        out["kappa_prime"] = kprime
        out["kappa_prime_norms"] = [_linalg.op_norm(K) for K in kprime]
        out["recursion_residual"] = recursion
    return out


# ---------------------------------------------------------------------------
# stock families


def identity_projections(d: int, N: int) -> ProjectionFamily:
    space = TruncatedFockSpace(d=d, N=N)
    return ProjectionFamily(space, tuple(np.eye(space.dim(n), dtype=complex) for n in space.levels()))


def symmetric_projections(d: int, N: int) -> ProjectionFamily:
    """pi_n = symmetrizer (1/n!) sum over permutation operators."""
    space = TruncatedFockSpace(d=d, N=N)
    fam = q_fock_recursive(space, 1.0)
    return ProjectionFamily(
        space, tuple(fam.level(n) / factorial(n) for n in space.levels())
    )


def nested_point_projections(d: int, N: int) -> ProjectionFamily:
    """pi_n = p_n (x) ... (x) p_1 onto basis points: passes the squeezing-side
    chain but fails the kernel-side chain at the first transition (d >= N >= 2)."""
    if d < N:
        raise ValueError("need d >= N so the point projections stay distinct")
    space = TruncatedFockSpace(d=d, N=N)
    points = []
    for k in range(N):
        p = np.zeros((d, d), dtype=complex)
        p[k, k] = 1.0
        points.append(p)
    pis = [np.ones((1, 1), dtype=complex)]
    for n in range(1, N + 1):
        P = points[n - 1]
        for k in range(n - 2, -1, -1):
            P = np.kron(P, points[k])
        pis.append(P)
    return ProjectionFamily(space, tuple(pis))
