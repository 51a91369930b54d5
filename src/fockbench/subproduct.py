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

Projection order P <= Q is tested as ||(id - Q) P|| <= tol throughout,
taken on the range basis R of P (P = R R*) as ||R - Q R||, a d**n x r_n
matrix.  An adjacent factor id (x) pi_n of Q is applied on the range basis
R_n of pi_n as (id (x) R_n)((id (x) R_n)* R), and the adjacent violations
are kept on the family, so ``pi_space`` after ``certify`` takes none again.
The pairwise Q = pi_m (x) pi_n is read through the compressed product:
(pi_m (x) pi_n) R_{m+n} = (R_m (x) R_n) v_{m,n}*, and each v_{m,n} is
formed once per certification, for the pairwise violations and for the
coisometry and associativity residuals alike.  Each level is decomposed
once: the family is a ``DeformationFamily`` (L := pi), by type blocks (the
identity and nested-point builtins), dense, or factored by its range bases,
whose cached spectrum gives the ranks and range bases that certification,
the product maps and ``pi_space`` read.  ``pi_space`` holds its squeezing in
thin form and sums its deviation from Frobenius-orthogonal pieces of thin
matrices (``_deviations``), so none of them forms a dense pi_n past the
d x d pi_1 that ``normalized`` reads.
The stock families here are real (float64), and ``random_adjacent_family``
is complex; a family keeps the dtype of what it is given (``_linalg.dtype_of``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .deformations import DeformationFamily, _check_dense, creator_stacks
from .deformations import kernel_part, transition
from .interacting import InteractingSpace, build, squeezing_of
from .tensor_core import TruncatedFockSpace, kron_id, occupation_types, type_words

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
TWO_SIDED_TOL = 1e-9  # largest kernel residual of a space that carries right creators


class ProjectionFamily(DeformationFamily):
    """Hermitian idempotents pi_n on the tensor levels, pi_0 = [1]: the
    deformation family with L := pi.

    Its cached spectrum (``parts``) is the one decomposition of each level;
    ``range_basis`` reads from it, and range bases are formed once per level
    and kept.  A family given by its dense matrices is checked Hermitian and
    idempotent on the blocks it is split into (``DeformationFamily.blocks``):
    a level that is exactly 0.0 between occupation types on its sector
    blocks, so no d**n x d**n matrix is squared, and any other level as one
    block.  A family made by ``from_ranges`` is factored with Lambda_n =
    R_n*, so that decomposition is a thin SVD of R_n* and no pi_n is stored;
    ``identity_projections`` and ``nested_point_projections`` are block
    families (``from_blocks``).  The inherited ``from_blocks`` and
    ``from_factors`` take levels that are projections by construction.
    ``normalized`` records whether pi_1 = id; the product-map construction
    requires it (the one-particle space must be all of H), certification and
    space building do not.
    """

    def __init__(self, space: TruncatedFockSpace, pi):
        head = np.asarray(pi[0]) if len(pi) else np.zeros((0, 0))
        if head.shape != (1, 1):
            raise ValueError(f"pi_0 has shape {head.shape}, want (1, 1)")
        if not abs(head[0, 0] - 1.0) <= PROJ_TOL:  # refuses nan too
            raise ValueError("pi_0 must be the identity on the vacuum line")
        super().__init__(space, (np.ones((1, 1)),) + tuple(pi[1:]))
        for n in space.levels():
            size, asymmetry, excess = np.sqrt(_linalg.totals(_projection_terms, self.blocks(n).mats))
            if asymmetry > PROJ_TOL * max(1.0, size):
                raise ValueError(f"pi_{n} is not Hermitian")
            if excess > PROJ_TOL * max(1.0, size):
                raise ValueError(f"pi_{n} is not idempotent")

    @classmethod
    def from_ranges(cls, space: TruncatedFockSpace, ranges) -> ProjectionFamily:
        """The family pi_n = R_n R_n* of orthonormal bases ranges[n] (d**n x r_n).

        ranges[0] must be [[1]] exactly.  Orthonormality is checked on the
        r_n x r_n Gram matrix, so no d**n x d**n product is formed.
        """
        if len(ranges) != space.N + 1:
            raise ValueError(f"need range bases for levels 0..{space.N}")
        factors = []
        for n, R in enumerate(ranges):
            R = np.asarray(R, dtype=_linalg.dtype_of(R))
            if R.ndim != 2 or R.shape[0] != space.dim(n):
                raise ValueError(f"ranges[{n}] has shape {R.shape}, want ({space.dim(n)}, r_{n})")
            _linalg.check_finite(f"level {n} range basis", R)
            r = R.shape[1]
            if _linalg.fro_norm(R.conj().T @ R - np.eye(r)) > PROJ_TOL * max(1.0, np.sqrt(r)):
                raise ValueError(f"ranges[{n}] is not orthonormal")
            factors.append(R.conj().T)
        if not np.array_equal(factors[0], np.ones((1, 1))):
            raise ValueError("ranges[0] must be [[1]] exactly")
        return cls.from_factors(space, factors)

    @property
    def ranks(self) -> tuple:
        """Number of eigenvalues above 1/2 per level, the rule of ``range_basis``."""
        return tuple(self.range_basis(n).shape[1] for n in self.space.levels())

    @property
    def normalized(self) -> bool:
        return bool(_linalg.fro_norm(self.level(1) - np.eye(self.space.d)) <= PROJ_TOL)

    @functools.cached_property
    def _ranges(self) -> dict:
        return {}  # range_basis(n) by level, once formed

    def range_basis(self, n: int) -> np.ndarray:
        """Orthonormal basis R of range(pi_n), so pi_n = R R*: the eigenvectors
        of the cached spectrum with eigenvalue above 1/2, sector-major (for a
        level in one part, a read-only view)."""
        if n not in self._ranges:
            R = self.parts(n).above(0.5).merged(self.space.dim(n)).V[0]
            R.setflags(write=False)
            self._ranges[n] = R
        return self._ranges[n]


def _projection_terms(P) -> tuple:
    """||P||^2, ||P - P*||^2 and ||P^2 - P||^2 of a block, or their sums over
    a stack of blocks."""
    return _linalg.sq_norm(P), _linalg.sq_norm(P - P.conj().swapaxes(-1, -2)), _linalg.sq_norm(P @ P - P)


def _project(R: np.ndarray, M: np.ndarray, k: int, id_first: bool = True) -> np.ndarray:
    """(id_k (x) P) M, or with ``id_first=False`` (P (x) id_k) M, for P = R R*,
    taken as (id (x) R)((id (x) R)* M) on the range basis R of P, so no
    d**n x d**n matrix is formed."""
    inner = kron_id(R.conj().T, M, k, id_first=id_first, op_first=True)
    return kron_id(R, inner, k, id_first=id_first, op_first=True)


def _dominance_violation(R: np.ndarray, QR: np.ndarray) -> float:
    """||(id - Q) P|| for P = R R*, from the range basis R of P and the product
    QR: it equals ||R - QR|| since R* is a coisometry, and is zero exactly
    when P <= Q.  The matrix normed is d**n x rank P, not d**n x d**n."""
    return _linalg.op_norm(R - QR)


def _adjacent_violation(family: ProjectionFamily, n: int, id_first: bool = True) -> float:
    """||(1 - Q) pi_{n+1}|| for Q = id (x) pi_n (the squeezing side) or, with
    ``id_first=False``, Q = pi_n (x) id (the kernel side).  Taken once and
    kept in the family's ``_checks``, as its levels cannot change, so
    ``pi_space`` after ``certify`` reads what ``certify`` took."""
    key = ("squeezing_side" if id_first else "kernel_side", n)
    checks = family._checks
    if key not in checks:
        R = family.range_basis(n + 1)
        checks[key] = _dominance_violation(R, _project(family.range_basis(n), R, family.space.d, id_first=id_first))
    return checks[key]


def _compressed_product(bases, m: int, n: int, d: int) -> np.ndarray:
    """v_{m,n} = R_{m+n}* (R_m (x) R_n), r_{m+n} x r_m r_n, from the range
    bases of levels m, n and m + n, as R_{m+n}* (R_m (x) id)(id (x) R_n)."""
    head = kron_id(bases[m], bases[m + n].conj().T, d**n, id_first=False)
    return kron_id(bases[n], head, bases[m].shape[1])


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

    Each violation ||(1 - Q) pi_k|| is taken on the range basis R of pi_k
    as ||R - QR||, so no d**k x d**k matrix is read, formed or normed.  For
    an adjacent Q = id (x) pi_n (or pi_n (x) id) the factor is applied on
    its range basis as (id (x) R_n)((id (x) R_n)* R), and the violation is
    kept on the family for ``pi_space``.  For the pairwise Q = pi_m (x) pi_n,
    QR = (R_m (x) R_n) v_{m,n}*, read from the compressed product v_{m,n} =
    R_{m+n}* (R_m (x) R_n), which is formed once for every m + n <= N and
    also gives the coisometry and associativity residuals.  When both
    adjacent chains pass, the pairwise dominations are implied; they are
    still computed, and a disagreement is flagged as a software bug.
    """
    return _certify(family, tol)[0]


def _certify(family: ProjectionFamily, tol: float):
    """``certify``, and the product maps v_{m,n} of every m + n <= N, from
    which it read the pairwise violations and, for a normalized family that
    passes both adjacent chains, the coisometry and associativity residuals."""
    d, N = family.space.d, family.space.N
    bases = [family.range_basis(n) for n in range(N + 1)]
    squeezing_side = [_adjacent_violation(family, n) for n in range(N)]
    kernel_side = [_adjacent_violation(family, n, id_first=False) for n in range(N)]
    v = {(m, n): _compressed_product(bases, m, n, d) for m in range(N + 1) for n in range(N + 1 - m)}
    pairwise = {}
    for m in range(1, N):
        for n in range(1, N - m + 1):
            # (pi_m (x) pi_n) R = (R_m (x) R_n) v*, as (R_m (x) id)(id (x) R_n) v*
            inner = kron_id(bases[n], v[(m, n)].conj().T, bases[m].shape[1], op_first=True)
            both = kron_id(bases[m], inner, d**n, id_first=False, op_first=True)
            pairwise[(m, n)] = _dominance_violation(bases[m + n], both)
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
        coiso, assoc = _product_residuals(v)
    cert = SubproductCertificate(
        squeezing_side=tuple(squeezing_side),
        kernel_side=tuple(kernel_side),
        pairwise=pairwise,
        coisometry=coiso,
        associativity=assoc,
        tol=tol,
        theorem_confirmed=theorem,
    )
    return cert, v


def product_maps(family: ProjectionFamily, tol: float = PROJ_TOL):
    """Compressed tensor products v_{m,n} = R_{m+n}* (R_m (x) R_n) on
    orthonormal range coordinates, for m + n <= N.

    Returns ({(m, n): matrix}, coisometry residual, associativity residual):
    the maps ``certify`` formed once for its pairwise violations, and the
    residuals it took on them.  Requires the family to pass both adjacent
    chains and to be normalized (pi_1 = id).
    """
    if not family.normalized:
        raise ValueError("product maps need the normalization pi_1 = id")
    cert, v = _certify(family, tol)
    if not (cert.squeezing_side_ok and cert.kernel_side_ok):
        raise ValueError("family fails an adjacent chain; not a subproduct system")
    return v, cert.coisometry, cert.associativity


def _product_residuals(v: dict) -> tuple:
    """The coisometry residual max ||v v* - id|| and the associativity
    residual max ||v_{m+n,k}(v_{m,n} (x) id) - v_{m,n+k}(id (x) v_{n,k})||
    (Frobenius norms) of the product maps v of levels 0..N."""
    N = max(m for m, _ in v)
    rank = [v[(n, 0)].shape[0] for n in range(N + 1)]
    coiso = 0.0
    for (m, n), mat in v.items():
        r = mat.shape[0]
        coiso = max(coiso, _linalg.fro_norm(mat @ mat.conj().T - np.eye(r)))
    assoc = 0.0
    for m in range(1, N):
        for n in range(1, N - m):
            for k in range(1, N - m - n + 1):
                lhs = kron_id(v[(m, n)], v[(m + n, k)], rank[k], id_first=False)
                rhs = kron_id(v[(n, k)], v[(m, n + k)], rank[m])
                assoc = max(assoc, _linalg.fro_norm(lhs - rhs))
    return coiso, assoc


def pi_space(family: ProjectionFamily, tol: float = PROJ_TOL):
    """Interacting Fock space with L := pi; here pi = L = lambda = kappa.

    Requires the squeezing-side chain (squeezing_side); the kernel-side chain is not
    needed.  ``tol`` bounds the dominance violation and is the rank tolerance
    of the build.  Returns (space, squeezing, max deviation of lambda and
    kappa from pi).  The violations are the ones ``certify`` keeps on the
    family, taken here only where it has not run.  The squeezing is thin
    (``squeezing_of``), and both deviations are Frobenius norms read off
    thin matrices (``_deviations``), so no d**n x d**n matrix is formed.
    """
    for n in range(family.space.N):
        if _adjacent_violation(family, n) > tol:
            raise ValueError(
                f"pi_{n + 1} not dominated by id (x) pi_{n}: pi is not a squeezing"
            )
    space = build(family, rank_tol=tol)
    return space, squeezing_of(space), max(max(pair) for pair in _deviations(family, space))


def _deviations(family: ProjectionFamily, space: InteractingSpace) -> list:
    """(||lambda_n - pi_n||, ||kappa_n - pi_n||) in Frobenius norm for n =
    1..N, of the space's lambda_n = xi diag(sqrt(mu_n)) xi* and its
    squeezing kappa_n = xi C (id (x) xi_{n-1})*, with xi = xi_n and C =
    stack(n - 1) (``squeezing_of``), against pi_n = R R* of the range basis
    R of the family.

    With S = xi* R, R_p = R - xi S and W = (id (x) xi_{n-1})* R, R_q = R -
    (id (x) xi_{n-1}) W, the ranges of xi and of id (x) xi_{n-1} split each
    difference into Frobenius-orthogonal pieces of thin matrices:
    ||lambda - pi||^2 = ||diag(sqrt_mu) - S S*||^2 + 2 ||S R_p*||^2 +
    ||R_p* R_p||^2 and ||kappa - pi||^2 = ||C - S W*||^2 + ||R_p W*||^2 +
    ||R_q||^2.  Each piece is a norm taken directly, so nothing cancels.
    """
    d, out = family.space.d, []
    for n in range(1, family.space.N + 1):
        R, xi, xi_prev, C = family.range_basis(n), space.xi[n], space.xi[n - 1], space.stack(n - 1)
        S = xi.conj().T @ R
        R_p = R - xi @ S
        W = kron_id(xi_prev.conj().T, R, d, op_first=True)
        R_q = R - kron_id(xi_prev, W, d, op_first=True)
        lam = (_linalg.sq_norm(np.diag(space.sqrt_mu[n]) - S @ S.conj().T) + 2 * _linalg.sq_norm(S @ R_p.conj().T)
               + _linalg.sq_norm(R_p.conj().T @ R_p))
        kappa = _linalg.sq_norm(C - S @ W.conj().T) + _linalg.sq_norm(R_p @ W.conj().T) + _linalg.sq_norm(R_q)
        out.append((float(np.sqrt(lam)), float(np.sqrt(kappa))))
    return out


def _adjacent_intersection(R: np.ndarray, d: int) -> np.ndarray:
    """Orthonormal basis of range(id (x) pi) cut with range(pi (x) id), pi = R R*.

    The cut is taken in the range coordinates of id (x) pi: with the isometry
    B = id (x) R (d**(n+1) x d r), it is B ker((1 - pi (x) id) B).  The
    singular values of (1 - pi (x) id) B lie in [0, 1], so the kernel is cut
    at rank_tol absolutely, not relative to the largest one (which is 0 when
    id (x) pi <= pi (x) id).
    """
    B = kron_id(R, np.eye(d * R.shape[1]), d, op_first=True)
    # B is tall: Vh is square
    _, s, Vh = np.linalg.svd(B - _project(R, B, d, id_first=False), full_matrices=False)
    return B @ Vh[int(np.count_nonzero(s > _linalg.RANK_TOL)):].conj().T


def random_adjacent_family(d: int, N: int, ranks=None, seed: int = 0) -> ProjectionFamily:
    """Seeded projection family satisfying both adjacent chains by construction.

    pi_{n+1} projects onto a random subspace of range(id (x) pi_n) cut with
    range(pi_n (x) id), found in the d r_n range coordinates of id (x) pi_n
    (``_adjacent_intersection``).  ``ranks`` is the full profile (1, d, r_2,
    ..., r_N); levels 0 and 1 are forced.  A requested rank above the
    intersection dimension is an error; rank 0 zeroes every later level.
    The family is made from its range bases (``ProjectionFamily.from_ranges``),
    so no level is decomposed as a d**n x d**n matrix.
    """
    space = TruncatedFockSpace(d=d, N=N)
    rng = np.random.default_rng(seed)
    if ranks is not None:
        ranks = [int(r) for r in ranks]
        if len(ranks) != N + 1 or ranks[0] != 1 or (N >= 1 and ranks[1] != d):
            raise ValueError(f"rank profile must be (1, {d}, r_2, ..., r_N)")
    bases = [np.ones((1, 1), dtype=complex)]
    if N >= 1:
        bases.append(np.eye(d, dtype=complex))
    for n in range(1, N):
        C = _adjacent_intersection(bases[n], d)
        s = C.shape[1]
        if ranks is not None:
            r = ranks[n + 1]
            if r < 0:
                raise ValueError(f"requested rank {r} at level {n + 1} is negative")
            if r > s:
                raise ValueError(
                    f"requested rank {r} at level {n + 1} exceeds intersection dimension {s}"
                )
        else:
            r = int(rng.integers(1, s + 1)) if s else 0
        if r == 0:
            bases.append(np.zeros((space.dim(n + 1), 0), dtype=complex))
            continue
        G = rng.standard_normal((s, r)) + 1j * rng.standard_normal((s, r))
        Q, _ = np.linalg.qr(G)
        bases.append(C @ Q)
    return ProjectionFamily.from_ranges(space, bases)


def two_sided_test(space: InteractingSpace) -> dict:
    """Does the space also carry creators from the right?

    Membership in a productive system needs lambda_{n+1} to vanish on
    (ker lambda_n) (x) H; when it does, the right squeezing
    kappa'_{n+1} = lambda_{n+1} (pinv(lambda_n) (x) id) exists and satisfies
    the mirrored recursion.  A kernel residual above TWO_SIDED_TOL is a
    verdict, not an error.

    All is read in quotient coordinates, part by part as ``build`` reads the
    space, by the same code with the last letters in place of the first
    (``deformations.transition``, ``kernel_part`` and ``creator_stacks``):
    the words of part K of level n+1 that end with i are w (x) e_i for the
    words w of part K - e_i of level n.  No d**n x d**n matrix is formed.
    As xi_{n+1} is an isometry, ||lambda_{n+1}(ker (x) id)|| is the norm of
    off_n = Lambda_{n+1} - Lambda_{n+1}(xi_n (x) id)(xi_n (x) id)*, r_{n+1}
    x d**(n+1), whose parts are the diagonal blocks of a block-diagonal
    matrix: its norm is the largest of theirs.  When the test passes,
    ``kappa_prime_norms`` are the norms of the r_{n+1} x d r_n stacked
    right creators Lambda_{n+1}((xi_n diag(mu_n^-1/2)) (x) id), the largest
    singular value of their row parts (``_linalg.op_norm``), and
    ``recursion_residual`` is max_n ||off_n||_F / max(1, ||lambda_{n+1}||_F),
    exact since kappa'(lambda_n (x) id) - lambda_{n+1} = -xi_{n+1} off_n.
    Both residuals are 0.0 where level n has full rank.  No dense kappa' is
    formed or returned.
    """
    d, N = space.space.d, space.space.N
    residuals, recursion, transitions = [], [], []
    for n in range(N):
        lower, upper, table = transition(space.parts[n], space.parts[n + 1], n, d, last=True)
        rows = [row for row in zip(upper.w, upper.V, table) if len(row[0])]  # a part of rank 0 has no rows
        transitions.append((lower, rows))
        if space.ranks[n] == space.space.dim(n):
            residuals.append(0.0)
            recursion.append(0.0)
            continue
        # Lambda_{n+1}((1 - xi_n xi_n*) (x) e_i), part by part
        offs = [kernel_part(np.sqrt(mu)[:, None] * xi.conj().T, letters, lower.V) for mu, xi, letters in rows]
        top = max(1.0, float(space.sqrt_mu[n + 1].max(initial=0.0)))
        residuals.append(_linalg.op_norm(offs) / top)
        total = np.sqrt(sum(_linalg.sq_norm(off) for off in offs))
        recursion.append(float(total) / max(1.0, _linalg.fro_norm(space.sqrt_mu[n + 1])))
    exists = max(residuals, default=0.0) <= TWO_SIDED_TOL
    out = {"exists": exists, "kernel_residuals": residuals}
    if exists:
        out["kappa_prime_norms"] = [_linalg.op_norm(creator_stacks(lower, rows)) for lower, rows in transitions]
        out["recursion_residual"] = max(recursion, default=0.0)
    return out


# ---------------------------------------------------------------------------
# stock families


def identity_projections(d: int, N: int) -> ProjectionFamily:
    """pi_n = id on every level, one identity block per type, the levels of
    ``identity_family`` bit for bit; refused past the cap of ``_check_dense``."""
    space = TruncatedFockSpace(d=d, N=N)
    _check_dense(space)
    return ProjectionFamily.from_blocks(space, [[np.eye(len(w)) for w in type_words(n, d)] for n in space.levels()])


def symmetric_projections(d: int, N: int) -> ProjectionFamily:
    """pi_n = the symmetrizer (1/n!) sum over permutation operators, from its type basis.

    The range of pi_n has one orthonormal vector per occupation type k (a
    multiset of n letters from d): 1/sqrt(multinomial(n; k)) on each of the
    multinomial(n; k) words of type k and 0 elsewhere, so r_n = C(n+d-1, n).
    Column k of R_n is the type whose sorted word comes k-th in big-endian
    order.  The family is made from these range bases
    (``ProjectionFamily.from_ranges``): no symmetrizer is summed and no level
    is decomposed as a d**n x d**n matrix.
    """
    space = TruncatedFockSpace(d=d, N=N)
    ranges = []
    for n in space.levels():
        types = occupation_types(n, d)
        sizes = np.bincount(types)
        R = np.zeros((space.dim(n), len(sizes)))
        R[np.arange(space.dim(n)), types] = 1.0 / np.sqrt(sizes[types])
        ranges.append(R)
    return ProjectionFamily.from_ranges(space, ranges)


def nested_point_projections(d: int, N: int) -> ProjectionFamily:
    """pi_n = p_{n-1} (x) ... (x) p_0 onto basis points: passes the squeezing-side
    chain but fails the kernel-side chain at the first transition (d >= N >= 2).
    pi_n is the diagonal projection onto the one word (n-1, ..., 1, 0), held
    as type blocks: 0 but for a 1 at that word in the block of its type.
    Refused past the cap of ``_check_dense`` before any level is formed."""
    if d < N:
        raise ValueError("need d >= N so the point projections stay distinct")
    space = TruncatedFockSpace(d=d, N=N)
    _check_dense(space)
    blocks = []
    for n in space.levels():
        word = sum((n - 1 - j) * d ** (n - 1 - j) for j in range(n))  # letters n-1, ..., 0
        t = occupation_types(n, d)[word]
        level = [np.zeros((len(w), len(w))) for w in type_words(n, d)]
        at = int(np.searchsorted(type_words(n, d)[t], word))
        level[t][at, at] = 1.0
        blocks.append(level)
    return ProjectionFamily.from_blocks(space, blocks)
