"""Interacting Fock spaces built from deformation families.

``build`` realizes the quotient of the truncated full Fock space by the
kernel of the semiinner product <., L .>.  Per level, the family's cached
spectrum by parts (``deformations.Parts``: one ``eigh`` per occupation-type
block, or one ``eigh`` of a dense level without sectors, or one thin SVD
of a factor Lambda_n) is cut at rank_tol; the kept eigenvalues mu_n are a
suffix of each part, so the embedding isometry xi_n is a view of the
family's eigenvectors part by part.  With the quotient map Lambda_n =
diag(sqrt(mu_n)) xi_n*, the creators act on quotient coordinates as
a_n(i) = Lambda_{n+1}(e_i (x) pinv(Lambda_n)), pinv(Lambda_n) = xi_n
diag(mu_n^-1/2).  They satisfy a_n(i) Lambda_n = Lambda_{n+1}(e_i (x) id)
exactly when the family's kernel condition holds; ``validate`` decides that
condition, and ``build`` refuses a family that fails it.  The creators
commute with the gauge torus, so a_n(i) maps type k to type k + e_i: they
are taken block by block, one stack per part of level n+1.  ``build``
proves from the kept spectra and the kernel residual that they span level
n+1 (``_spans``), and decomposes the stacks of a transition only where
that bound declines.  A space stores only what ``build`` measured: the cut
parts and the kernel residuals.  Quotient coordinates are sector-major
(the parts in label order, each ascending), in real and complex arithmetic
alike.  The ranks, sqrt(mu_n), sectors, the creator stacks by part, their
norms ||kappa_{n+1}|| and the dense xi_n and stacks are derived from the
parts when a reader first asks for them and kept on the space; no library
path on the build -> verify -> two-sided chain reads the creators.

``squeezing_of`` embeds the creators, kappa_{n+1} = xi_{n+1} [a_n(0) ...
a_n(d-1)] (id (x) xi_n*) = lambda_{n+1}(id (x) pinv(lambda_n)) with lambda_n
= xi_n Lambda_n = sqrt(L_n): the unique vacuum-preserving map onto the
embedded copy, vanishing on H (x) (embedded copy)-perp, that intertwines the
full-Fock creators with the quotient creators.  ``lambda_from_squeezing``
iterates the defining recursion lambda_{n+1} = kappa_{n+1}(id (x) lambda_n)
back, and ``space_from_squeezing`` builds an interacting Fock space from any
squeezing.  A ``Squeezing`` holds each kappa_n as a triple (X_n, C_n,
Y_{n-1}) with kappa_n = X_n C_n (id (x) Y_{n-1})* and X, Y isometries:
``squeezing_of`` stores (xi_{n+1}, the creator stack, xi_n), and a squeezing
given by its dense matrices is the instance X = I, C = K, Y = I.
``is_squeezing``, the recursion (lambda_n = X_n T_n) and
``space_from_squeezing`` all read the triples, so a squeezing of a built
space is checked and rebuilt without any d**n x d**n matrix; only
``Squeezing.level`` and the dense lambda_n of ``lambda_from_squeezing`` form
one, on request.  ``squeezing_of`` is a reader of the dense xi_n and
creator stacks.

Every array of a space has the family's dtype (``DeformationFamily.dtype``):
a real family gives real xi_n, creators, squeezing triples and flags, and
complex enters only where the data or a probe is complex (a complex family,
``creator_x`` of a complex x, ``random_poi_family``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .deformations import KERNEL_TOL, DeformationFamily, creator_stacks, transition, validate
from .tensor_core import TruncatedFockSpace, kron_id, letter_table

__all__ = [
    "InteractingSpace",
    "Squeezing",
    "build",
    "squeezing_of",
    "lambda_from_squeezing",
    "is_squeezing",
    "space_from_squeezing",
    "random_poi_family",
    "verify_space",
]

SQUEEZING_TOL = 1e-9  # largest vanishing residual on H (x) flag-perp that ``is_squeezing`` accepts


@dataclass(frozen=True)
class InteractingSpace:
    """An interacting Fock space, held as what ``build`` measured of its family.

    parts[n] holds level n by parts (``deformations.Parts``, cut at
    rank_tol): per occupation type, or in one part where the family
    certified no sectors, the kept eigenvalues mu_n and the kept
    eigenvectors on the words of the part, read-only views of the family's
    cached ones.  residuals[n] is the kernel-condition residual of
    transition n that ``validate`` reported and ``build`` judged against its
    residual_tol (0.0 where level n has full rank).

    Everything else is derived from ``parts`` on first access and kept
    (cached on the instance, so a space made by ``dataclasses.replace``
    derives its own).  ``blocks[n]`` holds the creators of transition n by
    row part, formed per transition: one read-only stack per part K of
    level n+1 on the partition of ``deformations.transition``
    (``deformations.creator_stacks``), part K's rows of [a_n(0) ...
    a_n(d-1)] with the blocks that are 0 left out.  ``kappa_norms[n]`` =
    ||kappa_{n+1}|| is the largest singular value of those stacks (xi_{n+1}
    is an isometry and id (x) xi_n* a coisometry).  Quotient coordinates
    are sector-major: the parts in label order, each ascending in mu.
    ``ranks[n]`` is the dimension of level n, ``sqrt_mu[n]`` the kept
    singular values of lambda_n and ``sectors[n]`` the occupation type of
    each quotient coordinate, or None where the family certified no sectors
    at level n.  ``xi`` holds the embedding isometries (d**n x ranks[n]),
    and ``stack(n)`` the stack [a_n(0) ... a_n(d-1)] (ranks[n+1] x d
    ranks[n]) of one transition, whose column blocks are the creators a_n(i)
    and whose contractions ``creator_x`` forms.  ``lam`` (PSD roots of L_n)
    is formed on each access, all levels at once: bind it once outside a
    loop.  ``_words`` is a table that ``opalg`` fills and reads.  ``dtype``
    is the family's, and that of every array the space holds.
    """

    family: DeformationFamily
    parts: tuple  # parts[n]: level n by parts, cut at rank_tol
    residuals: tuple  # well-definedness residual per level transition
    rank_tol: float

    @property
    def space(self) -> TruncatedFockSpace:
        return self.family.space

    @property
    def dtype(self) -> type:
        return self.family.dtype

    @functools.cached_property
    def ranks(self) -> tuple:
        return tuple(p.rank for p in self.parts)

    @functools.cached_property
    def sqrt_mu(self) -> tuple:
        return tuple(_linalg.frozen(np.sqrt(np.concatenate(p.w))) for p in self.parts)

    @functools.cached_property
    def sectors(self) -> tuple:
        return tuple(p.sectors for p in self.parts)

    @functools.cached_property
    def xi(self) -> tuple:
        """xi[n], d**n x ranks[n] and read-only: the kept eigenvectors of
        ``parts[n]`` in one matrix (``Parts.merged``), which for a level in
        one part is the view itself."""
        return tuple(_linalg.frozen(p.merged(self.space.dim(n)).V[0]) for n, p in enumerate(self.parts))

    @property
    def blocks(self) -> tuple:
        return tuple(self._row_stacks(n) for n in range(self.space.N))

    @functools.cached_property
    def kappa_norms(self) -> tuple:
        return tuple(self._kappa_norm(n) for n in range(self.space.N))

    def _kappa_norm(self, n: int) -> float:
        """kappa_norms[n], from transition n's row stacks alone."""
        return float(_linalg.singular_values(self._row_stacks(n)).max(initial=0.0))

    @functools.cached_property
    def _rows(self) -> dict:
        return {}  # blocks[n] by transition, once formed

    @functools.cached_property
    def _stacks(self) -> dict:
        return {}  # stack(n) by transition, once placed

    def _row_stacks(self, n: int) -> tuple:
        if n not in self._rows:
            lower, upper, table = transition(self.parts[n], self.parts[n + 1], n, self.space.d)
            self._rows[n] = tuple(_linalg.frozen(a) for a in creator_stacks(lower, zip(upper.w, upper.V, table)))
        return self._rows[n]

    @functools.cached_property
    def _words(self) -> dict:
        return {}  # opalg's word table (``opalg.span_build``)

    def stack(self, n: int) -> np.ndarray:
        """[a_n(0) ... a_n(d-1)] in sector-major order, read-only, placed on
        first access and kept, without forming any other transition's.

        Where transition n has one row part (a level without sectors, or d =
        1), it is that part's own stack.  Else the parts of ``blocks[n]`` are
        placed by ``tensor_core.letter_table(n + 1, d)``: part K's stack
        holds a_n(i) from part k to part K for each (i, cols, k) of its
        letters, side by side.  A transition outside 0..N-1 is refused."""
        if not 0 <= n < self.space.N:
            raise ValueError(f"transition {n} is outside 0..{self.space.N - 1}")
        if n not in self._stacks:
            row_parts, d = self._row_stacks(n), self.space.d
            stack = row_parts[0]
            if len(row_parts) > 1:
                rows, cols = self.parts[n + 1].sizes, self.parts[n].sizes
                row_at, col_at = np.cumsum((0,) + rows), np.cumsum((0,) + cols)
                stack = np.zeros((row_at[-1], d * col_at[-1]), dtype=stack.dtype)
                for K, (part, letters) in enumerate(zip(row_parts, letter_table(n + 1, d))):
                    start = 0
                    for i, *_, k in letters:
                        at = i * col_at[-1] + col_at[k]
                        stack[row_at[K] : row_at[K + 1], at : at + cols[k]] = part[:, start : start + cols[k]]
                        start += cols[k]
            self._stacks[n] = _linalg.frozen(stack)
        return self._stacks[n]

    @property
    def lam(self) -> tuple:
        """PSD roots lambda_n = xi_n diag(sqrt(mu_n)) xi_n* of L_n."""
        return tuple((xi * s) @ xi.conj().T for xi, s in zip(self.xi, self.sqrt_mu))

    def creator_x(self, n: int, x) -> np.ndarray:
        """Creator sum_i x_i a_n(i) of the one-particle vector x at level n
        (linear in x), one contraction of ``stack(n)``; complex when x or the
        space is.  A NaN or infinite entry of x is refused."""
        x = np.asarray(x, dtype=_linalg.dtype_of(x)).reshape(-1)
        d = self.space.d
        if x.shape != (d,):
            raise ValueError(f"one-particle vector has length {x.size}, want {d}")
        _linalg.check_finite("the one-particle vector", x)
        return x @ self.stack(n).reshape(self.ranks[n + 1], d, self.ranks[n])


class Squeezing:
    """A squeezing kappa = (kappa_n), n = 1..N, identity on the vacuum, held
    per level as a triple (X_n, C_n, Y_{n-1}) with kappa_n = X_n C_n (id (x)
    Y_{n-1})*: X_n (d**n x a_n) and Y_{n-1} (d**(n-1) x b_n) isometries and
    C_n of shape a_n x d b_n.

    ``Squeezing(space, kappa)`` takes the dense matrices kappa_n (d**n x
    d**n), the instance X = I, C = K, Y = I; ``from_triples`` takes thin
    ones, as ``squeezing_of`` does.  The arrays are read-only: the dense
    matrices are copied, all complex when one of them is and else real; of a
    triple, a float64 or complex128 array that no one can write (it and the
    array owning its memory read-only, as a built space's xi_n and stacks
    are) is held as given, any other as a read-only copy, complex128 where
    it is complex and else float64 (``_linalg.read_only``).  So the range
    flag and vanishing residual that ``is_squeezing`` computes are cached
    here once and cannot go stale.
    ``dtype`` is complex when any array held is, else float: that of the
    flags and of lambda_0.  ``level(n)`` forms the dense kappa_n on each
    call.  Both constructors refuse a NaN or infinite entry, naming the level.
    """

    def __init__(self, space: TruncatedFockSpace, kappa):
        if len(kappa) != space.N:
            raise ValueError("need one squeezing matrix per level 1..N")
        dtype = _linalg.dtype_of(*kappa)
        eye = [_linalg.frozen(np.eye(dim, dtype=dtype)) for dim in space.dims]
        triples = []
        for n, K in enumerate(kappa, start=1):
            K = np.array(K, dtype=dtype)  # always a copy of a matrix given from outside
            if K.shape != eye[n].shape:
                raise ValueError(f"kappa at level {n} has shape {K.shape}, want {eye[n].shape}")
            triples.append((eye[n], _linalg.frozen(K), eye[n - 1]))
        self._hold(space, triples)

    @classmethod
    def from_triples(cls, space: TruncatedFockSpace, triples) -> Squeezing:
        """The squeezing kappa_n = X_n C_n (id (x) Y_{n-1})* of triples[n - 1] =
        (X_n, C_n, Y_{n-1}); X and Y must be isometries, which is not checked."""
        if len(triples) != space.N:
            raise ValueError("need one triple per level 1..N")
        squeezing = object.__new__(cls)
        squeezing._hold(space, triples)
        return squeezing

    def _hold(self, space: TruncatedFockSpace, triples) -> None:
        held = []
        for n, triple in enumerate(triples, start=1):
            X, C, Y = (_linalg.read_only(M) for M in triple)
            _linalg.check_finite(f"the level {n} squeezing", X, C, Y)
            a, b = X.shape[-1], Y.shape[-1]
            want = ((space.dim(n), a), (a, space.d * b), (space.dim(n - 1), b))
            if (X.shape, C.shape, Y.shape) != want:
                raise ValueError(f"level {n} triple has shapes {(X.shape, C.shape, Y.shape)}, want {want}")
            held.append((X, C, Y))
        self.space, self.triples, self._flags = space, tuple(held), None
        self.dtype = _linalg.dtype_of(*(M for triple in held for M in triple))

    def level(self, n: int) -> np.ndarray:
        """The dense kappa_n, formed on each call (read-only, not cached)."""
        if not 1 <= n <= self.space.N:
            raise ValueError(f"kappa defined for levels 1..{self.space.N}")
        X, C, Y = self.triples[n - 1]
        K = X @ kron_id(Y.conj().T, C, self.space.d)
        K.setflags(write=False)
        return K


def build(
    family: DeformationFamily,
    rank_tol: float = _linalg.RANK_TOL,
    residual_tol: float = KERNEL_TOL,
) -> InteractingSpace:
    """Construct the interacting Fock space of an admissible family.

    ``validate`` with kernel_tol=residual_tol decides admissibility, and its
    kernel residuals become the space's residuals.  The creators of level n
    are the d column blocks of Lambda_{n+1}(id (x) pinv(Lambda_n)), taken
    part by part (``deformations.transition``, ``creator_stacks``): part K
    of level n+1 takes its words that start with i from part K - e_i of
    level n, so a_n(i) maps part K - e_i to part K, with the block
    diag(sqrt(mu_K)) xi_K[words starting with i]* xi_{K - e_i}
    diag(mu_{K - e_i}^-1/2).  They must span level n+1: the singular values
    of the stacks, cut against the largest of all, keep ranks[n+1].
    ``_spans`` proves that from the kept spectra and the residual; where it
    declines (always under a level n of rank 0), the stacks are formed and
    one batched ``svd`` per shape decides.  The space stores the cut parts
    and the residuals, and derives the rest, the stacks and kappa_norms too.
    """
    report = validate(family, rank_tol=rank_tol, kernel_tol=residual_tol)
    if not report.kernel_ok:
        n = next(n for n, v in enumerate(report.kernel_violations) if v > residual_tol)
        raise ValueError(
            "family fails validation: kernel condition violated at level "
            f"{n} (residual {report.kernel_violations[n]:.3e})"
        )
    if not report.psd_ok:
        raise ValueError(f"family fails validation: {report.to_dict()}")
    fock = family.space
    parts = tuple(family.parts(n).cut(rank_tol) for n in fock.levels())
    space = InteractingSpace(family=family, parts=parts, residuals=tuple(report.kernel_violations), rank_tol=rank_tol)
    for n in range(fock.N):
        if not _spans(parts[n], parts[n + 1], space.residuals[n], fock.d, fock.dim(n + 1), rank_tol):
            s = _linalg.singular_values(space._row_stacks(n))
            if np.count_nonzero(_linalg.kept_mask(s, rank_tol)) != parts[n + 1].rank:
                raise ValueError(f"creators fail to span level {n + 1}")
    return space


def _spans(lower, upper, residual: float, d: int, dim: int, rank_tol: float) -> bool:
    """True when the kept spectra of levels n and n+1 and the kernel residual
    prove that the creator stack S of the transition keeps all ranks[n+1]
    singular values under the rank cut; False leaves it to the SVD.

    S(id (x) Lambda_n) = Lambda_{n+1} - E with E = Lambda_{n+1}(id (x) (1 -
    xi_n xi_n*)), and ||E|| <= sqrt(d) residual max(1, ||Lambda_{n+1}||_F).
    So Weyl's inequality gives sigma_min(S) >= (sqrt(mu_min(n+1)) - ||E||) /
    sqrt(mu_max(n)), while ||S|| <= sqrt(mu_max(n+1) / mu_min(n)).  The first,
    less a rounding slack of 8 dim(n+1) eps ||Lambda_{n+1}||, must exceed
    2 rank_tol times the second: the extra rank_tol covers the SVD's rounding."""
    if not upper.rank:
        return True
    if not lower.rank:
        return False
    lo, up = np.concatenate(lower.w), np.concatenate(upper.w)
    slack = 8 * dim * np.finfo(float).eps * np.sqrt(up.max())
    E = np.sqrt(d) * residual * max(1.0, np.sqrt(up.sum())) + slack
    return bool((np.sqrt(up.min()) - E) / np.sqrt(lo.max()) > 2 * rank_tol * np.sqrt(up.max() / lo.min()))


def squeezing_of(space: InteractingSpace) -> Squeezing:
    """The creators embedded: kappa_{n+1} = xi_{n+1} [a_n(0) ... a_n(d-1)] (id (x) xi_n*),
    held as the triples (xi_{n+1}, stack(n), xi_n), both derived forms
    of the space (``InteractingSpace.xi`` and ``stack``); no dense kappa
    is formed.

    This is lambda_{n+1} (id (x) pinv(lambda_n)), since a_n(i) =
    Lambda_{n+1} (e_i (x) pinv(Lambda_n)).
    """
    triples = [(space.xi[n + 1], space.stack(n), space.xi[n]) for n in range(space.space.N)]
    return Squeezing.from_triples(space.space, triples)


def _thin_lambdas(squeezing: Squeezing) -> list:
    """lambda_n = X_n T_n as the pairs (X_n, T_n), from lambda_0 = [1].

    lambda_{n+1} = kappa_{n+1}(id (x) lambda_n) = X_{n+1} T_{n+1} with
    T_{n+1} = C_{n+1}(id (x) Y_n* X_n T_n), a_{n+1} x d**(n+1): the small
    Y_n* X_n is applied first, so no lambda_n is formed.
    """
    d = squeezing.space.d
    X = T = np.ones((1, 1), dtype=squeezing.dtype)
    out = [(X, T)]
    for X_next, C, Y in squeezing.triples:
        T = kron_id((Y.conj().T @ X) @ T, C, d)
        X = X_next
        out.append((X, T))
    return out


def lambda_from_squeezing(squeezing: Squeezing) -> list:
    """Iterate lambda_{n+1} = kappa_{n+1}(id (x) lambda_n) from lambda_0 = [1];
    the dense lambda_n = X_n T_n of each level (``_thin_lambdas``)."""
    return [X @ T for X, T in _thin_lambdas(squeezing)]


def is_squeezing(squeezing: Squeezing):
    """Check the squeezing axioms against the range flag the map itself induces.

    The flag starts at the vacuum line and grows by range_n = kappa_n(H (x)
    range_{n-1}); the axioms are that kappa_n vanishes on H (x) (range_{n-1})
    perp (and is then automatically onto range_n).  With F the flag basis of
    range_{n-1} and kappa_n = X C (id (x) Y)*, the residual of level n is
    ||K - K(id (x) F)(id (x) F)*|| = ||C (id (x) Z)||, Z = Y* - (Y*F)F*,
    relative to max(1, ||K||) (||K|| = ||C||).  With the QR Z* = Q R it is the
    norm of the a x d b matrix C (id (x) R*), since id (x) Q* is a coisometry:
    no basis of the complement and no d**n x d**n matrix is formed.  One thin
    SVD of C (id (x) Y*F) gives both ||K(id (x) F)||, the first scale tried,
    and the next flag X range(C (id (x) Y*F)), cut at _linalg.RANK_TOL; ok is
    worst <= SQUEEZING_TOL.  The worst residual and the read-only flag bases
    are cached on the squeezing: a second call decomposes nothing.  Returns
    (ok, worst, flag bases).
    """
    if squeezing._flags is None:
        d = squeezing.space.d
        flag = [np.ones((1, 1), dtype=squeezing.dtype)]
        worst = 0.0
        for X, C, Y in squeezing.triples:
            prev = flag[-1]
            YF = Y.conj().T @ prev
            U, s, _ = np.linalg.svd(kron_id(YF, C, d), full_matrices=False)  # K (id (x) F) = X U s Vh
            if prev.shape[1] < prev.shape[0]:
                R = np.linalg.qr(Y - prev @ YF.conj().T, mode="r")  # Z* = (1 - F F*) Y
                resid = _linalg.op_norm(kron_id(R.conj().T, C, d))
                # ||K||^2 lies between ||K(id (x) F)||^2 and that plus resid^2,
                # so the thin norm is ||K|| to rounding once resid is this small
                scale = float(s.max(initial=0.0))
                if resid > 1e-8 * scale:
                    scale = _linalg.op_norm(C)
                worst = max(worst, resid / max(1.0, scale))
            flag.append(X @ U[:, _linalg.kept_mask(s)])
        for F in flag:
            F.setflags(write=False)
        squeezing._flags = (worst, tuple(flag))
    worst, flag = squeezing._flags
    return worst <= SQUEEZING_TOL, worst, flag


def space_from_squeezing(squeezing: Squeezing) -> InteractingSpace:
    """Interacting Fock space of a squeezing: lambda by recursion, L = lambda* lambda.

    The family is factored (``DeformationFamily.from_factors``): its quotient
    maps are F_n* lambda_n = (F_n* X_n) T_n (``_thin_lambdas``), with F_n the
    flag bases of ``is_squeezing``.  The range of lambda_n lies in the flag,
    so F_n* lambda_n has as many rows as the flag has dimensions and keeps
    all of lambda_n* lambda_n but what the rank cut of the flag dropped; no
    lambda_n is formed and no d**n x d**n matrix is decomposed.

    The embedding stored on the result is the canonical PSD one (sqrt of L);
    when the recursion's lambda is itself PSD — e.g. any squeezing recovered
    from a built space, or any projection family — the recovered squeezing
    coincides with the input (uniqueness); otherwise the result is the same
    space under a partial-Fock-isometry change of embedding.
    """
    ok, worst, flag = is_squeezing(squeezing)
    if not ok:
        raise ValueError(f"not a squeezing: vanishing residual {worst:.3e} on H (x) flag-perp")
    factors = [(F.conj().T @ X) @ T for F, (X, T) in zip(flag, _thin_lambdas(squeezing))]
    return build(DeformationFamily.from_factors(squeezing.space, factors))


def random_poi_family(d: int, N: int, seed: int, ranks=None) -> DeformationFamily:
    """Seeded random admissible family with prescribed (or random) rank profile.

    Quotient maps are drawn as Lambda_{n+1} = G (id (x) Lambda_n) with G a
    random full-rank matrix, which enforces the compatibility
    Lambda_{n+1}(e_i (x) ker Lambda_n) = 0 by construction.  The family is
    made from these factors (``DeformationFamily.from_factors``), so L =
    Lambda* Lambda and each level's spectrum comes from its r_n x d**n factor.
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
                raise ValueError(f"requested rank {ranks[n + 1]} at level {n + 1} is negative")
    Lambda = np.ones((1, 1), dtype=complex)
    factors = [Lambda]
    for n in range(N):
        cap = d * Lambda.shape[0]
        r = ranks[n + 1] if ranks is not None else (int(rng.integers(1, cap + 1)) if cap else 0)
        G = (rng.standard_normal((r, d * Lambda.shape[0])) + 1j * rng.standard_normal((r, d * Lambda.shape[0]))) / np.sqrt(
            max(1, 2 * d * Lambda.shape[0])
        )
        Lambda = kron_id(Lambda, G, d)
        factors.append(Lambda)
    return DeformationFamily.from_factors(space, factors)


def verify_space(space: InteractingSpace) -> dict:
    """Residuals of a built space (all should be tiny).

    ``gram`` is max_n ||Lambda_n* Lambda_n - L_n|| / max(1, ||L_n||), which
    sees the dropped part of the spectrum.  For a factored family, where L_n
    = F_n* F_n, that number is ||w_dropped|| / max(1, ||w||) on the level's
    thin spectrum w, so no L_n is formed.  ``isometry`` is max_n ||xi_n* xi_n
    - id||; ``kernel`` is the largest kernel-condition residual of
    ``validate``, the number ``build`` judged against its residual_tol (0.0
    when every level below the top has full rank).  That the creators span
    each level is not re-checked: ``build`` refuses a space where they do
    not.  Both differences are read part by part against the family's
    blocks (``DeformationFamily.blocks``): each column of xi_n lives on the
    words of its part, and a level with parts has no entry between two of
    them, so the differences are block diagonal over the parts and the
    Frobenius norms (and ||L_n||) are the root sums of squares of the
    per-part ones.  A level in one part is one block.
    """
    fam = space.family
    gram = isometry = 0.0
    for n in space.space.levels():
        parts = space.parts[n]
        if fam.factors is None:
            diff, scale, iso = _linalg.totals(_residual_terms, parts.w, parts.V, fam.blocks(n).mats)
            gram = max(gram, float(np.sqrt(diff) / max(1.0, np.sqrt(scale))))
        else:
            (w,), (xi,) = fam.parts(n).w, parts.V
            gram = max(gram, _linalg.fro_norm(w[: len(w) - space.ranks[n]]) / max(1.0, _linalg.fro_norm(w)))
            iso = _linalg.sq_norm(xi.conj().T @ xi - np.eye(xi.shape[1]))
        isometry = max(isometry, float(np.sqrt(iso)))
    return {"gram": gram, "isometry": isometry, "kernel": max(space.residuals)}


def _residual_terms(mu, xi, L) -> tuple:
    """``verify_space``'s squared residuals of one part of a level, or their
    sums over a stack of parts: ||Lambda* Lambda - L||^2 with Lambda =
    diag(sqrt(mu)) xi*, ||L||^2 and ||xi* xi - id||^2."""
    Lambda = np.sqrt(mu)[..., None] * xi.conj().swapaxes(-1, -2)
    gram = _linalg.sq_norm(Lambda.conj().swapaxes(-1, -2) @ Lambda - L)
    isometry = _linalg.sq_norm(xi.conj().swapaxes(-1, -2) @ xi - np.eye(xi.shape[-1]))
    return gram, _linalg.sq_norm(L), isometry
