"""Deformation families L = (L_n): construction and validation.

A deformation family is a level-indexed family of PSD matrices L_n on the
tensor powers of C^d with L_0 = [1], defining the semiinner product
(x, y) = <x, L y> level-wise.  The family is admissible when additionally
H (x) ker L_n is contained in ker L_{n+1}; then L_{n+1} factors as
K_{n+1} (id (x) L_n).  A level is its sectors: an operator that commutes
with the gauge torus has no entry between two occupation types
(``tensor_core.occupation_types``), so it is one square block per type.
A family is held in one of two forms: its blocks, or its quotient maps
Lambda_n with L_n = Lambda_n* Lambda_n (``DeformationFamily.from_factors``).
The named constructors here build the blocks block by block
(``DeformationFamily.from_blocks``); dense matrices L_n given from outside
are split into them as they are read.  A dense level certifies its sectors
when L_n itself is exactly 0.0 in every entry between two types; any other
dense level is the one-block instance, and a factored level the one-part
instance of the same code.  Each level's spectrum is read part by part
(``Parts``, one ``eigh`` per block, blocks of equal size batched, or one
thin SVD of a factor), cached once, in sector-major order; a dense
d**n x d**n level (``level``) is formed only on request.  A family is real
(float64) unless some level, block or factor given to it is complex
(``_linalg.dtype_of``), and its spectrum has its dtype: every named
constructor here builds a real family.  ``validate`` owns the one
numerical rule for the kernel condition, read from that spectrum part by
part without a kernel basis, and ``interacting.build`` applies it through
it.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _linalg
from .tensor_core import (
    TruncatedFockSpace,
    flat_index,
    inversions,
    kron_id,
    letter_table,
    occupation_types,
    position_map,
    type_words,
    words,
)

__all__ = [
    "Blocks",
    "DeformationFamily",
    "Parts",
    "ValidationReport",
    "identity_family",
    "q_fock",
    "q_fock_recursive",
    "discrete_monotone",
    "validate",
]

NAIVE_PERMUTATION_CAP = 8
EPS_PSD = 1e-10  # relative slack under which a negative eigenvalue still counts as PSD
HERM_HARD_TOL = 1e-8  # relative asymmetry above which a level is refused as not Hermitian
KERNEL_TOL = 1e-8  # default bound on a kernel-condition residual (``validate``, ``build``, the CLI)
# cap on 16 bytes per entry of the d**N x d**N top level a named constructor
# forms: the real level and its cached eigenvectors, 8 bytes each
DENSE_LEVEL_BYTES = 2**31


class Parts:
    """A level as its parts: the thin spectrum (or the kept part of it) of one
    level, part by part.

    A certified level has one part per occupation type, in label order
    (``labels`` is ``arange`` of the types), and ``words[t]`` lists the
    words of type t ascending, as ``tensor_core.type_words`` does.  The
    one-part instance (``labels`` None) has all words of the level in one
    part: a level without certified sectors, or a factored one.  ``w[t]``
    holds the part's eigenvalues ascending and ``V[t]`` its orthonormal
    eigenvectors on its own words (len(words[t]) x len(w[t])); ``sizes``
    holds the len(w[t]) and ``rank`` their sum.  Read in sector-major order
    (parts in label order, each ascending), the parts give the level's
    spectrum; ``merged`` forms it as one part.
    """

    __slots__ = ("labels", "words", "w", "V", "sizes", "rank")

    def __init__(self, labels, words: tuple, w: tuple, V: tuple):
        self.labels, self.words, self.w, self.V = labels, words, w, V
        self.sizes = tuple(len(x) for x in w)
        self.rank = sum(self.sizes)

    @property
    def sectors(self):
        """The type of each eigenvector in sector-major order, or None for one part."""
        return None if self.labels is None else np.repeat(self.labels, self.sizes)

    def cut(self, rank_tol: float) -> Parts:
        """The eigenvalues w > rank_tol * (largest w of all parts) and their
        eigenvectors (``above``)."""
        tops = [x[-1] for x in self.w if len(x)]
        return self.above(rank_tol * float(max(tops)) if tops else 0.0)

    def above(self, value: float) -> Parts:
        """The eigenvalues w > value and their eigenvectors: a suffix of each
        part, its V a view (the parts themselves when all are kept)."""
        if all(not len(x) or x[0] > value for x in self.w):
            return self
        sizes = np.array(self.sizes)
        above = np.concatenate(([0], np.cumsum(np.concatenate(self.w) > value)))
        ends = np.cumsum(sizes)
        keep = (sizes - (above[ends] - above[ends - sizes])).tolist()
        return Parts(self.labels, self.words, tuple(x[k:] for x, k in zip(self.w, keep)),
                     tuple(X[:, k:] for X, k in zip(self.V, keep)))

    def merged(self, dim: int) -> Parts:
        """The one-part instance of the same spectrum, sector-major: the arrays
        of a level that already has one part of all words, else its
        eigenvectors scattered into one dim x sum(sizes) matrix."""
        if len(self.w) == 1 and len(self.words[0]) == dim:
            return self if self.labels is None else Parts(None, self.words, self.w, self.V)
        V = np.zeros((dim, self.rank), dtype=self.V[0].dtype)
        start = 0
        for words, X in zip(self.words, self.V):
            V[words, start : start + X.shape[1]] = X
            start += X.shape[1]
        return Parts(None, (np.arange(dim),), (np.concatenate(self.w),), (V,))


class Blocks(NamedTuple):
    """A level of a dense or block family as its blocks: ``labels`` and
    ``words`` as in ``Parts``, and ``mats[t]`` the square block of L_n on
    the words of part t."""

    labels: np.ndarray | None
    words: tuple
    mats: tuple


class DeformationFamily:
    """PSD matrices (L_n) for n = 0..N with L_0 = [1], held in one of two forms.

    A family made from its matrices or by ``from_blocks`` holds each level
    as its blocks (``blocks``), read-only and of the family's ``dtype``:
    float unless some level (or block, or factor) given is complex.  A
    dense level is split as it is read: when L_n itself is exactly 0.0 in
    every entry between two occupation types, into one copied block per
    type, else into the one-block instance, a copy of the whole level; the
    matrices given are not kept, so the per-level spectrum the family
    caches cannot go stale.  A family made by ``from_factors`` keeps only
    its quotient maps Lambda_n (r_n x d**n) as ``factors`` and reads each
    level's spectrum from a thin SVD of Lambda_n; ``factors`` is None
    otherwise.  ``level(n)`` and ``L`` return read-only dense matrices: the
    held block of a level in one block, else formed on each call from the
    blocks or factors, which no library path reads.  Every constructor
    refuses a NaN or infinite entry with a ValueError naming the level.
    """

    def __init__(self, space: TruncatedFockSpace, L):
        if len(L) != space.N + 1:
            raise ValueError("need one matrix per level 0..N")
        dtype = _linalg.dtype_of(*L)
        held = {}
        for n, M in enumerate(L):
            M = np.asarray(M, dtype=dtype)
            want = (space.dim(n), space.dim(n))
            if M.shape != want:
                raise ValueError(f"level {n} matrix has shape {M.shape}, want {want}")
            _linalg.check_finite(f"level {n} matrix", M)
            types = occupation_types(n, space.d)
            if np.any(M, where=types[:, None] != types[None, :]):
                held[n] = Blocks(None, (np.arange(len(M)),), (_linalg.frozen(np.array(M)),))
            else:
                words = type_words(n, space.d)
                held[n] = Blocks(np.arange(len(words)), words, tuple(_linalg.frozen(M[np.ix_(w, w)]) for w in words))
        if not np.array_equal(held[0].mats[0], np.ones((1, 1))):
            raise ValueError("L_0 must be [[1]] exactly")
        self._hold(space, dtype, None, held)

    def _hold(self, space, dtype, factors, blocks) -> None:
        self.space, self.dtype, self.factors, self._blocks = space, dtype, factors, blocks
        self._parts, self._checks = {}, {}

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
            _linalg.check_finite(f"level {n} factor", F)
            mats.append(_linalg.frozen(F))
        if not np.array_equal(mats[0], np.ones((1, 1))):
            raise ValueError("level 0 factor must be [[1]] exactly")
        family = object.__new__(cls)
        family._hold(space, dtype, tuple(mats), None)
        return family

    @classmethod
    def from_blocks(cls, space: TruncatedFockSpace, blocks) -> DeformationFamily:
        """The family whose level n is block diagonal over the occupation types,
        blocks[n][t] its square block on the words of type t
        (``tensor_core.type_words``); no entry between two types is stored.
        The blocks are kept read-only: as given when of the family's dtype
        and no one can write them (they and the arrays owning their memory
        read-only, ``_linalg.unwritable``), else as copies.  The level-0
        block must be [[1]]."""
        if len(blocks) != space.N + 1:
            raise ValueError("need blocks for every level 0..N")
        dtype = _linalg.dtype_of(*(M for level in blocks for M in level))
        held = {}
        for n, level in enumerate(blocks):
            words = type_words(n, space.d)
            if len(level) != len(words):
                raise ValueError(f"level {n} has {len(level)} blocks, want one per type ({len(words)})")
            mats = []
            for M, w in zip(level, words):
                M = np.asarray(M)
                if M.dtype != np.dtype(dtype) or not _linalg.unwritable(M):
                    M = _linalg.frozen(np.array(M, dtype=dtype))
                if M.shape != (len(w), len(w)):
                    raise ValueError(f"a level {n} block has shape {M.shape}, want {(len(w), len(w))}")
                mats.append(M)
            # one pass over the level, whose blocks may be many and small
            _linalg.check_finite(f"a level {n} block", np.concatenate([M.ravel() for M in mats]))
            held[n] = Blocks(np.arange(len(words)), words, tuple(mats))
        if not np.array_equal(held[0].mats[0], np.ones((1, 1))):
            raise ValueError("L_0 must be [[1]] exactly")
        family = object.__new__(cls)
        family._hold(space, dtype, None, held)
        return family

    def blocks(self, n: int) -> Blocks:
        """Level n of a dense or block family as the blocks it holds: one per
        occupation type, or the one-block instance, with no labels."""
        if self.factors is not None:
            raise ValueError("a factored family holds no blocks")
        return self._blocks[n]

    def level(self, n: int) -> np.ndarray:
        """The read-only dense L_n: the held block of a level in one block, else
        formed from the blocks (or factors) on each call."""
        if self.factors is not None:
            F = self.factors[n]
            return _linalg.frozen(_hermitian_part(F.conj().T @ F))
        blocks = self._blocks[n]
        if len(blocks.words[0]) == self.space.dim(n):
            return blocks.mats[0]
        L = np.zeros((self.space.dim(n),) * 2, dtype=self.dtype)
        for w, M in zip(blocks.words, blocks.mats):
            L[np.ix_(w, w)] = M
        return _linalg.frozen(L)

    @property
    def L(self) -> tuple:
        """All levels L_n (``level``)."""
        return tuple(self.level(n) for n in self.space.levels())

    def parts(self, n: int) -> Parts:
        """The spectrum of the Hermitian part of L_n by parts (``Parts``),
        computed once on first use and cached: validation, the quotient
        construction and ``interacting.verify_space`` all read it.

        For a family with factors it is the one part of a thin SVD of
        Lambda_n (O(d**n r_n**2)), which leaves out the kernel it does not
        span: the d**n - len(w) eigenvalues left out are exactly 0.  A dense
        or block level leaves nothing out: it is one ``eigh`` per block
        (``blocks``), blocks of equal size in one batched call, so a level
        in one block keeps its single ``eigh``.  The asymmetry of the
        blocks (``herm_residual``) is read on the same stacks.
        """
        if n not in self._parts:
            if self.factors is not None:
                w, V = _factor_spectrum(self.factors[n])
                parts = Parts(None, (np.arange(self.space.dim(n)),), (w,), (V,))
                self._checks[("herm", n)] = 0.0
            else:
                blocks = self._blocks[n]
                w, V = [None] * len(blocks.mats), [None] * len(blocks.mats)
                diff = scale = 0.0
                for ks, (M,) in _linalg.stacks(blocks.mats):
                    wk, Vk = np.linalg.eigh(_hermitian_part(M))
                    for j, k in enumerate(ks):
                        w[k], V[k] = (wk, Vk) if len(ks) == 1 else (wk[j], Vk[j])
                    diff, scale = diff + _linalg.sq_norm(M - M.conj().swapaxes(-1, -2)), scale + _linalg.sq_norm(M)
                self._checks[("herm", n)] = float(np.sqrt(diff) / max(1.0, np.sqrt(scale)))
                parts = Parts(blocks.labels, blocks.words, tuple(w), tuple(V))
            for a in parts.w + parts.V:
                _linalg.frozen(a)
            self._parts[n] = parts
        return self._parts[n]

    def herm_residual(self, n: int) -> float:
        """Relative deviation of L_n from its Hermitian part, ||L_n - L_n*|| /
        max(1, ||L_n||) (Frobenius norms): the root sums of squares over the
        blocks, read on the stacks ``parts`` decomposes; 0.0 for a factored
        family.  Computed once per level and kept, as the levels cannot
        change."""
        self.parts(n)
        return self._checks[("herm", n)]


def _kernel_residual(lower: Parts, upper: Parts, n: int, d: int) -> float:
    """``validate``'s kernel residual of transition n from the kept parts of
    levels n and n+1: 0.0 where level n has full rank or level n+1 rank 0."""
    if lower.rank == d**n or not upper.rank:
        return 0.0
    lower, upper, table = transition(lower, upper, n, d)
    letters, total = np.zeros(d), 0.0
    for mu, xi, incoming in zip(upper.w, upper.V, table):
        if not len(mu):
            continue
        Lam = np.sqrt(mu)[:, None] * xi.conj().T
        total += _linalg.sq_norm(Lam)
        # block i: Lambda_{n+1}(e_i (x) (1 - xi_n xi_n*)) on this part
        off = kernel_part(Lam, incoming, lower.V)
        if _one_tail(incoming):
            squares = np.square(np.linalg.norm(off.reshape(len(off), len(incoming), -1), axis=(0, 2)))
        else:
            squares = [_linalg.sq_norm(off[:, cols]) for _, cols, _ in incoming]
        for (i, *_), square in zip(incoming, squares):
            letters[i] += square
    return float(np.sqrt(letters.max())) / max(1.0, float(np.sqrt(total)))


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    """The Hermitian part of M, or of each matrix of a stack."""
    return (M + M.conj().swapaxes(-1, -2)) / 2.0


@functools.lru_cache(maxsize=64)
def _one_part_letters(n: int, d: int, last: bool) -> tuple:
    """``tensor_core.letter_table`` of level n >= 1 for the one-part instance:
    all words in one part, split by their first (last) letter."""
    if last:
        return (tuple((i, _linalg.frozen(np.arange(i, d**n, d)), 0) for i in range(d)),)
    return (tuple((i, slice(i * d ** (n - 1), (i + 1) * d ** (n - 1)), 0) for i in range(d)),)


def transition(lower: Parts, upper: Parts, n: int, d: int, last: bool = False) -> tuple:
    """Levels n and n+1 on one partition, and the letter table between them.

    When both levels have sectors, they are kept, and the table is
    ``tensor_core.letter_table(n + 1, d, last)``: part K of level n+1 takes
    its words starting (with ``last``, ending) with i from part K - e_i of
    level n.  Otherwise both are read as the one-part instance
    (``Parts.merged``).  Returns (lower, upper, table).
    """
    if lower.labels is not None and upper.labels is not None:
        return lower, upper, letter_table(n + 1, d, last)
    return lower.merged(d**n), upper.merged(d ** (n + 1)), _one_part_letters(n + 1, d, last)


def _one_tail(letters) -> bool:
    """Whether first letters share one tail part, as in the one-part instance:
    their words are then consecutive blocks of one width, one GEMM for all."""
    return isinstance(letters[0][1], slice) and letters[0][-1] == letters[-1][-1]


def creator_stacks(lower: Parts, rows) -> list:
    """The stacked creators of one transition, one stack per row part (mu_K,
    xi_K, letters) of level n+1 in ``rows``: [Lambda_K[:, cols] pinv_k for
    each (i, cols, k) of letters] side by side, with Lambda_K =
    diag(sqrt(mu_K)) xi_K* and pinv_k = xi_k diag(mu_k^-1/2) on level n.
    That is [Lambda_K(e_i (x) pinv_k)] for first letters (the creators) and
    [Lambda_K(pinv_k (x) e_i)] for last letters (the right creators): one
    GEMM (``kron_id``) for one tail part, an empty stack for rank 0."""
    pinv = [xi / np.sqrt(mu) for mu, xi in zip(lower.w, lower.V)]
    stacks = []
    for mu, xi, letters in rows:
        Lam = np.sqrt(mu)[:, None] * xi.conj().T
        if not len(mu):
            stacks.append(np.zeros((0, sum(lower.sizes[k] for *_, k in letters)), dtype=Lam.dtype))
        elif _one_tail(letters):
            stacks.append(kron_id(pinv[letters[0][-1]], Lam, len(letters)))
        else:
            stacks.append(np.hstack([Lam[:, cols] @ pinv[k] for _, cols, k in letters]))
    return stacks


def kernel_part(M: np.ndarray, letters, V) -> np.ndarray:
    """M less its projection on each letter's words, in place (M[:, cols] -=
    M[:, cols] V[k] V[k]* for each (i, cols, k) of ``letters``), returned.
    For M a part of Lambda_{n+1} and V the kept eigenvectors of level n, it
    is Lambda_{n+1}(e_i (x) (1 - xi_n xi_n*)) on the words of first letters,
    Lambda_{n+1}((1 - xi_n xi_n*) (x) e_i) on those of last letters."""
    if _one_tail(letters):
        V, k = V[letters[0][-1]], len(letters)
        M -= kron_id(V.conj().T, kron_id(V, M, k), k)
    else:
        for _, cols, k in letters:
            M[:, cols] -= (M[:, cols] @ V[k]) @ V[k].conj().T
    return M


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
    """The undeformed (full Fock) family L_n = id, one identity block per type."""
    _check_dense(space)
    return DeformationFamily.from_blocks(
        space, [[np.eye(len(w)) for w in type_words(n, space.d)] for n in space.levels()]
    )


# ------------------------------------------------------------------ q-Fock


def _check_q(q: float) -> float:
    q = float(q)
    if not -1 <= q <= 1:  # refuses nan too
        raise ValueError(f"deformation parameter must lie in [-1, 1], got {q}")
    return q + 0.0  # -0.0 is 0.0: one family, one recipe


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
    """q-deformed family via the cyclic-insertion recursion (no factorial blowup),
    built block by block.

    L_{n+1} = (id (x) L_n) T_{n+1} with T_{n+1} = sum_k q**k C_k, where C_k is
    the cyclic permutation exchanging the new factor with the one in slot k+1
    (equivalently: the transpose of inserting the leading factor into slot
    k+1): C_k sends the word w to the word that moves w's letter k to the
    front.  Both factors keep the occupation type, so the block of L_{n+1}
    on type K is A_K T_K: T_K is T_{n+1} on the words of K
    (``_insertions``), and A_K is block diagonal with the block of L_n on
    type K - e_i on the words of K that start with i
    (``tensor_core.letter_table``).  No d**n x d**n matrix is formed.
    Agrees with the naive enumeration wherever both run.
    """
    q = _check_q(q)
    _check_dense(space)
    d = space.d
    blocks = [(np.ones((1, 1)),)]
    for n in range(1, space.N + 1):
        flat, power, starts = _insertions(n, d)
        T = np.bincount(flat, weights=(q ** np.arange(n))[power], minlength=starts[-1])
        level = []
        for K, letters in enumerate(letter_table(n, d, False)):
            m = letters[-1][1].stop  # the last letter's words end with the words of K
            T_K = T[starts[K] : starts[K + 1]].reshape(m, m)
            L = np.empty((m, m))
            for _, cols, k in letters:
                L[cols] = blocks[n - 1][k] @ T_K[cols]
            level.append(_linalg.frozen(L))
        blocks.append(tuple(level))
    return DeformationFamily.from_blocks(space, blocks)


@functools.lru_cache(maxsize=32)
def _insertions(n: int, d: int) -> tuple:
    """Where the entries of T_n (``q_fock_recursive``) sit in its type blocks,
    all blocks of level n >= 1 in one flat array: block K (m x m, row-major)
    takes the entries starts[K]:starts[K+1].  Returns the read-only arrays
    (flat, power, starts): entry j of T_n is q**power[j], added at flat[j];
    the entries of q**k C_k come k by k within each block, and column c (the
    c-th word of K) has its one entry of C_k in the row of the word C_k
    sends it to."""
    table, flat, power, starts = words(n, d), [], [], [0]
    for group in type_words(n, d):
        m, letters = len(group), table[group]
        for k in range(n):
            front = [k] + list(range(k)) + list(range(k + 1, n))
            flat.append(starts[-1] + np.searchsorted(group, flat_index(letters[:, front], d)) * m + np.arange(m))
            power.append(np.full(m, k))
        starts.append(starts[-1] + m * m)
    return tuple(_linalg.frozen(np.concatenate(a)) for a in (flat, power)) + (_linalg.frozen(np.array(starts)),)


# ----------------------------------------------------------- monotone grid


def discrete_monotone(space: TruncatedFockSpace) -> DeformationFamily:
    """Diagonal 0/1 family keeping only strictly decreasing multi-indices.

    The discrete stand-in for the monotone weight: a level-n basis tensor
    survives exactly when its tuple decreases strictly left to right, so
    rank L_n = binomial(d, n) and L_n = 0 once n > d.
    """
    _check_dense(space)
    blocks = []
    for n in space.levels():
        decreasing = np.all(np.diff(words(n, space.d), axis=1) < 0, axis=1)
        blocks.append([np.diag(decreasing[w].astype(float)) for w in type_words(n, space.d)])
    return DeformationFamily.from_blocks(space, blocks)


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
    kernel_tol: float = KERNEL_TOL,
) -> ValidationReport:
    """Check Hermitian/PSD per level and the kernel condition between levels.

    A dense or block family is checked Hermitian on its blocks
    (``DeformationFamily.herm_residual``): a mild asymmetry (below
    HERM_HARD_TOL relative) is accepted with a warning and a larger one is rejected;
    factors are Hermitian by construction.  Everything else is read from the family's cached
    spectrum by parts (``DeformationFamily.parts``), that of the Hermitian
    part, where the eigenvalues left out are exactly 0.  Per level the
    eigenvalues w > rank_tol * max w are kept (a suffix of each part), the
    quotient map is Lambda_n = diag(sqrt(mu_n)) xi_n* on the kept ones, and
    all others are kernel, so a negative eigenvalue within EPS_PSD is
    kernel.  Since the kernel projection is 1 - xi_n xi_n*, the kernel
    condition residual at transition n is max_i ||Lambda_{n+1}(e_i (x) .) -
    Lambda_{n+1}(e_i (x) xi_n) xi_n*|| / max(1, ||Lambda_{n+1}||) (Frobenius
    norms), with no kernel basis formed.  Where both levels have sectors it
    is taken part by part (``transition``): the words of part K of level n+1
    that start with i meet only part K - e_i of level n, and the squares of
    the parts' norms add up.  It is 0.0 where level n has full rank or level
    n+1 has rank 0, and fails above kernel_tol.  This is the one kernel
    rule: ``build`` calls this function with its residual_tol and keeps
    these residuals as its own.  The family keeps each level's asymmetry
    (``DeformationFamily.herm_residual``) and each transition's kernel
    residual once computed, so a second call, such as ``build``'s after a
    ``validate``, decomposes and multiplies nothing.  A rank_tol outside (0, 1) is refused: from 1 up
    the cut drops every eigenvalue, the vacuum's too.
    """
    if not 0 < rank_tol < 1:
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol}")
    report = ValidationReport()
    d, dims = family.space.d, family.space.dims
    kept = []
    for n in family.space.levels():
        res = family.herm_residual(n)
        if res > HERM_HARD_TOL:
            raise ValueError(f"level {n} matrix is not Hermitian (residual {res:.3e})")
        if res > 1e-12:
            warnings.warn(f"symmetrizing level {n} (asymmetry {res:.3e})")
        parts = family.parts(n)
        full = parts.rank == dims[n]
        lo = min(float(w[0]) for w in parts.w if len(w)) if full else 0.0
        hi = max((float(w[-1]) for w in parts.w if len(w)), default=0.0)
        report.min_eigs.append(lo)
        report.max_eigs.append(hi)
        if lo < -EPS_PSD * max(hi, 1.0):
            report.psd_ok = False
        kept.append(parts.cut(rank_tol))
        report.kernel_dims.append(dims[n] - kept[n].rank)
    for n in range(family.space.N):
        key = ("kernel", n, rank_tol)  # kept on the family, whose levels cannot change
        if key not in family._checks:
            family._checks[key] = _kernel_residual(kept[n], kept[n + 1], n, d)
        viol = family._checks[key]
        report.kernel_violations.append(viol)
        if viol > kernel_tol:
            report.kernel_ok = False
    return report
