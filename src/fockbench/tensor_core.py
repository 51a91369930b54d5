"""Dense tensor-level arithmetic for truncated Fock spaces.

Levels are numbered 0..N; level n is the n-fold tensor power of C^d and has
dimension d**n, level 0 is one-dimensional and spanned by the vacuum.  A
multi-index (i1,...,in) over {0,...,d-1} is flattened big-endian (leftmost
factor most significant), so a level-(m+n) vector reshaped to d**m x d**n
has the left m factors as rows.  This module is the one place that knows
the layout: :func:`words` tabulates the letters of every flat index at a
level and :func:`flat_index` flattens rows of letters back, and
:func:`kron_id` applies ``id (x) A`` and ``A (x) id`` by reshape,
from either side, without forming the Kronecker product.  Tensoring x onto
the left of level n (the full-Fock creator) is ``A = x[:, None]``, and the
block of columns for ``e_i (x) id`` is ``A = e_i``.  :func:`occupation_types`
labels every word with its occupation type, the multiset of its letters;
:func:`type_words` lists the words of each type, and :func:`letter_table`
splits them by the letter a word starts (or ends) with, naming the type of
the rest, in one format for either side.  Every type table is cached per
``(n, d)``, filled on first use and read-only together with the array that
owns its memory (``_linalg.frozen``), since every later caller shares it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import _linalg

__all__ = [
    "DEFAULT_LEVEL_CAP",
    "TruncatedFockSpace",
    "words",
    "flat_index",
    "occupation_types",
    "type_words",
    "letter_table",
    "inversions",
    "kron_id",
]

DEFAULT_LEVEL_CAP = 200_000


@dataclass(frozen=True)
class TruncatedFockSpace:
    """Shape data of a truncated full Fock space over C^d with levels 0..N.

    Parameters
    ----------
    d : int
        One-particle dimension (positive).
    N : int
        Level cutoff (positive); levels 0..N are kept.  Construction is
        refused when the top level dimension d**N exceeds DEFAULT_LEVEL_CAP.
    """

    d: int
    N: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"one-particle dimension must be positive, got {self.d}")
        if self.N < 1:
            raise ValueError(f"level cutoff must be positive, got {self.N}")
        if self.d ** self.N > DEFAULT_LEVEL_CAP:
            raise ValueError(
                f"top level dimension {self.d}**{self.N} exceeds level cap {DEFAULT_LEVEL_CAP}"
            )

    def dim(self, n: int) -> int:
        """Dimension d**n of level n."""
        if not 0 <= n <= self.N:
            raise ValueError(f"level {n} outside 0..{self.N}")
        return self.d ** n

    @property
    def dims(self) -> tuple:
        return tuple(self.d ** n for n in range(self.N + 1))

    def levels(self) -> range:
        return range(self.N + 1)


def words(n: int, d: int) -> np.ndarray:
    """The d**n x n letter table of level n: row k is the word with flat index k,
    so rows come in ``itertools.product(range(d), repeat=n)`` order; level 0
    has the one empty word, a table of shape (1, 0)."""
    return np.arange(d**n, dtype=np.int64)[:, None] // d ** np.arange(n - 1, -1, -1, dtype=np.int64) % d


def flat_index(rows, d: int) -> np.ndarray:
    """Inverse of :func:`words`: the flat index of each row of letters."""
    rows = np.asarray(rows, dtype=np.int64)
    return rows @ d ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64)


@functools.lru_cache(maxsize=32)
def occupation_types(n: int, d: int) -> np.ndarray:
    """The type label of each word at level n, a read-only length-d**n array.

    Words with the same letter counts share a type; the labels 0, 1, ...
    number the types in the big-endian order of their sorted words.  The
    gauge torus U (x) ... (x) U, U diagonal, acts by one character on each
    type, so an operator commuting with it has no entry between two types.
    """
    types = np.unique(flat_index(np.sort(words(n, d), axis=1), d), return_inverse=True)[1].reshape(-1)
    return _linalg.frozen(types)


@functools.lru_cache(maxsize=32)
def type_words(n: int, d: int) -> tuple:
    """The ascending (read-only) word indices of each occupation type at level n,
    by type label."""
    types = occupation_types(n, d)
    order = np.argsort(types, kind="stable")
    return tuple(_linalg.frozen(w) for w in np.split(order, np.cumsum(np.bincount(types))[:-1]))


@functools.lru_cache(maxsize=64)
def letter_table(n: int, d: int, last: bool = False) -> tuple:
    """For each type K at level n >= 1, the words of K by their first letter
    (with ``last``, by their last letter): a tuple of (i, cols, k), ascending
    in i, one per letter i that K holds.

    ``cols`` picks the words of ``type_words(n, d)[K]`` that start (end) with
    i: a slice for first letters, whose words are contiguous since the first
    letter is the most significant, and a read-only index array for last
    letters.  The rest of those words, in the same order, are the words of
    the level-(n-1) type k = K - e_i."""
    rest, out = occupation_types(n - 1, d), []
    for group in type_words(n, d):
        letter, other = (group % d, group // d) if last else divmod(group, d ** (n - 1))
        letters = []
        for i in range(d):
            pos = _linalg.frozen(np.flatnonzero(letter == i))
            if len(pos):
                letters.append((i, pos if last else slice(int(pos[0]), int(pos[-1]) + 1), int(rest[other[pos[0]]])))
        out.append(tuple(letters))
    return tuple(out)


def inversions(sigma) -> int:
    """Number of inverted pairs i<j with sigma[i] > sigma[j] (explicit count)."""
    sigma = tuple(sigma)
    return sum(1 for a, b in itertools.combinations(sigma, 2) if a > b)


def _check_permutation(sigma) -> tuple:
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != list(range(len(sigma))):
        raise ValueError(f"{sigma} is not a permutation of 0..{len(sigma) - 1}")
    return sigma


def position_map(sigma) -> list:
    """Tuple-position reading of the factor substitution x_j -> x_{sigma(j)}.

    Factors of a level-n simple tensor carry labels n..1 from left to right
    (label 1 is rightmost); sigma acts on 0-based labels.  Entry k of the
    returned list is the source tuple position that lands in position k.
    """
    sigma = _check_permutation(sigma)
    n = len(sigma)
    return [n - 1 - sigma[n - 1 - k] for k in range(n)]


def kron_id(A, M, k: int, *, id_first: bool = True, op_first: bool = False) -> np.ndarray:
    """Product of M with ``id_k (x) A`` (or ``A (x) id_k``), by reshape.

    ``op`` is ``id_k (x) A`` when ``id_first`` and ``A (x) id_k`` otherwise;
    the result is ``op @ M`` when ``op_first`` and ``M @ op`` otherwise.
    Both operands are 2-D; the Kronecker product is never formed: each case
    is one matrix product on a reshape of M (``M @ (A (x) id)`` applies A^T
    to each row of M reshaped p x k).  Under the big-endian layout
    ``M @ (e_i (x) id)`` is the i-th block of columns of M and
    ``M @ (x (x) id)`` contracts the leading factor of M's columns with x.
    """
    A, M = np.asarray(A), np.asarray(M)
    if A.ndim != 2 or M.ndim != 2:
        raise ValueError("kron_id needs 2-D operands")
    p, q = A.shape
    if op_first:
        if M.shape[0] != k * q:
            raise ValueError(f"operand has {M.shape[0]} rows, want {k} * {q}")
        c = M.shape[1]
        if id_first:
            return np.matmul(A, M.reshape(k, q, c)).reshape(k * p, c)
        return (A @ M.reshape(q, k * c)).reshape(p * k, c)
    m = M.shape[0]
    if M.shape[1] != k * p:
        raise ValueError(f"operand has {M.shape[1]} columns, want {k} * {p}")
    if id_first:
        return (M.reshape(m * k, p) @ A).reshape(m, k * q)
    return np.matmul(A.T, M.reshape(m, p, k)).reshape(m, q * k)
