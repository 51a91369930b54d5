"""Word spans of creation/annihilation operators at finite truncation.

A word is a product a^(eps_n)(e_{i_n}) ... a^(eps_1)(e_{i_1}) of basis
creators (eps = +1) and annihilators (eps = -1) acting on the graded
quotient space, with the letter carrying eps_1 applied first.  The word's
signature is the tuple of exponents in operator order (leftmost factor
first); its total sum is the degree of the word as a block matrix.

``span_build`` assembles the linear span of all word values for one of
eight generating disciplines; ``mod_*`` kinds collect words of block
degree +1 (module candidates), ``alg_*`` kinds words of degree 0
(algebra candidates):

* ``"mod_alt"`` / ``"alg_alt"`` -- strictly alternating words ending
  (rightmost) in a creator, of odd / even length.
* ``"mod_nc"`` / ``"alg_nc"`` -- words whose partial sums read from the right
  never go negative (the word never dips below the grading it started
  from), with total +1 / 0.
* ``"mod_word"`` / ``"alg_word"`` -- all words of total +1 / 0.
* ``"mod_all"`` / ``"alg_all"`` -- every block matrix of degree +1 / 0, built
  directly, as the ambient comparison spaces.

Spans are finite-dimensional, so they stabilize once the word-length
horizon is large enough; ``OperatorSpan.stabilized`` records whether the
last length increment still changed the rank.  ``check_ternary`` and
``check_left_action`` test the algebraic closure properties that decide
whether a span can serve as a bimodule generator.

The work is batched BLAS; no Python loop runs per matrix or per triple.
A suffix span's letter products are one reshaped GEMM over all letters;
each signature's suffix span joins the span's basis as one block (block
CGS2, then an SVD rank cut) in the support coordinates of the span's
degree; membership (``OperatorSpan.residuals``) projects a whole stack with
one pair of GEMMs; and the ternary and left-action checks form their
products by reshaped GEMMs in blocks of at most ``_BLOCK_BYTES`` (8 MB), so
their transient memory stays bounded however many triples there are.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _product

import numpy as np

SPAN_TOL = 1e-10

SPAN_KINDS = ("mod_alt", "alg_alt", "mod_nc", "alg_nc", "mod_word", "alg_word", "mod_all", "alg_all")

__all__ = [
    "SPAN_KINDS",
    "SPAN_TOL",
    "OperatorSpan",
    "signatures",
    "alternating_signature",
    "span_build",
    "check_ternary",
    "check_left_action",
]


def signatures(n, total, nc=False):
    """All +-1 tuples of length n with the given total sum.

    Tuples are in operator order: position 0 is the leftmost letter of the
    word, position n-1 the rightmost (applied first).  With ``nc=True``
    only tuples whose partial sums read from the right stay >= 0 are kept,
    i.e. words that never annihilate below their starting grade.  Result
    is exhaustive and lexicographically sorted; an unreachable total or a
    parity mismatch gives an empty list.
    """
    n = int(n)
    if n < 1:
        raise ValueError("signature length must be at least 1")
    total = int(total)
    if abs(total) > n or (n - total) % 2 != 0:
        return []
    out = []
    for sig in _product((-1, 1), repeat=n):
        if sum(sig) != total:
            continue
        if nc:
            running = 0
            ok = True
            for eps in reversed(sig):
                running += eps
                if running < 0:
                    ok = False
                    break
            if not ok:
                continue
        out.append(sig)
    return out


def alternating_signature(n):
    """The unique strictly alternating signature of length n ending in +1.

    The rightmost letter (applied first) is a creator; letters alternate
    leftwards.  Even n starts with an annihilator, odd n with a creator.
    """
    n = int(n)
    if n < 1:
        raise ValueError("signature length must be at least 1")
    return tuple(1 if (n - 1 - j) % 2 == 0 else -1 for j in range(n))


@dataclass(frozen=True)
class OperatorSpan:
    """Frobenius-orthonormal basis of a span of operators on the graded space.

    basis has shape (rank, R, R) where R is the total quotient dimension;
    rank_history[k] is the accumulated rank after words of length <= k+1,
    and stabilized records whether the final length increment changed it.
    """

    basis: np.ndarray
    which: str = "custom"
    horizon: int = 0
    stabilized: bool = True
    rank_history: tuple = ()

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise ValueError("basis must be a stack of square matrices")
        object.__setattr__(self, "basis", basis)
        if basis.shape[0]:
            vecs = basis.reshape(basis.shape[0], -1)
            gram = vecs @ vecs.conj().T
            if np.max(np.abs(gram - np.eye(basis.shape[0]))) > 1e-12:
                raise ValueError("basis is not Frobenius-orthonormal")

    @property
    def rank(self):
        return int(self.basis.shape[0])

    @property
    def matrix_dim(self):
        return int(self.basis.shape[1])

    def residuals(self, mats, reference=None):
        """Relative Frobenius distances of a stack of matrices from the span.

        The whole stack is projected by one pair of GEMMs and the row norms
        of the remainders are read off; ``contains`` is the batch of one.
        With ``reference`` set, each residual is measured against
        max(reference, |mat|) instead of |mat| alone, so that products of
        unit-norm operators that vanish numerically count as members.  A
        zero matrix has distance 0.
        """
        vecs = np.asarray(mats, dtype=complex)
        side2 = self.matrix_dim**2
        if vecs.ndim < 1 or vecs.size != len(vecs) * side2:
            raise ValueError("matrix size does not match the span")
        vecs = vecs.reshape(len(vecs), side2)
        flat = self.basis.reshape(self.rank, side2)
        # an entry that is zero in every input and every basis matrix adds
        # nothing to a norm or a projection, so only the others are kept
        cols = np.any(vecs != 0, axis=0) | np.any(flat != 0, axis=0)
        vecs, flat = vecs[:, cols], flat[:, cols]
        scale = np.linalg.norm(vecs, axis=1)
        if reference is not None:
            scale = np.maximum(scale, float(reference))
        if self.rank:
            vecs = vecs - (vecs @ flat.conj().T) @ flat
        out = np.zeros(len(vecs))
        np.divide(np.linalg.norm(vecs, axis=1), scale, out=out, where=scale > 0)
        return out

    def contains(self, mat, reference=None):
        """Relative Frobenius distance of mat from the span (0 = member).

        The batch of one of ``residuals``, which describes ``reference``.
        """
        return float(self.residuals(np.asarray(mat)[None], reference)[0])

    def contains_span(self, other):
        """Worst membership residual of other's basis in this span."""
        if other.matrix_dim != self.matrix_dim:
            raise ValueError("spans live on different spaces")
        if other.rank == 0:
            return 0.0
        return float(self.residuals(other.basis).max())


# Bound on the stack of products that check_ternary and check_left_action
# hold at once: they work through it in blocks of at most this many bytes.
_BLOCK_BYTES = 1 << 23


def _block_len(item_bytes):
    """How many items of the given size fit in one block (at least one)."""
    return max(1, _BLOCK_BYTES // max(1, item_bytes))


def _products(left, right):
    """All products left[i] @ right[j] of two matrix stacks, by one GEMM.

    Returns shape (len(left), len(right), R, R).
    """
    a, b, R = left.shape[0], right.shape[0], left.shape[-1]
    out = left.reshape(a * R, R) @ right.transpose(1, 0, 2).reshape(R, b * R)
    return out.reshape(a, R, b, R).transpose(0, 2, 1, 3)


def _extend_onb(onb, block):
    """Append to the orthonormal rows of onb the directions block adds.

    The rows of block are orthonormal, so their scale is 1.  Block CGS2
    projects them off onb and an SVD ranks what is left: a direction is
    kept when its singular value exceeds SPAN_TOL.  The kept ``vt`` rows
    carry the rounding left in span(onb) amplified by 1/sigma, so they are
    projected once more and re-orthonormalized by QR, which leaves them
    orthogonal to onb at rounding level.
    """
    if not block.shape[0]:
        return onb
    for _ in range(2):
        block = block - (block @ onb.conj().T) @ onb
    _, svals, vt = np.linalg.svd(block, full_matrices=False)
    new = vt[svals > SPAN_TOL]
    if not new.shape[0]:
        return onb
    new = new - (new @ onb.conj().T) @ onb
    new = np.linalg.qr(new.conj().T)[0].conj().T
    return np.concatenate([onb, new])


def _level_offsets(ranks):
    offs = [0]
    for r in ranks:
        offs.append(offs[-1] + r)
    return offs


def _block_creators(space):
    """Embed each basis creator as one matrix on the full graded space.

    The block from the top level has nowhere to go and is zero: creators
    annihilate the highest grade of the truncation.
    """
    ranks = space.ranks
    offs = _level_offsets(ranks)
    R = space.total_dim
    d = space.space.d
    out = []
    for i in range(d):
        big = np.zeros((R, R), dtype=complex)
        for n in range(len(ranks) - 1):
            big[offs[n + 1]:offs[n + 2], offs[n]:offs[n + 1]] = space.creator(n, i)
        out.append(big)
    return np.array(out)


def _shift_support(ranks, shift):
    """Flat mask of the blocks (n + shift, n): where a word of degree shift lives.

    A word whose signature sums to ``shift`` is supported exactly there, so
    spans of one degree are computed in these coordinates only.
    """
    offs = _level_offsets(ranks)
    R = offs[-1]
    mask = np.zeros((R, R), dtype=bool)
    for n in range(len(ranks)):
        t = n + shift
        if 0 <= t < len(ranks):
            mask[offs[t]:offs[t + 1], offs[n]:offs[n + 1]] = True
    return mask.reshape(-1)


def _graded_block_basis(ranks, degree):
    """Orthonormal basis of all block matrices raising the grade by degree.

    The matrix units of the support of that degree, in row-major order.
    """
    R = sum(ranks)
    entries = np.flatnonzero(_shift_support(ranks, degree))
    basis = np.zeros((entries.size, R * R), dtype=complex)
    basis[np.arange(entries.size), entries] = 1.0
    return basis.reshape(-1, R, R)


def _admissible_signatures(which, n):
    if which in ("mod_alt", "alg_alt"):
        want_odd = which == "mod_alt"
        if n % 2 == (0 if want_odd else 1):
            return []
        if which == "alg_alt" and n < 2:
            return []
        return [alternating_signature(n)]
    total = 1 if which.startswith("mod") else 0
    return signatures(n, total, nc=which.endswith("_nc"))


def span_build(space, which, horizon=None):
    """Span of all word operators of an admissible discipline up to a horizon.

    Letters run over the basis creators a*(e_i) and their adjoints; by
    linearity the span equals the one over arbitrary one-particle vectors.
    Default horizon is 2N+2 for truncation level N, which is enough for
    every span here to stabilize; a too-small horizon is reported through
    ``stabilized=False`` rather than an error.
    """
    if which not in SPAN_KINDS:
        raise ValueError(f"unknown span kind {which!r}; expected one of {SPAN_KINDS}")
    W = 2 * space.space.N + 2 if horizon is None else int(horizon)
    if W < 1:
        raise ValueError("horizon must be at least 1")
    ranks = space.ranks
    R = space.total_dim
    if which in ("mod_all", "alg_all"):
        basis = _graded_block_basis(ranks, 1 if which == "mod_all" else 0)
        return OperatorSpan(
            basis=basis,
            which=which,
            horizon=W,
            stabilized=True,
            rank_history=(basis.shape[0],),
        )

    ups = _block_creators(space)
    downs = ups.conj().transpose(0, 2, 1)
    cache = {(): np.eye(R, dtype=complex)[None, :, :]}
    supports = {}

    def support(shift):
        if shift not in supports:
            supports[shift] = _shift_support(ranks, shift)
        return supports[shift]

    def suffix_span(sig):
        # Span of all letter choices for the word with this signature,
        # shared across signatures through common right-hand tails.
        if sig in cache:
            return cache[sig]
        tail = suffix_span(sig[1:])
        if tail.shape[0] == 0:
            cache[sig] = tail
            return tail
        letters = ups if sig[0] > 0 else downs
        cands = _products(letters, tail).reshape(-1, R * R)
        # every candidate lives on the support of its degree, so the SVD
        # only needs those columns (a large saving when R is sizable)
        cols = support(sum(sig))
        _, svals, vt = np.linalg.svd(cands[:, cols], full_matrices=False)
        keep = svals > SPAN_TOL * (svals[0] if svals.size else 0.0)
        onb_flat = np.zeros((int(keep.sum()), R * R), dtype=complex)
        onb_flat[:, cols] = vt[keep]
        onb = onb_flat.reshape(-1, R, R)
        cache[sig] = onb
        return onb

    # each signature's suffix span joins the basis as one block, in the
    # support coordinates of the span's degree; the span sits inside that
    # block space, and once it fills it no longer word can add anything,
    # so generation stops
    cols = support(1 if which.startswith("mod") else 0)
    ambient = int(cols.sum())
    onb = np.zeros((0, ambient), dtype=complex)
    history = []
    for n in range(1, W + 1):
        for sig in _admissible_signatures(which, n):
            if onb.shape[0] < ambient:
                onb = _extend_onb(onb, suffix_span(sig).reshape(-1, R * R)[:, cols])
        history.append(onb.shape[0])
        if onb.shape[0] == ambient and n < W:
            history.extend([ambient] * (W - n))
            break
    stabilized = len(history) >= 2 and history[-1] == history[-2]
    basis = np.zeros((onb.shape[0], R * R), dtype=complex)
    basis[:, cols] = onb
    return OperatorSpan(
        basis=basis.reshape(-1, R, R),
        which=which,
        horizon=W,
        stabilized=stabilized,
        rank_history=tuple(history),
    )


def check_ternary(span):
    """Worst distance of x y* z from the span, over basis triples (x, y, z).

    A value at rounding level certifies closure under the ternary product;
    a large value exhibits a witness triple.  The triples are batched: for
    a block of pairs (x, y) the products x y* and then x y* z over every z
    come from reshaped GEMMs, and the block is projected onto the span by
    one more (``OperatorSpan.residuals``, with reference 1).  Blocks hold
    at most ``_BLOCK_BYTES`` (8 MB) of products, so the transient memory
    stays bounded however large rank**3 grows.
    """
    r, R = span.rank, span.matrix_dim
    if r == 0:
        return 0.0
    adjoints = span.basis.conj().transpose(0, 2, 1)
    step = _block_len(r * R * R * 16)
    worst = 0.0
    for lo in range(0, r * r, step):
        x, y = np.divmod(np.arange(lo, min(lo + step, r * r)), r)
        xyz = _products(np.matmul(span.basis[x], adjoints[y]), span.basis)
        worst = max(worst, float(span.residuals(xyz.reshape(-1, R, R), reference=1.0).max()))
    return worst


def _pattern(span):
    """Entries that are nonzero in some basis matrix of the span."""
    return np.any(span.basis != 0, axis=0)


def check_left_action(acting, module):
    """Invariance and nondegeneracy of ``acting @ module`` products.

    Returns a dict with the worst membership residual of a product in the
    module span (``invariant``), the rank of the product span
    (``action_rank``), and whether that rank exhausts the module
    (``nondegenerate``).  The products come from reshaped GEMMs in blocks
    of acting matrices holding at most ``_BLOCK_BYTES`` (8 MB) of them, and
    each block is projected onto the module at once.  The rank is read from
    the entries that the block patterns of the two bases allow to be
    nonzero (the other columns are exactly zero and change no singular
    value), and each block is folded into a running triangular factor by a
    QR of the factor stacked on the block, which keeps the singular values
    of all products so far: memory is one block plus |support|**2 entries,
    however many products there are.
    """
    if acting.matrix_dim != module.matrix_dim:
        raise ValueError("spans live on different spaces")
    R = module.matrix_dim
    support = (_pattern(acting).astype(float) @ _pattern(module).astype(float)).reshape(-1) > 0
    step = _block_len(module.rank * R * R * 16)
    factor = np.zeros((0, int(support.sum())), dtype=complex)
    worst = 0.0
    for lo in range(0, acting.rank, step):
        prods = _products(acting.basis[lo:lo + step], module.basis).reshape(-1, R, R)
        dists = module.residuals(prods, reference=1.0)
        if dists.size:
            worst = max(worst, float(dists.max()))
        factor = np.linalg.qr(np.vstack([factor, prods.reshape(-1, R * R)[:, support]]), mode="r")
    svals = np.linalg.svd(factor, compute_uv=False)
    action_rank = int((svals > SPAN_TOL * svals[0]).sum()) if svals.size and svals[0] > 0 else 0
    return {
        "invariant": worst,
        "action_rank": action_rank,
        "nondegenerate": action_rank == module.rank,
    }
