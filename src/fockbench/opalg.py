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

A word of degree delta is nonzero only on the blocks (n + delta, n), so a
span holds its basis in graded coordinates (``OperatorSpan.coords``): the
entries of those blocks, never a dense matrix of the whole space.  Every
product of two stacks, in the suffix step of ``span_build`` and in both
checks, is one reshaped GEMM per level block, out_n = A_{n+b} B_n
(``_times``); no Python loop runs per matrix or per triple.  A creator out
of level N and an annihilator out of level 0 vanish, so a word reaches only
the blocks whose start level keeps every level it passes through in 0..N,
one contiguous slice of its support (``_reach``).  A suffix span's SVD runs
on that slice alone, and its basis is exactly 0.0 off it.  Each
signature's suffix span joins the basis as one block (``_extend_onb``):
block CGS2, then an SVD rank cut, skipped when the projected block's
Frobenius norm, which bounds every singular value, is at most SPAN_TOL, and
a QR only where a small kept singular value lets rounding reach the basis.
First the signature's candidates are put on the complement of the basis
(``_fill``); when they certainly fill it, the complement joins the basis,
with no suffix SVD, extend or QR.  Membership (``OperatorSpan.residuals``)
projects a whole stack by one pair of GEMMs; and the checks work through
their products in blocks of at most ``_BLOCK_BYTES`` (4 MB), so their
transient memory stays bounded however many triples there are.

A suffix span depends only on its signature and the letters, not on the
kind or the horizon, so a space keeps one word table
(``InteractingSpace._words``), which the first span built on it fills and
every later kind reads.  The letters sit under +1 and -1: the basis
creators, creator i's block n the column block i of the space's
``stack(n)``, and their adjoints, each stack in the support coordinates of
its degree.  The identity sits under (), and each suffix span, once
needed, under its signature (a tuple of +-1) as an orthonormal basis.  The
arrays are read-only; a new space, also one made by
``dataclasses.replace``, starts with an empty table.

A span that fills the support of its degree (rank = support size) holds
every operator of that degree, which decides some checks before any
product: ``check_ternary`` of such a span is 0.0, and a degree 0 span that
fills its support contains the identity, so acting on a module that fills
its own support it is invariant and nondegenerate.  These are the values
the product path gives, as ``residuals`` returns exact zeros for a full
span.  The same reading of a span that fills a region skips two more
kinds of work:

* ``span_build`` skips a signature whose reach lies inside the
  coordinates that earlier suffix spans of the kind filled (a suffix span
  whose rank is the size of its reach), taking no suffix span for it.
  Coordinate subspaces add up to the subspace of their union, so the basis
  already holds every operator on those coordinates; the word is exactly
  0.0 off its reach, so its suffix span lies inside them, and the extend
  would return the basis unchanged through its SPAN_TOL norm test.
* ``check_left_action`` of a degree 0 span on a module that fills its
  support forms no product.  The module's basis is an orthonormal basis of
  its whole support, so the products on the module block (n + delta, n)
  span the row C_k = [a_1 ... a_m] of the acting level-k blocks,
  k = n + delta, times every r_k x r_n matrix: the product stack's singular
  values are C_k's, each r_n times, and one SVD per level gives the action
  rank by the same relative cut.  The module holds every product, so the
  action is invariant (0.0).

Coordinates have the space's dtype (``InteractingSpace.dtype``): a real
space, such as every q-Fock space, has real creators, and the complex span
of real operators has a real orthonormal basis, so its spans, products and
checks run in real arithmetic with the same ranks.  Complex enters with a
complex space or complex operators given to a span.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from numbers import Integral

import numpy as np

from . import _linalg
from ._linalg import dtype_of

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
    parity mismatch gives an empty list.  Only the C(n, (n - total) / 2)
    placements of the -1 entries are generated, in lexicographic order of
    their positions, which is the lexicographic order of the tuples.
    """
    n = int(n)
    if n < 1:
        raise ValueError("signature length must be at least 1")
    total = int(total)
    if abs(total) > n or (n - total) % 2 != 0:
        return []
    out = []
    for downs in combinations(range(n), (n - total) // 2):
        sig = [1] * n
        for pos in downs:
            sig[pos] = -1
        if not nc or min(accumulate(reversed(sig))) >= 0:
            out.append(tuple(sig))
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


@lru_cache(maxsize=None)
def _blocks(ranks, degree):
    """The blocks (n + degree, n) that an operator of that degree lives on.

    A tuple of (n, rows, cols, slice) by ascending n: the block's shape and
    where its row-major entries sit in the support coordinates.  That order
    is the row-major order of the same entries in the dense R x R matrix.
    Cached per (ranks, degree), like the two layouts below.
    """
    out, start = [], 0
    for n, cols in enumerate(ranks):
        if 0 <= n + degree < len(ranks):
            rows = ranks[n + degree]
            out.append((n, rows, cols, slice(start, start + rows * cols)))
            start += rows * cols
    return tuple(out)


@lru_cache(maxsize=None)
def _support_size(ranks, degree):
    return sum(rows * cols for _, rows, cols, _ in _blocks(ranks, degree))


@lru_cache(maxsize=None)
def _reach(ranks, sig):
    """The support coordinates on which a word of this signature can be nonzero.

    Applied to level n, the word passes through the levels n + p, p the
    partial sums of sig read from the right, so it vanishes unless all of
    them lie in 0..N: its reach is the blocks (n + sum(sig), n) of the start
    levels max(0, -min p) <= n <= N - max(0, max p), one contiguous slice of
    the support (possibly empty).
    """
    partial = list(accumulate(reversed(sig)))
    lo, hi = max(0, -min(partial)), len(ranks) - 1 - max(0, max(partial))
    kept = [sl for n, _, _, sl in _blocks(ranks, sum(sig)) if lo <= n <= hi]
    return slice(kept[0].start, kept[-1].stop) if kept else slice(0, 0)


def _times(left, a, right, b, ranks, pairs=False):
    """Products of two stacks of operators of degrees a and b, one GEMM per level block.

    Both stacks are in support coordinates.  The product has degree a + b;
    its block (n + a + b, n) is left's block (n + a + b, n + b) times
    right's block (n + b, n), and zero where the middle level n + b lies
    outside the truncation.  Returns every product left[i] right[j], shape
    (p, q, s), or with ``pairs`` the products left[i] right[i], shape (p, s).
    """
    lhs = {n: sl for n, _, _, sl in _blocks(ranks, a)}
    rhs = {n: (mid, sl) for n, mid, _, sl in _blocks(ranks, b)}
    p, q, size = len(left), len(right), _support_size(ranks, a + b)
    out = np.zeros((p, size) if pairs else (p, q, size), dtype=np.result_type(left, right))
    for n, rows, cols, sl in _blocks(ranks, a + b):
        if n not in rhs:
            continue
        mid, rsl = rhs[n]
        x = left[:, lhs[n + b]].reshape(p, rows, mid)
        y = right[:, rsl].reshape(q, mid, cols)
        if pairs:
            out[:, sl] = np.matmul(x, y).reshape(p, rows * cols)
        else:
            prod = x.reshape(p * rows, mid) @ y.transpose(1, 0, 2).reshape(mid, q * cols)
            out[:, :, sl].reshape(p, q, rows, cols)[...] = prod.reshape(p, rows, q, cols).transpose(0, 2, 1, 3)
    return out


def _adjoint(coords, ranks, degree):
    """Adjoints of a stack of operators of the given degree, in the coordinates of -degree.

    The block (n + degree, n) becomes (n, n + degree); both supports list
    these blocks by ascending n, so each keeps its place and is transposed.
    """
    out = np.empty_like(coords)
    k = len(coords)
    for _, rows, cols, sl in _blocks(ranks, degree):
        out[:, sl] = coords[:, sl].reshape(k, rows, cols).conj().transpose(0, 2, 1).reshape(k, rows * cols)
    return out


class OperatorSpan:
    """Frobenius-orthonormal basis of a span of operators of one degree.

    The graded space has level ranks ``ranks``; every basis operator raises
    the grade by ``degree``, so it lives on the blocks (n + degree, n).
    ``coords`` (rank, s) holds the basis on that support: the blocks by
    ascending n, each row-major.  Coordinates given are held read-only as
    float64, or complex128 when complex: as given when neither they nor the
    array owning their memory can be written, else as a copy
    (``_linalg.read_only``); a NaN or infinite entry is refused.
    rank_history[k] is the accumulated rank after words of length <= k+1,
    and stabilized records whether the final length increment changed it.
    """

    def __init__(self, *, coords, ranks, degree=0, which="custom", horizon=0, stabilized=True, rank_history=()):
        coords, ranks, degree = _linalg.read_only(coords), tuple(int(r) for r in ranks), int(degree)
        if coords.ndim != 2 or coords.shape[1] != _support_size(ranks, degree):
            raise ValueError("coordinates do not fit the block support of the degree")
        _linalg.check_finite("the span's coordinates", coords)
        if coords.shape[0]:
            gram = coords @ coords.conj().T
            if np.max(np.abs(gram - np.eye(coords.shape[0]))) > 1e-12:
                raise ValueError("basis is not Frobenius-orthonormal")
        self.coords, self.ranks, self.degree = coords, ranks, degree
        self.which, self.horizon = which, horizon
        self.stabilized, self.rank_history = stabilized, tuple(rank_history)

    @property
    def rank(self):
        return int(self.coords.shape[0])

    def residuals(self, vecs, reference=None, degree=None):
        """Relative Frobenius distances of a stack of operators from the span.

        ``vecs`` (k, s) holds operators of one degree (the span's own by
        default) on the span's level ranks, in the support coordinates of
        that degree.  The whole stack is projected by one pair of GEMMs; an
        operator of another degree than the span's is orthogonal to it, so
        nothing is projected off.  A span with as many basis operators as its
        support has coordinates is the whole support (the basis is
        orthonormal), so every operator of its degree is a member, at
        distance exactly 0, and nothing is projected.  With ``reference``
        set, each residual is measured against max(reference, |v|) instead
        of |v| alone, so that products of unit-norm operators that vanish
        numerically count as members.  A zero operator has distance 0.
        """
        degree = self.degree if degree is None else int(degree)
        vecs = np.asarray(vecs, dtype=dtype_of(vecs))
        if vecs.ndim != 2 or vecs.shape[1] != _support_size(self.ranks, degree):
            raise ValueError("operator size does not match the span")
        if degree == self.degree and self.rank == vecs.shape[1]:
            return np.zeros(len(vecs))
        scale = np.linalg.norm(vecs, axis=1)
        if reference is not None:
            scale = np.maximum(scale, float(reference))
        if self.rank and degree == self.degree:
            rem = (vecs @ self.coords.conj().T) @ self.coords
            vecs = np.subtract(vecs, rem, out=rem)
        out = np.zeros(len(vecs))
        np.divide(np.linalg.norm(vecs, axis=1), scale, out=out, where=scale > 0)
        return out

    def contains(self, mat, reference=None):
        """Relative Frobenius distance of a dense R x R matrix from the span (0 = member).

        R is the sum of the ranks.  The matrix's blocks (n + degree, n) are
        read as coordinates and every entry off them counts as distance;
        ``residuals`` describes ``reference``.
        """
        mat = np.array(mat, dtype=dtype_of(mat))  # a copy: the blocks are cut out of it
        at = np.cumsum((0, *self.ranks))
        if mat.size != at[-1] ** 2:
            raise ValueError("matrix size does not match the span")
        mat = mat.reshape(at[-1], at[-1])
        scale = np.linalg.norm(mat) if reference is None else max(np.linalg.norm(mat), float(reference))
        if scale == 0:
            return 0.0
        on = np.zeros((1, _support_size(self.ranks, self.degree)), dtype=mat.dtype)
        for n, _, _, sl in _blocks(self.ranks, self.degree):
            block = mat[at[n + self.degree]:at[n + self.degree + 1], at[n]:at[n + 1]]
            on[0, sl] = block.reshape(-1)
            block[...] = 0
        inside = self.residuals(on, reference=scale)[0] * scale
        return float(np.hypot(inside, np.linalg.norm(mat)) / scale)

    def contains_span(self, other):
        """Worst membership residual of other's basis in this span."""
        if other.ranks != self.ranks:
            raise ValueError("spans live on different spaces")
        if other.rank == 0:
            return 0.0
        return float(self.residuals(other.coords, degree=other.degree).max())


# Bound on the stack of products that check_ternary and check_left_action
# hold at once: they work through it in blocks of at most this many bytes.
_BLOCK_BYTES = 1 << 22


def _block_len(item_bytes):
    """How many items of the given size fit in one block (at least one)."""
    return max(1, _BLOCK_BYTES // max(1, item_bytes))


_NO_QR_TOL = 1e-13  # a tenth of OperatorSpan's 1e-12 orthonormality contract


def _extend_onb(onb, block):
    """Append to the orthonormal rows of onb the directions block adds.

    The rows of block are orthonormal, so their scale is 1, and an empty onb
    takes them as they are.  Block CGS2 projects them off onb and an SVD
    ranks what is left: a direction is kept when its singular value exceeds
    SPAN_TOL.  What is left with a Frobenius norm of at most SPAN_TOL has no
    such direction, so onb itself is returned without an SVD.  CGS2 leaves
    about eps |block| in span(onb), which reaches a kept ``vt`` row amplified
    by 1/sigma: the rows are kept as they are while eps |block| / sigma_min
    is at most _NO_QR_TOL, else projected once more and made orthonormal by QR.
    """
    if not len(onb):
        return block
    for _ in range(2):
        block = block - (block @ onb.conj().T) @ onb
    if np.linalg.norm(block) <= SPAN_TOL:
        return onb
    _, svals, vt = np.linalg.svd(block, full_matrices=False)
    new = vt[svals > SPAN_TOL]
    if not new.shape[0]:
        return onb
    if np.finfo(onb.dtype).eps * np.sqrt(len(block)) > _NO_QR_TOL * svals[len(new) - 1]:
        new = new - (new @ onb.conj().T) @ onb
        new = np.linalg.qr(new.conj().T)[0].conj().T
    return np.concatenate([onb, new])


def _fill(onb, cands, reach, comp):
    """The complement C of onb's rows, and whether cands certainly fill it.

    comp is the complement last returned, which is C when it has c = s -
    rank(onb) rows (a build's basis only grows); else C is the last c columns
    of a complete QR of onb*.  The suffix span B of cands (zero off reach)
    keeps their directions above SPAN_TOL sigma_0, so by Weyl's inequality
    sigma_c(B C*) >= sigma_c(cands C*) / sigma_0 - SPAN_TOL > SPAN_TOL once
    sigma_c(cands C*) > 2 SPAN_TOL |cands|_F: the extend by B would keep all c
    directions.  That takes c candidates and c reach columns.
    """
    c = onb.shape[1] - len(onb)
    if min(len(cands), reach.stop - reach.start) < c:
        return comp, False
    if len(comp) != c:
        comp = np.linalg.qr(onb.conj().T, mode="complete")[0][:, len(onb):].conj().T
    prods, tol = cands @ comp[:, reach].conj().T, 2 * SPAN_TOL * np.linalg.norm(cands)
    if np.linalg.norm(prods) <= tol * np.sqrt(c):  # sigma_c <= |prods|_F / sqrt(c)
        return comp, False
    return comp, np.linalg.svd(prods, compute_uv=False)[c - 1] > tol


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
    ``stabilized=False`` rather than an error; the horizon must be an
    integer (NumPy's too), not a bool.  Suffix spans are read from the
    space's word table, and those it lacks are computed and added.  A
    signature whose reach lies inside the coordinates the kind's suffix
    spans have filled so far, or is empty, can add nothing, so it takes no
    suffix span and no extend; one whose candidates certify a fill
    (``_fill``) adds the complement of the basis instead.
    """
    if which not in SPAN_KINDS:
        raise ValueError(f"unknown span kind {which!r}; expected one of {SPAN_KINDS}")
    if horizon is not None and (isinstance(horizon, bool) or not isinstance(horizon, Integral)):
        raise ValueError(f"horizon must be an integer, got {horizon!r}")
    W = 2 * space.space.N + 2 if horizon is None else int(horizon)
    if W < 1:
        raise ValueError("horizon must be at least 1")
    ranks, dtype = tuple(space.ranks), space.dtype
    degree = 1 if which.startswith("mod") else 0
    ambient = _support_size(ranks, degree)
    if which in ("mod_all", "alg_all"):
        return OperatorSpan(coords=_linalg.frozen(np.eye(ambient, dtype=dtype)), ranks=ranks, degree=degree,
                            which=which, horizon=W, stabilized=True, rank_history=(ambient,))

    words = space._words  # the space's word table, shared by every kind and horizon
    if not words:
        d = space.space.d
        ups = np.concatenate([space.stack(n).reshape(ranks[n + 1], d, ranks[n]).transpose(1, 0, 2).reshape(d, -1)
                              for n in range(len(ranks) - 1)], axis=1)
        identity = np.concatenate([np.eye(r, dtype=dtype).reshape(-1) for r in ranks])[None]
        words.update({1: ups, -1: _adjoint(ups, ranks, 1), (): identity})
        for entry in words.values():
            _linalg.frozen(entry)

    def candidates(sig, reach):
        # the signature's letters times its tail's suffix span, on its reach
        letters, tail = words[sig[0]], suffix_span(sig[1:])
        if not tail.shape[0] or reach.stop == reach.start:
            return np.zeros((0, reach.stop - reach.start), dtype=dtype)
        return _times(letters, sig[0], tail, sum(sig[1:]), ranks)[..., reach].reshape(len(letters) * len(tail), -1)

    def suffix_span(sig, cands=None):
        # Span of all letter choices for the word with this signature,
        # shared across signatures through common right-hand tails.
        if sig not in words:
            # the SVD runs on the signature's reach only; off it every
            # candidate is exactly 0.0, and so is every kept row
            reach = _reach(ranks, sig)
            kept = candidates(sig, reach) if cands is None else cands
            if len(kept):
                _, svals, vt = np.linalg.svd(kept, full_matrices=False)
                kept = vt[svals > SPAN_TOL * svals[0]]
            onb = np.zeros((len(kept), _support_size(ranks, sum(sig))), dtype=kept.dtype)
            onb[:, reach] = kept
            onb.setflags(write=False)
            words[sig] = onb
        return words[sig]

    # each signature's suffix span, or the complement it fills, joins the
    # basis as one block; the span sits inside the support of its degree, and
    # once it fills it no longer word can add anything, so generation stops.  A suffix span that fills
    # its reach puts every operator on those coordinates into the basis, so
    # a later signature whose reach lies inside them adds nothing and is
    # skipped (an empty reach lies inside any)
    onb = comp = np.zeros((0, ambient), dtype=dtype)
    covered = np.zeros(ambient, dtype=bool)
    history = []
    for n in range(1, W + 1):
        for sig in _admissible_signatures(which, n):
            reach = _reach(ranks, sig)
            if onb.shape[0] < ambient and not covered[reach].all():
                cands = words[sig][:, reach] if sig in words else candidates(sig, reach)
                comp, fills = _fill(onb, cands, reach, comp)
                block = comp if fills else suffix_span(sig, cands)
                onb = np.concatenate([onb, block]) if fills else _extend_onb(onb, block)
                if len(block) == reach.stop - reach.start:
                    covered[reach] = True
        history.append(onb.shape[0])
        if onb.shape[0] == ambient and n < W:
            history.extend([ambient] * (W - n))
            break
    stabilized = len(history) >= 2 and history[-1] == history[-2]
    return OperatorSpan(coords=_linalg.frozen(onb), ranks=ranks, degree=degree, which=which, horizon=W,
                        stabilized=stabilized, rank_history=tuple(history))


def check_ternary(span):
    """Worst distance of x y* z from the span, over basis triples (x, y, z).

    A value at rounding level certifies closure under the ternary product;
    a large value exhibits a witness triple.  The triples are batched: for
    a block of pairs (x, y) the products x y* and then x y* z over every z
    come from one GEMM per level block (``_times``), and the block is
    projected onto the span by one more (``OperatorSpan.residuals``, with
    reference 1).  x y* z has the span's degree, so all of it stays in the
    span's support coordinates.  Blocks hold at most ``_BLOCK_BYTES`` of
    products, so the transient memory stays bounded however large rank**3
    grows.  A span that fills the support of its degree contains every
    x y* z, which has that degree, so it returns 0.0, the value the
    products would give, without forming any.
    """
    r, ranks, a = span.rank, span.ranks, span.degree
    if r == 0 or r == span.coords.shape[1]:
        return 0.0
    adjoints = _adjoint(span.coords, ranks, a)
    size = span.coords.shape[1]
    step = _block_len(r * size * span.coords.itemsize)
    worst = 0.0
    for lo in range(0, r * r, step):
        x, y = np.divmod(np.arange(lo, min(lo + step, r * r)), r)
        xy = _times(span.coords[x], a, adjoints[y], -a, ranks, pairs=True)
        xyz = _times(xy, 0, span.coords, a, ranks).reshape(-1, size)
        worst = max(worst, float(span.residuals(xyz, reference=1.0).max()))
    return worst


def check_left_action(acting, module):
    """Invariance and nondegeneracy of ``acting @ module`` products.

    Returns a dict with ``invariant``, the relative Frobenius norm of the part
    of the whole product stack that the module span does not hold,
    (sum over pairs |a m - P(a m)|^2 / sum over pairs |a m|^2)^(1/2) over the
    orthonormal bases {a} of ``acting`` and {m} of ``module`` (P the
    projection onto the module span), the rank of the product span
    (``action_rank``), and whether that rank exhausts the module
    (``nondegenerate``).  A change of either orthonormal basis is a unitary
    on the pairs, so ``invariant`` depends on the two spans only: it is
    0.0 for a module that fills its support and at rounding level for an
    invariant action.  Spans on different level ranks are refused.  A
    product has degree acting.degree + module.degree and is held in the
    support coordinates of that degree.
    The products come from one GEMM per level block (``_times``) in blocks
    of acting operators holding at most ``_BLOCK_BYTES`` of them, and each
    block is projected onto the module at once.  All blocks but the last
    are folded into a running triangular factor by a QR of the factor
    stacked on the block, which keeps the singular values of all products
    so far; the last one is stacked on it for the SVD.  Memory is one block
    plus a square of the support size, however many products there are.

    When the acting span has degree 0 and fills its support and the module
    fills its own, the answer needs no product: the acting span contains
    the identity, so the products span the module's whole support, and the
    module holds every product.  That case returns
    invariant 0.0, action rank = module rank, nondegenerate.  A degree 0
    acting span that does not fill its support, acting on a module that
    fills its own, needs no product either: the module holds every
    product (invariant 0.0), and the action rank is the sum over the
    module's blocks (n + delta, n) of r_n times the number of singular
    values of C_k = [a_1 ... a_m], the row of the acting basis's level
    k = n + delta blocks, above SPAN_TOL times the largest of them over
    those levels, which is the product stack's rank by the same cut.
    """
    if acting.ranks != module.ranks:
        raise ValueError("spans live on different spaces")
    full_module = module.rank == module.coords.shape[1]
    if acting.degree == 0 and acting.rank == acting.coords.shape[1] and full_module:
        return {"invariant": 0.0, "action_rank": module.rank, "nondegenerate": True}
    ranks, degree = module.ranks, acting.degree + module.degree
    if acting.degree == 0 and full_module:
        # the products on block (n + degree, n) are the row C_k = [a_1 ... a_m]
        # of the acting level-k blocks, k = n + degree, times every r_k x r_n
        # matrix: C_k's singular values, each r_n times
        levels = {n: sl for n, _, _, sl in _blocks(ranks, 0)}
        svals = []
        for n, rows, cols, _ in _blocks(ranks, degree):
            row = acting.coords[:, levels[n + degree]].reshape(acting.rank, rows, rows).transpose(1, 0, 2)
            svals.append((cols, np.linalg.svd(row.reshape(rows, acting.rank * rows), compute_uv=False)))
        top = max((s.max(initial=0.0) for _, s in svals), default=0.0)
        action_rank = sum(cols * int((s > SPAN_TOL * top).sum()) for cols, s in svals) if top > 0 else 0
        return {"invariant": 0.0, "action_rank": action_rank, "nondegenerate": action_rank == module.rank}
    size, dtype = _support_size(ranks, degree), np.result_type(acting.coords, module.coords)
    step = _block_len(module.rank * size * dtype.itemsize)
    factor, svals = np.zeros((0, size), dtype=dtype), np.zeros(0)
    off = whole = 0.0
    for lo in range(0, acting.rank, step):
        block = acting.coords[lo:lo + step]
        prods = _times(block, acting.degree, module.coords, module.degree, ranks)
        prods = np.vstack([factor, prods.reshape(len(block) * module.rank, size)])
        # |v - P v| of each product, from its relative distance |v - P v| / |v|
        norms = np.linalg.norm(prods[len(factor):], axis=1)
        off += float(np.sum((module.residuals(prods[len(factor):], degree=degree) * norms) ** 2))
        whole += float(np.sum(norms**2))
        if lo + step < acting.rank:
            factor = np.linalg.qr(prods, mode="r")
        else:
            svals = np.linalg.svd(prods, compute_uv=False)
    action_rank = int((svals > SPAN_TOL * svals[0]).sum()) if svals.size and svals[0] > 0 else 0
    return {
        "invariant": float(np.sqrt(off / whole)) if whole > 0 else 0.0,
        "action_rank": action_rank,
        "nondegenerate": action_rank == module.rank,
    }
