"""Shared dense-linear-algebra helpers: singular values, rank cuts, norms,
read-only arrays.

Their rank cuts are relative, with a strictly-greater-than tie break.  Three
rank decisions do not go through them: ``subproduct.ProjectionFamily.range_basis``
cuts at 1/2, ``subproduct._adjacent_intersection`` at RANK_TOL absolutely,
and ``opalg`` at its own SPAN_TOL.

A spectral norm (``op_norm``) is the square root of the top eigenvalue of
the smaller Gram side, A A* or A* A (``_gram_norms``), which is cheaper than
an SVD and relatively exact for the largest singular value.  Rank decisions
keep their SVDs (``singular_values``): a Gram squares the spectrum, so it
cannot resolve a relative cut at RANK_TOL = 1e-10.

A level held as sector blocks (``deformations.Parts``) is decomposed block by
block: ``batched`` runs one call per block shape, and ``singular_values``
and ``op_norm`` take a list of blocks (``op_norm`` takes one matrix as a
list of one).  The singular values of a block-diagonal matrix are those of
its blocks together, so a rank that ``kept_mask`` cuts on them is cut
against the largest singular value of all blocks, the same rule as for one
matrix.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-10


def dtype_of(*arrays) -> type:
    """complex when any of the arrays is complex, else float."""
    return complex if any(np.iscomplexobj(a) for a in arrays) else float


def op_norm(M) -> float:
    """Operator (spectral) norm, the largest singular value, taken from the
    smaller Gram side (``_gram_norms``); 0 for empty matrices.  Of a list of
    blocks, the norm of their block-diagonal matrix: the largest of theirs,
    one ``eigvalsh`` per block shape (``batched``)."""
    mats = [A for A in (M if isinstance(M, list) else [np.asarray(M)]) if A.size]
    return float(max(batched(_gram_norms, mats), default=0.0))


def _gram_norms(A: np.ndarray):
    """The spectral norm of a matrix, or of each matrix of a stack, as the
    square root of the top ``eigvalsh`` eigenvalue of its smaller Gram side,
    A A* or A* A.  Each matrix is divided by its largest absolute entry
    first, so the Gram can neither overflow nor underflow: the top
    eigenvalue of a nonzero one is then at least 1, and relatively exact to
    rounding.  A zero matrix is divided by 1 and has norm 0."""
    top = np.abs(A).max(axis=(-2, -1), keepdims=True)
    B = A / np.where(top > 0, top, 1.0)
    Bc = B.conj() if np.iscomplexobj(B) else B
    # A* A is taken transposed, as A^T conj(A): the same spectrum, a faster product
    G = B @ Bc.swapaxes(-1, -2) if B.shape[-2] <= B.shape[-1] else B.swapaxes(-1, -2) @ Bc
    return np.sqrt(np.abs(np.linalg.eigvalsh(G)[..., -1])) * top[..., 0, 0]


def stacks(*lists) -> list:
    """The items taken in step from the equally long lists, grouped by the
    shapes of their arrays: per group, (indices, arrays), the arrays of each
    list stacked, or, for an item no other shares its shapes with, the
    item's own arrays, so that one item gives the unbatched call bit for
    bit."""
    if len(lists[0]) == 1:
        return [([0], tuple(a[0] for a in lists))]
    groups = {}
    for k, item in enumerate(zip(*lists)):
        groups.setdefault(tuple(a.shape for a in item), []).append(k)
    return [(ks, tuple(a[ks[0]] if len(ks) == 1 else np.array([a[k] for k in ks]) for a in lists))
            for ks in groups.values()]


def batched(fn, *lists) -> list:
    """fn(a, b, ...) for each a, b, ... taken in step from the lists, in
    order, one call per group of ``stacks`` (fn must act on stacks as on
    each item).  A tuple result (``eigh``'s) is split per item as a tuple."""
    out = [None] * len(lists[0])
    for ks, arrays in stacks(*lists):
        res = fn(*arrays)
        if len(ks) == 1:
            out[ks[0]] = res
            continue
        for j, k in enumerate(ks):
            out[k] = tuple(r[j] for r in res) if isinstance(res, tuple) else res[j]
    return out


def totals(fn, *lists) -> np.ndarray:
    """The sums of fn over the items of the lists, one call per group of
    ``stacks``: fn returns a tuple of sums per item, or of sums over the
    items of a stack, as ``sq_norm`` gives them."""
    return np.sum([fn(*arrays) for _, arrays in stacks(*lists)], axis=0)


def singular_values(mats) -> np.ndarray:
    """The singular values of the matrices in mats together, one ``svd`` per
    shape (``batched``); a matrix with an empty side has none.  Those of a
    block-diagonal matrix are the ones of its blocks."""
    mats = [M for M in mats if M.size]
    if len(mats) == 1:
        return np.linalg.svd(mats[0], compute_uv=False)
    parts = batched(lambda a: np.linalg.svd(a, compute_uv=False), mats)
    return np.concatenate([np.zeros(0)] + [np.ravel(s) for s in parts])


def fro_norm(M) -> float:
    return float(np.linalg.norm(np.asarray(M)))


def sq_norm(M) -> float:
    """The sum of |entries|^2 of an array of any shape (a stack of matrices
    too), as ``np.linalg.norm`` sums them before its square root: so
    sqrt(sq_norm(M)) is fro_norm(M) bit for bit."""
    x = np.asarray(M).ravel(order="K")
    if np.iscomplexobj(x):
        return float(x.real.dot(x.real) + x.imag.dot(x.imag))
    return float(x.dot(x))


def _owner(M: np.ndarray):
    """The object that owns M's memory: the end of M's chain of bases."""
    while isinstance(M, np.ndarray) and M.base is not None:
        M = M.base
    return M


def frozen(M: np.ndarray) -> np.ndarray:
    """M, an array no one else holds, made read-only, together with the array
    that owns its memory, so that no view of that memory can write M."""
    M.setflags(write=False)
    owner = _owner(M)
    if isinstance(owner, np.ndarray):
        owner.setflags(write=False)
    return M


def unwritable(M: np.ndarray) -> bool:
    """Whether M and the array that owns its memory are both read-only; an
    owner that is no ndarray (a buffer, say) counts as writable."""
    owner = _owner(M)
    return not M.flags.writeable and isinstance(owner, np.ndarray) and not owner.flags.writeable


def read_only(M) -> np.ndarray:
    """M itself when it is a float64 or complex128 array that no one can
    write (``unwritable``), else a read-only copy of that dtype (complex128
    when M is complex)."""
    M = np.asarray(M)
    if M.dtype not in (np.float64, np.complex128) or not unwritable(M):
        M = frozen(np.array(M, dtype=dtype_of(M)))
    return M


def check_finite(what: str, *arrays) -> None:
    """Refuse arrays with a NaN or infinite entry, naming them by ``what``."""
    if not all(np.isfinite(M).all() for M in arrays):
        raise ValueError(f"{what} has a non-finite entry")


def kept_mask(x, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Mask of the eigenvalues or singular values x that a rank decision keeps.

    Kept are the values strictly greater than rank_tol times the largest one
    (so PSD matrices keep exactly their numerical support); an empty or
    nonpositive spectrum keeps nothing.
    """
    return x > rank_tol * float(x.max(initial=0.0))
