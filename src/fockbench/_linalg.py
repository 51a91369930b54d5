"""Shared dense-linear-algebra helpers: singular values, rank cuts, norms.

Their rank cuts are relative, with a strictly-greater-than tie break.  Three
rank decisions do not go through them: ``subproduct.ProjectionFamily.range_basis``
cuts at 1/2, ``subproduct._adjacent_intersection`` at RANK_TOL absolutely,
and ``opalg`` at its own SPAN_TOL.

``op_norm`` and ``singular_values`` also take sector labels of the rows and
the columns.  Labelled, the matrix is read as block diagonal: it may be
nonzero only where a row and a column carry the same label, and each such
block is decomposed on its own, blocks of equal shape in one batched call.
The singular values of a block-diagonal matrix are those of its blocks
together, so the norm is the largest block norm, and a rank that
``kept_mask`` cuts on them is cut against the largest singular value of all
blocks, the same rule as unlabelled.  The labels are the occupation-type
sectors of a level whose spectrum certified them
(``DeformationFamily.sectors``): no routine here looks for zeros.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-10
HERM_HARD_TOL = 1e-8


def dtype_of(*arrays) -> type:
    """complex when any of the arrays is complex, else float."""
    return complex if any(np.iscomplexobj(a) for a in arrays) else float


def op_norm(M, rows=None, cols=None) -> float:
    """Operator (spectral) norm; 0 for empty matrices.  With sector labels of
    the rows and the columns, the largest norm of the labelled blocks."""
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    if rows is None:
        return float(np.linalg.norm(M, 2))
    return float(singular_values(M, rows, cols).max(initial=0.0))


def singular_values(M, rows=None, cols=None) -> np.ndarray:
    """Singular values of M, none for an empty M.  With sector labels, those
    of the blocks M[rows == t][:, cols == t] together, one batched ``svd``
    per block shape (the labelled matrix's other singular values are 0); a
    label missing on either side has no block."""
    M = np.asarray(M)
    if M.size == 0:
        return np.zeros(0)
    if rows is None:
        return np.linalg.svd(M, compute_uv=False)
    blocks = (M[r[:, :, None], c[:, None, :]] for r, c in label_blocks(rows, cols) if r.shape[1] and c.shape[1])
    return np.concatenate([np.zeros(0)] + [np.linalg.svd(b, compute_uv=False).ravel() for b in blocks])


def label_blocks(rows, cols):
    """Index arrays of the blocks M[rows == t][:, cols == t], grouped by block
    shape (ascending): for each shape (p, q), the (m, p) row indices and the
    (m, q) column indices of its m labels, each ascending.  A label on
    neither side is skipped; one on one side only has a block with an empty
    side."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    top = max(rows.max(initial=-1), cols.max(initial=-1)) + 1
    a, b = np.bincount(rows, minlength=top), np.bincount(cols, minlength=top)
    row_order, col_order = np.argsort(rows, kind="stable"), np.argsort(cols, kind="stable")
    row_start, col_start = np.cumsum(a) - a, np.cumsum(b) - b
    out = []
    for shape in sorted(set(zip(a.tolist(), b.tolist()))):
        if shape == (0, 0):
            continue
        pick = (a == shape[0]) & (b == shape[1])
        r = row_order[row_start[pick][:, None] + np.arange(shape[0])]
        c = col_order[col_start[pick][:, None] + np.arange(shape[1])]
        out.append((r, c))
    return out


def fro_norm(M) -> float:
    return float(np.linalg.norm(np.asarray(M)))


def herm_residual(M) -> float:
    """Relative deviation of M from its Hermitian part."""
    M = np.asarray(M)
    scale = max(1.0, fro_norm(M))
    return fro_norm(M - M.conj().T) / scale


def kept_mask(x, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Mask of the eigenvalues or singular values x that a rank decision keeps.

    Kept are the values strictly greater than rank_tol times the largest one
    (so PSD matrices keep exactly their numerical support); an empty or
    nonpositive spectrum keeps nothing.
    """
    return x > rank_tol * float(x.max(initial=0.0))
