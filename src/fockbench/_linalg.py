"""Shared dense-linear-algebra helpers: thresholded ranks, kernels, norms.

Their rank cuts are relative, with a strictly-greater-than tie break.  Three
rank decisions do not go through them: ``subproduct.ProjectionFamily.range_basis``
cuts at 1/2, ``subproduct._adjacent_intersection`` at RANK_TOL absolutely,
and ``opalg`` at its own SPAN_TOL.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-10
HERM_HARD_TOL = 1e-8


def op_norm(M) -> float:
    """Operator (spectral) norm; 0 for empty matrices."""
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def fro_norm(M) -> float:
    return float(np.linalg.norm(np.asarray(M)))


def herm_residual(M) -> float:
    """Relative deviation of M from its Hermitian part."""
    M = np.asarray(M)
    scale = max(1.0, fro_norm(M))
    return fro_norm(M - M.conj().T) / scale


def eigen_kept(w, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Mask of the eigenvalues of a Hermitian matrix that span its support.

    Kept are the eigenvalues strictly greater than rank_tol times the largest
    one (so PSD matrices keep exactly their numerical support); an empty
    spectrum keeps nothing.
    """
    return w > rank_tol * float(w.max(initial=0.0))


def singular_kept(s, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Mask of the singular values above rank_tol times the largest one."""
    return s > rank_tol * s.max()


def matrix_rank(M, rank_tol: float = RANK_TOL) -> int:
    M = np.asarray(M)
    if M.size == 0:
        return 0
    return int(np.count_nonzero(singular_kept(np.linalg.svd(M, compute_uv=False), rank_tol)))


def kernel_onb(M, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of M."""
    M = np.asarray(M, dtype=complex)
    rows, cols = M.shape
    if M.size == 0:
        return np.eye(cols, dtype=complex)
    # the full Vh is needed only when M is wide; a full U is never read
    _, s, Vh = np.linalg.svd(M, full_matrices=rows < cols)
    r = int(np.count_nonzero(singular_kept(s, rank_tol)))
    return Vh[r:].conj().T


def range_onb(M, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical range of M."""
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return np.zeros((M.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    r = int(np.count_nonzero(singular_kept(s, rank_tol)))
    return U[:, :r]
