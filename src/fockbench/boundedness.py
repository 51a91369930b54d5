"""Per-level creator norms, the creator-map bracket, and growth demos.

For a built space, the creator of x restricted to level n has norm
||a*(x)||_n = ||lambda_{n+1} (x (x) id) pinv(lambda_n)||, the norm of the
quotient creator.  By definition that is also the smallest constant
M_x(n) with l(x) L_{n+1} l*(x) <= M_x(n)^2 L_n, so the bounds are read from
the built creators alone: neither the family's matrices nor its spectrum
is touched, and the kernel condition was decided once, when the space was
built.
The creator map M(n) = sup over unit x of ||a*(x)||_n is the spectral norm of
the 3-tensor of level-n creators, so it is reported as a certified bracket:
an attained lower bound from alternating power iteration and an upper bound
from the three flattenings of the tensor.  It is "exact" when every
bracket closes to CREATOR_MAP_CLOSED relative width.
The three demos reproduce the growth phenomena that separate bounded L,
bounded creators, and bounded squeezings; ``rescale_functional`` carries out
the geometric rescaling that tames any entrywise-bounded pairing functional
to a third of the rescaled norm, and reports the functional's exact rescaled
norm next to the certified bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .deformations import DeformationFamily
from .interacting import InteractingSpace, Squeezing, build, squeezing_of
from .tensor_core import TruncatedFockSpace, kron_id

__all__ = [
    "BoundsReport",
    "FunctionalRescaling",
    "level_constants",
    "creator_map_constant",
    "pair_collapse_squeezing",
    "pair_collapse_family",
    "demo_bounded_L_unbounded_creators",
    "demo_bounded_creators_unbounded_L",
    "demo_unbounded_squeezing",
    "rescale_functional",
]

CREATOR_MAP_CLOSED = 1e-12  # relative width under which a creator-map bracket counts as closed
_MAX_SWEEPS = 1000  # power-iteration sweeps per creator-map bracket
CREATOR_MAP_STARTS = 64  # seeded random starts per creator-map bracket, besides the basis vectors
CREATOR_MAP_SEED = 0
SQUEEZING_CHECK_DIM = 8  # largest dimension at which demo_unbounded_squeezing builds the space densely
RESCALED_NORM_SLACK = 1e-12  # relative rounding allowed over the certified bound, which F = ones attains


@dataclass(frozen=True)
class BoundsReport:
    """Per-level norm data for one probe vector x on one built space.

    creator_norms[n] = ||a*(x)||_n is also the minimal level constant M_x(n);
    the creator-map fields are empty when the bracket was not asked for.
    """

    x: np.ndarray
    creator_norms: tuple  # ||a*(x)||_n = M_x(n) for n = 0..N-1
    creator_map: tuple  # lower bounds of M(n) = sup over unit x
    creator_map_upper: tuple  # upper bounds of M(n)
    creator_map_exact: bool  # every bracket closed to CREATOR_MAP_CLOSED
    growth: str

    def to_dict(self) -> dict:
        return {
            "creator_norms": list(self.creator_norms),
            "creator_map": list(self.creator_map),
            "creator_map_upper": list(self.creator_map_upper),
            "creator_map_exact": self.creator_map_exact,
            "growth": self.growth,
        }


def _growth_label(seq) -> str:
    vals = [v for v in seq if v > 0]
    if len(vals) < 2:
        return "bounded"
    ratio = vals[-1] / vals[-2]
    if ratio <= 1 + 1e-3:
        return "bounded"
    rate = np.exp(np.mean(np.diff(np.log(vals))))
    return f"growing (~x{rate:.3g} per level)"


def level_constants(space: InteractingSpace, x, with_creator_map: bool = True) -> BoundsReport:
    """Per-level creator norms ||a*(x)||_n for the probe x, read from the creators.

    ||a*(x)||_n is the smallest M_x(n) with l(x) L_{n+1} l*(x) <= M_x(n)^2 L_n,
    so it is the minimal level constant; the family is not read.

    Where the space has sectors at both levels n and n+1, the norm is read
    as ||a*(|x|)||_n: a_n(i) maps sector k to k + e_i, so with the gauge
    phases D_n = diag(exp(i <arg x, k>)) over the sectors k of level n,
    a*(x) = D_{n+1} a*(|x|) D_n* on level n, and the unitaries D leave the
    norm alone.  On a real space a complex probe thus runs in real
    arithmetic.  A transition into or out of a level without sectors takes
    x as it is: complex creators for a complex x.
    """
    x = np.asarray(x, dtype=_linalg.dtype_of(x)).reshape(-1)
    d, N = space.space.d, space.space.N
    if x.shape != (d,):
        raise ValueError(f"probe vector has length {x.size}, want {d}")
    gauged, norms = np.abs(x), []
    for n in range(N):
        torus = space.sectors[n] is not None and space.sectors[n + 1] is not None
        norms.append(_linalg.op_norm(space.creator_x(n, gauged if torus else x)))
    brackets = [creator_map_constant(space, n) for n in range(N)] if with_creator_map else []
    return BoundsReport(
        x=x,
        creator_norms=tuple(norms),
        creator_map=tuple(lo for lo, _ in brackets),
        creator_map_upper=tuple(hi for _, hi in brackets),
        creator_map_exact=all(hi - lo <= CREATOR_MAP_CLOSED * max(1.0, hi) for lo, hi in brackets),
        growth=_growth_label(norms),
    )


def creator_map_constant(space: InteractingSpace, n: int):
    """Certified bracket (lower, upper) of M(n) = sup over unit x of ||a*(x)||_n.

    M(n) is the spectral norm of the 3-tensor of the creators A_i = a_n(i),
    read from the stack [a_n(0) ... a_n(d-1)] (``InteractingSpace.stack``),
    NP-hard to compute in general (Hillar-Lim 2013), so it is bracketed.

    lower: alternating power iteration, all starts at once: the d basis
    vectors and CREATOR_MAP_STARTS random unit vectors seeded by
    CREATOR_MAP_SEED, complex on a real space too, since M(n) is a sup over
    complex x.  Each sweep takes the top singular pair (u, v) of
    A(x) = sum x_i A_i and moves x to conj(u* A_i v) / ||.||, which never
    lowers ||A(x)||; a start whose gradient is exactly zero keeps its x.
    Sweeps stop once no start gains more than rounding (or the bracket has
    closed), after at most _MAX_SWEEPS.  The value is ||A(x)|| at a unit x,
    so it is attained.

    upper: the smallest spectral norm of the three flattenings of (A_i),
    m x dk, dm x k and d x mk, each of which dominates every ||A(x)||.  The
    m x dk one is the stack [a_n(0) ... a_n(d-1)], whose norm is the
    space's ``kappa_norms[n]``, taken from transition n alone.  Where
    rounding puts the upper bound below the attained lower bound, it is
    raised to it.

    ``level_constants`` counts the bracket as closed, and M(n) as known, when
    upper - lower <= CREATOR_MAP_CLOSED * max(1, upper) (``creator_map_exact``).
    """
    stack = space.stack(n)  # refuses a transition outside 0..N-1
    d, m, k = space.space.d, space.ranks[n + 1], space.ranks[n]
    if m == 0 or k == 0:
        return 0.0, 0.0
    A = np.ascontiguousarray(stack.reshape(m, d, k).transpose(1, 0, 2))  # (d, m, k)
    upper = min(space._kappa_norm(n), _linalg.op_norm(A.reshape(d * m, k)), _linalg.op_norm(A.reshape(d, m * k)))
    rng = np.random.default_rng(CREATOR_MAP_SEED)
    starts = (CREATOR_MAP_STARTS, d)
    X = np.vstack([np.eye(d), rng.standard_normal(starts) + 1j * rng.standard_normal(starts)])
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    rounding = 8 * np.finfo(float).eps * max(1.0, upper)
    lower, last = 0.0, np.full(len(X), -np.inf)
    for _ in range(_MAX_SWEEPS):
        U, S, Vh = np.linalg.svd(np.einsum("si,imk->smk", X, A), full_matrices=False)
        lower = max(lower, float(S[:, 0].max()))
        live = S[:, 0] - last > rounding
        if not live.any() or upper - lower <= rounding:
            break
        X, last = X[live], S[live, 0]
        G = np.einsum("sm,imk,sk->si", U[live, :, 0].conj(), A, Vh[live, 0, :].conj()).conj()
        g = np.linalg.norm(G, axis=1)
        X[g > 0] = G[g > 0] / g[g > 0, None]
    # the flattening norms round too: an attained value bounds M(n) from below
    return lower, max(upper, lower)


# ---------------------------------------------------------------------------
# growth demos


def pair_collapse_squeezing(d: int, omega=None, levels: int = 2) -> Squeezing:
    """The squeezing that sends every matched pair e_n (x) e_n to one unit vector.

    kappa_2 = omega u^T with u = sum_n e_n (x) e_n (conjugation fixed to the
    standard basis, so the pairing is the plain transpose); the optional third
    level routes through the omega line so the space extends past two levels.
    """
    u = np.eye(d).reshape(-1)
    if omega is None:
        omega = u / np.sqrt(d)
    omega = np.asarray(omega, dtype=_linalg.dtype_of(omega)).reshape(-1)
    if omega.shape != (d * d,) or abs(np.linalg.norm(omega) - 1.0) > 1e-12:
        raise ValueError("omega must be a unit vector at level 2")
    kappas = [np.eye(d), np.outer(omega, u)]
    if levels == 3:
        kappas.append(kron_id(np.outer(omega, omega.conj()), np.eye(d**3), d, op_first=True))
    elif levels != 2:
        raise ValueError("levels must be 2 or 3")
    return Squeezing(TruncatedFockSpace(d=d, N=levels), tuple(kappas))


def pair_collapse_family(d: int) -> DeformationFamily:
    """Two-level family with L_2 = u u^T of rank one; the creator map is an isometry."""
    u = np.eye(d).reshape(-1, 1)
    return DeformationFamily(TruncatedFockSpace(d=d, N=2), (np.eye(1), np.eye(d), u @ u.T))


def demo_bounded_L_unbounded_creators(grids=(4, 8, 40, 100, 400)):
    """Multiplication-by-t deformation on m grid cells: L stays below 1, the
    creator norm on the first-cell indicator grows like sqrt(2m).

    Cell functions are represented by their values scaled by 1/sqrt(m) so the
    coordinates carry the L2[0,1] inner product; L_1 = diag of cell midpoints,
    L_2 = id.  Returns one row per grid size.
    """
    if not grids:
        raise ValueError("need at least one grid size")
    rows = []
    for m in grids:
        if m < 2:
            raise ValueError("need at least two cells")
        mid = (np.arange(m) + 0.5) / m
        x = np.ones(m) / np.sqrt(m)  # the constant function
        # y = indicator of the first cell, coordinates e_0/sqrt(m)
        y_mass = mid[0] / m  # <y, L_1 y>
        created = np.linalg.norm(x) ** 2 / m  # ||x (x) y||^2 under L_2 = id
        rows.append(
            {
                "m": int(m),
                "ratio": float(np.sqrt(created / y_mass)),
                "L_max_eig": float(max(mid.max(), 1.0)),
            }
        )
    return rows


def demo_bounded_creators_unbounded_L(K: int, n_probes: int = 20, seed: int = 7) -> dict:
    """Block family H = (+)_{n<=K} C^n with L_2 = (+)_n n p_n for the maximally
    entangled rank-one p_n: ||L_2|| = K grows freely while every compression
    (x (x) id)* L_2 (x (x) id) stays below ||x||^2.

    The compression is block diagonal with rank-one blocks conj(x_n) conj(x_n)*,
    so its top eigenvalue is max_n ||x_n||^2 — computed blockwise, no dense L_2.
    """
    if K < 2:
        raise ValueError("need at least two blocks")
    if n_probes < 0:
        raise ValueError(f"probe count must be nonnegative, got {n_probes}")
    dims = np.arange(1, K + 1)
    starts = np.cumsum(dims) - dims
    D = int(dims.sum())
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_probes, 2, D))  # per probe, the real then the imaginary parts
    probes = np.zeros((n_probes + K, D), dtype=complex)
    probes[:n_probes] = z[:, 0] + 1j * z[:, 1]
    # single-block probes realize the bound exactly
    for k, (n, off) in enumerate(zip(dims, starts)):
        probes[n_probes + k, off : off + n] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    mass = np.add.reduceat(np.abs(probes) ** 2, starts, axis=1)  # ||x_n||^2 of every block of every probe
    ratios = (mass.max(axis=1) / mass.sum(axis=1)).tolist()
    return {
        "K": int(K),
        "L2_norm": float(K),
        "probe_ratios": ratios,
        "max_ratio": max(ratios),
        "ok": max(ratios) <= 1 + 1e-10,
    }


def demo_unbounded_squeezing(N: int) -> dict:
    """Rayleigh quotients ||kappa_2 v_n|| / ||v_n|| for v_n = sum e_k (x) e_k / k.

    The quotient equals (sum 1/k) / sqrt(sum 1/k^2): harmonic growth on a
    convergent denominator, so the squeezing is unbounded while the creator
    map stays an isometry (confirmed densely at dimension
    min(N, SQUEEZING_CHECK_DIM)).
    """
    if N < 1:
        raise ValueError("need at least one term")
    k = np.arange(1, N + 1, dtype=float)
    ratios = np.cumsum(1 / k) / np.sqrt(np.cumsum(1 / k**2))
    d0 = min(N, SQUEEZING_CHECK_DIM)
    space = build(pair_collapse_family(d0))
    rng = np.random.default_rng(5)
    resid = 0.0
    for _ in range(8):
        x = rng.standard_normal(d0) + 1j * rng.standard_normal(d0)
        rep = level_constants(space, x, with_creator_map=False)
        resid = max(resid, max(abs(v - np.linalg.norm(x)) for v in rep.creator_norms))
    # the same quotient out of the dense machinery at dimension d0
    v = (np.eye(d0) / k[:d0, None]).reshape(-1)
    kappa2 = squeezing_of(space).level(2)
    dense = np.linalg.norm(kappa2 @ v) / np.linalg.norm(v)
    return {
        "ratios": tuple(float(r) for r in ratios),
        "final_ratio": float(ratios[-1]),
        "creator_isometry_residual": float(resid),
        "dense_ratio_residual": float(abs(dense - ratios[d0 - 1])),
    }


# ---------------------------------------------------------------------------
# rescaling of entrywise-bounded pairing functionals


@dataclass(frozen=True)
class FunctionalRescaling:
    """Geometric rescaling taming |Phi| to a third of the rescaled norm.

    F holds |Phi(e_i (x) e_j)|; f(n) is the running maximum over the leading
    n x n block (at least 1); the rescaled basis weights are c_n = 2^n f(n).
    By Cauchy-Schwarz the rescaled norm of Phi is, whatever its phases,
    exactly norm = (sum_ij (F_ij / (c_i c_j))^2)^(1/2), at most
    certified_bound = (1 - 4^-B) / 3 since F_ij <= f_i f_j, which holds by
    construction of f (F_ij / f_i <= F_ij <= f_j for i <= j, and
    F_ij / f_i <= 1 <= f_j otherwise).
    """

    F: np.ndarray
    f: np.ndarray
    certified_bound: float
    norm: float

    @property
    def ok(self) -> bool:
        """norm <= certified_bound (up to RESCALED_NORM_SLACK) <= 1/3."""
        return self.norm <= self.certified_bound * (1 + RESCALED_NORM_SLACK) and self.certified_bound <= 1 / 3


def rescale_functional(F) -> FunctionalRescaling:
    """Rescale the basis so the worst-phase functional of F is bounded by 1/3.

    G_ij = F_ij / f_i / f_j * 2^-i * 2^-j (1-based) is F_ij / (c_i c_j), and its
    norm is scaled by max G: no weight c_n is formed, so nothing overflows.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError("F must be a square matrix of moduli")
    if F.size == 0:
        raise ValueError("F is empty: the functional needs at least one basis vector")
    if not np.all(np.isfinite(F)):
        raise ValueError("F holds moduli; entries must be finite")
    if np.any(F < 0):
        raise ValueError("F holds moduli; entries must be nonnegative")
    B = F.shape[0]
    # the leading (n+1) x (n+1) block adds row n up to the diagonal and column n down to it
    corner = np.maximum(np.tril(F).max(axis=1), np.triu(F).max(axis=0))
    f = np.maximum.accumulate(np.maximum(corner, 1.0))
    half = 0.5 ** np.arange(1, B + 1)
    G = F / f[:, None] / f[None, :] * half[:, None] * half[None, :]
    top = float(G.max())
    norm = top * float(np.linalg.norm(G / top)) if top > 0 else 0.0
    return FunctionalRescaling(F=F, f=f, certified_bound=(1.0 - 4.0 ** (-B)) / 3.0, norm=norm)
