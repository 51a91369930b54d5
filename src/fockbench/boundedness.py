"""Per-level creator norms, minimal deformation constants, and growth demos.

For a built space, the creator of x restricted to level n has norm
||lambda_{n+1} (x (x) id) pinv(lambda_n)|| = ||a*(x)||, the norm of the
quotient creator, and the smallest constant M_x(n) with
l(x) L_{n+1} l*(x) <= M_x(n)^2 L_n comes out of the pencil reduction
(pinv lambda_n)* B (pinv lambda_n) with B = (x (x) id)* L_{n+1} (x (x) id),
taken on the r_n quotient coordinates: pinv(lambda_n) = xi_n diag(mu_n^-1/2)
xi_n*, so the pencil's nonzero spectrum is that of
diag(mu_n^-1/2) xi_n* B xi_n diag(mu_n^-1/2).  The kernel check reads ker L_n
from the family's cached spectrum; nothing else is decomposed.
The creator map M(n) = sup over unit x of ||a*(x)||_n is the spectral norm of
the 3-tensor of level-n creators, so it is reported as a certified bracket:
an attained lower bound from alternating power iteration and an upper bound
from the three flattenings of the tensor.  It is "exact" when every
bracket closes to CREATOR_MAP_CLOSED relative width.
The three demos reproduce the growth phenomena that separate bounded L,
bounded creators, and bounded squeezings; ``rescale_functional`` carries out
the geometric rescaling that tames any entrywise-bounded pairing functional
to a third of the rescaled norm.
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
    "creator_vs_squeezing_gap",
    "pair_collapse_squeezing",
    "pair_collapse_family",
    "demo_bounded_L_unbounded_creators",
    "demo_bounded_creators_unbounded_L",
    "demo_unbounded_squeezing",
    "rescale_functional",
]

CREATOR_MAP_CLOSED = 1e-12  # relative width under which a creator-map bracket counts as closed
_MAX_SWEEPS = 1000  # power-iteration sweeps per creator-map bracket


@dataclass(frozen=True)
class BoundsReport:
    """Per-level norm data for one probe vector x on one built space."""

    x: np.ndarray
    creator_norms: tuple  # ||a*(x)||_n for n = 0..N-1
    minimal_constants: tuple  # M_x(n), pencil form
    creator_map: tuple  # lower bounds of M(n) = sup over unit x
    creator_map_upper: tuple  # upper bounds of M(n)
    creator_map_exact: bool  # every bracket closed to CREATOR_MAP_CLOSED
    growth: str

    def to_dict(self) -> dict:
        return {
            "creator_norms": list(self.creator_norms),
            "minimal_constants": list(self.minimal_constants),
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


def level_constants(
    space: InteractingSpace,
    x,
    kernel_tol: float = 1e-9,
    with_creator_map: bool = True,
) -> BoundsReport:
    """Exact per-level creator norms and minimal constants for the probe x."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    fam, d, N = space.family, space.space.d, space.space.N
    if x.shape != (d,):
        raise ValueError(f"probe vector has length {x.size}, want {d}")
    norms, constants = [], []
    for n in range(N):
        dim = space.space.dim(n)
        # B = (x (x) id)* L_{n+1} (x (x) id)
        LX = kron_id(x[:, None], fam.level(n + 1), dim, id_first=False)
        B = _linalg.hermitize(kron_id(x.conj()[None, :], LX, dim, id_first=False, op_first=True))
        w, U = fam.spectrum(n)
        Vker = U[:, ~_linalg.eigen_kept(w, space.rank_tol)]
        if Vker.shape[1]:
            resid = _linalg.op_norm(B @ Vker) / max(1.0, _linalg.op_norm(B))
            if resid > kernel_tol:
                raise ValueError(
                    f"kernel incompatibility at level {n} (residual {resid:.3e}): corrupted space"
                )
        # the pencil pinv(lambda_n)* B pinv(lambda_n), reduced to the r_n quotient coordinates
        P = space.xi[n] / space.sqrt_mu[n]
        pencil = _linalg.hermitize(P.conj().T @ B @ P)
        top = float(np.linalg.eigvalsh(pencil)[-1]) if pencil.size else 0.0
        constants.append(np.sqrt(max(top, 0.0)))
        norms.append(_linalg.op_norm(space.creator_x(n, x)))
    brackets = [creator_map_constant(space, n) for n in range(N)] if with_creator_map else []
    return BoundsReport(
        x=x,
        creator_norms=tuple(norms),
        minimal_constants=tuple(constants),
        creator_map=tuple(lo for lo, _ in brackets),
        creator_map_upper=tuple(hi for _, hi in brackets),
        creator_map_exact=all(hi - lo <= CREATOR_MAP_CLOSED * max(1.0, hi) for lo, hi in brackets),
        growth=_growth_label(norms),
    )


def creator_map_constant(space: InteractingSpace, n: int, n_starts: int = 64, seed: int = 0):
    """Certified bracket (lower, upper) of M(n) = sup over unit x of ||a*(x)||_n.

    M(n) is the spectral norm of the 3-tensor (A_i) = space.creators[n],
    NP-hard to compute in general (Hillar-Lim 2013), so it is bracketed.

    lower: alternating power iteration, all starts at once: the d basis
    vectors and n_starts seeded random unit vectors.  Each sweep takes the
    top singular pair (u, v) of A(x) = sum x_i A_i and moves x to
    conj(u* A_i v) / ||.||, which never lowers ||A(x)||; a start whose
    gradient is exactly zero keeps its x.  Sweeps stop once no start gains
    more than rounding (or the bracket has closed), after at most
    _MAX_SWEEPS.  The value is ||A(x)|| at a unit x, so it is attained.

    upper: the smallest spectral norm of the three flattenings of (A_i),
    m x dk, dm x k and d x mk, each of which dominates every ||A(x)||.

    ``level_constants`` counts the bracket as closed, and M(n) as known, when
    upper - lower <= CREATOR_MAP_CLOSED * max(1, upper) (``creator_map_exact``).
    """
    d, m, k = space.space.d, space.ranks[n + 1], space.ranks[n]
    if m == 0 or k == 0:
        return 0.0, 0.0
    A = np.array(space.creators[n])  # (d, m, k)
    upper = min(
        _linalg.op_norm(A.transpose(1, 0, 2).reshape(m, d * k)),
        _linalg.op_norm(A.reshape(d * m, k)),
        _linalg.op_norm(A.reshape(d, m * k)),
    )
    rng = np.random.default_rng(seed)
    X = np.vstack([np.eye(d), rng.standard_normal((n_starts, d)) + 1j * rng.standard_normal((n_starts, d))])
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
    return lower, upper


def creator_vs_squeezing_gap(space: InteractingSpace, probes) -> float:
    """max over probes of (sup-level ||a*(x)|| - ||kappa|| ||x||), clipped at 0.

    Nonpositive up to numerical noise: the creator norm is dominated by the
    squeezing norm.
    """
    kappa_norm = max(squeezing_of(space).norms())
    gap = 0.0
    for x in probes:
        x = np.asarray(x, dtype=complex).reshape(-1)
        rep = level_constants(space, x, with_creator_map=False)
        worst = max(rep.creator_norms) if rep.creator_norms else 0.0
        gap = max(gap, worst - kappa_norm * np.linalg.norm(x))
    return max(gap, 0.0)


# ---------------------------------------------------------------------------
# growth demos


def pair_collapse_squeezing(d: int, omega=None, levels: int = 2) -> Squeezing:
    """The squeezing that sends every matched pair e_n (x) e_n to one unit vector.

    kappa_2 = omega u^T with u = sum_n e_n (x) e_n (conjugation fixed to the
    standard basis, so the pairing is the plain transpose); the optional third
    level routes through the omega line so the space extends past two levels.
    """
    u = np.eye(d, dtype=complex).reshape(-1)
    if omega is None:
        omega = u / np.sqrt(d)
    omega = np.asarray(omega, dtype=complex).reshape(-1)
    if omega.shape != (d * d,) or abs(np.linalg.norm(omega) - 1.0) > 1e-12:
        raise ValueError("omega must be a unit vector at level 2")
    kappas = [np.eye(d, dtype=complex), np.outer(omega, u)]
    if levels == 3:
        kappas.append(np.kron(np.eye(d, dtype=complex), np.outer(omega, omega.conj())))
    elif levels != 2:
        raise ValueError("levels must be 2 or 3")
    return Squeezing(TruncatedFockSpace(d=d, N=levels), tuple(kappas))


def pair_collapse_family(d: int) -> DeformationFamily:
    """Two-level family with L_2 = u u^T of rank one; the creator map is an isometry."""
    u = np.eye(d, dtype=complex).reshape(-1, 1)
    return DeformationFamily(
        TruncatedFockSpace(d=d, N=2),
        (np.eye(1, dtype=complex), np.eye(d, dtype=complex), u @ u.T),
    )


def demo_bounded_L_unbounded_creators(grids=(4, 8, 40, 100, 400), x=None):
    """Multiplication-by-t deformation on m grid cells: L stays below 1, the
    creator norm on the first-cell indicator grows like sqrt(2m).

    Cell functions are represented by their values scaled by 1/sqrt(m) so the
    coordinates carry the L2[0,1] inner product; L_1 = diag of cell midpoints,
    L_2 = id.  Returns one row per grid size.
    """
    rows = []
    for m in grids:
        if m < 2:
            raise ValueError("need at least two cells")
        mid = (np.arange(m) + 0.5) / m
        xv = np.ones(m) / np.sqrt(m) if x is None else np.asarray(x, dtype=complex).reshape(-1)
        if xv.shape != (m,):
            raise ValueError("probe must live on the grid")
        # y = indicator of the first cell, coordinates e_0/sqrt(m)
        y_mass = mid[0] / m  # <y, L_1 y>
        created = np.linalg.norm(xv) ** 2 / m  # ||x (x) y||^2 under L_2 = id
        rows.append(
            {
                "m": int(m),
                "ratio": float(np.sqrt(created / y_mass)),
                "L_max_eig": float(max(mid.max(), 1.0)),
            }
        )
    return rows


def grid_family(m: int) -> DeformationFamily:
    """Dense realization of the grid demo (small m only): L_1 = diag(midpoints), L_2 = id."""
    mid = (np.arange(m) + 0.5) / m
    return DeformationFamily(
        TruncatedFockSpace(d=m, N=2),
        (np.eye(1, dtype=complex), np.diag(mid).astype(complex), np.eye(m * m, dtype=complex)),
    )


def demo_bounded_creators_unbounded_L(K: int, n_probes: int = 20, seed: int = 7) -> dict:
    """Block family H = (+)_{n<=K} C^n with L_2 = (+)_n n p_n for the maximally
    entangled rank-one p_n: ||L_2|| = K grows freely while every compression
    (x (x) id)* L_2 (x (x) id) stays below ||x||^2.

    The compression is block diagonal with rank-one blocks conj(x_n) conj(x_n)*,
    so its top eigenvalue is max_n ||x_n||^2 — computed blockwise, no dense L_2.
    """
    if K < 2:
        raise ValueError("need at least two blocks")
    dims = list(range(1, K + 1))
    rng = np.random.default_rng(seed)
    D = sum(dims)
    probes = [rng.standard_normal(D) + 1j * rng.standard_normal(D) for _ in range(n_probes)]
    # single-block probes realize the bound exactly
    for n in dims:
        v = np.zeros(D, dtype=complex)
        off = sum(dims[: n - 1])
        v[off : off + n] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        probes.append(v)
    ratios = []
    for v in probes:
        blocks = np.split(v, np.cumsum(dims)[:-1])
        top = max(float(np.linalg.norm(b) ** 2) for b in blocks)
        ratios.append(top / float(np.linalg.norm(v) ** 2))
    return {
        "K": int(K),
        "L2_norm": float(K),
        "probe_ratios": ratios,
        "max_ratio": max(ratios),
        "ok": max(ratios) <= 1 + 1e-10,
    }


def block_compression(x, dims) -> np.ndarray:
    """(x (x) id)* L_2 (x (x) id) for the block demo, assembled blockwise."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    parts = np.split(x, np.cumsum(list(dims))[:-1])
    return np.block(
        [
            [np.outer(p.conj(), p) if i == j else np.zeros((len(parts[i]), len(parts[j])))
             for j in range(len(parts))]
            for i, p in enumerate(parts)
        ]
    )


def demo_unbounded_squeezing(N: int, check_dim: int = 8) -> dict:
    """Rayleigh quotients ||kappa_2 v_n|| / ||v_n|| for v_n = sum e_k (x) e_k / k.

    The quotient equals (sum 1/k) / sqrt(sum 1/k^2): harmonic growth on a
    convergent denominator, so the squeezing is unbounded while the creator
    map stays an isometry (confirmed densely at a small dimension).
    """
    if N < 1:
        raise ValueError("need at least one term")
    k = np.arange(1, N + 1, dtype=float)
    ratios = np.cumsum(1 / k) / np.sqrt(np.cumsum(1 / k**2))
    d0 = min(N, check_dim)
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
    """

    F: np.ndarray
    f: np.ndarray
    c: np.ndarray
    certified_bound: float
    empirical_max: float
    n_samples: int

    def ratio(self, v) -> float:
        """|Phi(v)| / ||v|| in the rescaled norm, for coefficient matrix v."""
        v = np.asarray(v, dtype=complex)
        phi = abs(np.sum(v * self.F))
        nrm = np.sqrt(np.sum(np.abs(v) ** 2 * np.outer(self.c**2, self.c**2)))
        return float(phi / nrm) if nrm > 0 else 0.0

    def entrywise_ok(self) -> bool:
        return bool(np.all(self.F <= np.outer(self.f, self.f) + 1e-12))


def rescale_functional(F, n_samples: int = 1000, seed: int = 2024) -> FunctionalRescaling:
    """Rescale the basis so the worst-phase functional of F is bounded by 1/3."""
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError("F must be a square matrix of moduli")
    if np.any(F < 0):
        raise ValueError("F holds moduli; entries must be nonnegative")
    B = F.shape[0]
    f = np.ones(B)
    running = 1.0
    for n in range(B):
        running = max(running, float(F[: n + 1, : n + 1].max()))
        f[n] = running
    c = 2.0 ** np.arange(1, B + 1) * f
    certified = (1.0 - 4.0 ** (-B)) / 3.0
    rescaling = FunctionalRescaling(
        F=F, f=f, c=c, certified_bound=certified, empirical_max=0.0, n_samples=n_samples
    )
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        v = rng.standard_normal((B, B)) + 1j * rng.standard_normal((B, B))
        worst = max(worst, rescaling.ratio(v))
    return FunctionalRescaling(
        F=F, f=f, c=c, certified_bound=certified, empirical_max=worst, n_samples=n_samples
    )
