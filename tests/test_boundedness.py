import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fockbench.boundedness import (
    creator_map_constant,
    demo_bounded_creators_unbounded_L,
    demo_bounded_L_unbounded_creators,
    demo_unbounded_squeezing,
    level_constants,
    pair_collapse_family,
    pair_collapse_squeezing,
    rescale_functional,
)
from fockbench.deformations import (
    DeformationFamily,
    discrete_monotone,
    identity_family,
    q_fock,
    q_fock_recursive,
)
from fockbench.interacting import InteractingSpace, build, is_squeezing, random_poi_family
from fockbench.onemode import onemode_space
from fockbench.subproduct import pi_space, symmetric_projections
from fockbench.tensor_core import TruncatedFockSpace, type_words
from oracles import block_compression, creator_vs_squeezing_gap, grid_family, quotient_maps


def test_identity_family_constants_are_the_vector_norm():
    space = build(identity_family(TruncatedFockSpace(d=2, N=3)))
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rep = level_constants(space, x)
    assert_allclose(rep.creator_norms, np.linalg.norm(x) * np.ones(3), atol=1e-10)
    assert rep.growth == "bounded"
    assert rep.creator_map_exact
    assert_allclose(rep.creator_map, np.ones(3), atol=1e-8)


def test_one_mode_constants_are_sqrt_weights():
    k = (1.0, 2.0, 3.0, 4.0)
    space = build(onemode_space(k))
    rep = level_constants(space, [1.0])
    assert_allclose(rep.creator_norms, np.sqrt(k), atol=1e-10)
    assert_allclose(np.array(rep.creator_map) ** 2, k, atol=1e-8)
    assert rep.growth.startswith("growing")


def test_q_fock_creator_map_below_known_ceiling():
    q = 0.5
    space = build(q_fock(TruncatedFockSpace(d=2, N=4), q))
    M = [creator_map_constant(space, n)[0] for n in range(4)]
    assert all(M[i] <= M[i + 1] + 1e-9 for i in range(3))
    assert all(v <= 1 / np.sqrt(1 - q) + 1e-8 for v in M)


def test_q_fock_creator_norms_are_q_numbers():
    # ||a*(x)|| on level n is sqrt([n+1]_q) for a unit x and 0 <= q < 1
    q = 0.5
    space = build(q_fock_recursive(TruncatedFockSpace(d=2, N=5), q))
    x = np.array([0.6, 0.8j])
    rep = level_constants(space, x, with_creator_map=False)
    want = [np.sqrt(sum(q**k for k in range(n + 1))) for n in range(5)]
    assert_allclose(rep.creator_norms, want, rtol=1e-12)


@pytest.mark.parametrize("d,N", [(2, 4), (3, 3)])
def test_creator_map_bracket_closes_on_q_numbers(d, N):
    # M(n) = sqrt([n+1]_q) for 0 <= q < 1, attained by every unit x
    q = 0.5
    space = build(q_fock_recursive(TruncatedFockSpace(d=d, N=N), q))
    rep = level_constants(space, np.eye(d)[0])
    want = [np.sqrt(sum(q**k for k in range(n + 1))) for n in range(N)]
    assert rep.creator_map_exact
    assert_allclose(rep.creator_map, want, rtol=1e-12)
    assert_allclose(rep.creator_map_upper, want, rtol=1e-12)
    assert rep.to_dict()["creator_map_upper"] == list(rep.creator_map_upper)


def test_creator_map_lower_bound_for_negative_q():
    # for -1 <= q <= 0 every unit creator has norm 1 (Bozejko-Speicher)
    space = build(q_fock_recursive(TruncatedFockSpace(d=3, N=3), -0.5))
    for n in range(3):
        lower, upper = creator_map_constant(space, n)
        assert abs(lower - 1.0) <= 1e-12
        assert upper >= lower - 1e-12


@pytest.mark.parametrize("d,N,seed", [(2, 4, 1), (2, 4, 9), (3, 3, 1)])
def test_creator_map_bracket_holds_every_probe(d, N, seed):
    space = build(random_poi_family(d, N, seed=seed))
    rng = np.random.default_rng(seed + 100)
    probes = list(np.eye(d))
    for _ in range(16):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        probes.append(z / np.linalg.norm(z))
    for n in range(N):
        lower, upper = creator_map_constant(space, n)
        assert lower <= upper + 1e-12 * max(1.0, upper)
        for x in probes:
            assert np.linalg.norm(space.creator_x(n, x), 2) <= lower + 1e-12 * max(1.0, lower)


@pytest.mark.parametrize(
    "make",
    [
        lambda: build(q_fock_recursive(TruncatedFockSpace(d=2, N=4), 0.5)),
        lambda: build(q_fock_recursive(TruncatedFockSpace(d=2, N=4), -0.5)),
        lambda: build(discrete_monotone(TruncatedFockSpace(d=3, N=3))),
        lambda: pi_space(symmetric_projections(3, 4))[0],
        lambda: build(random_poi_family(2, 4, seed=1)),
    ],
    ids=["q=0.5", "q=-0.5", "monotone", "symmetric", "random_poi"],
)
def test_creator_map_bracket_is_ordered(make):
    # the flattening norms round below the attained value on these spaces
    space = make()
    for n in range(space.space.N):
        lower, upper = creator_map_constant(space, n)
        assert lower <= upper


def test_creator_map_start_without_gradient_keeps_its_vector():
    # L_2 = w w* with w = (e_0 + e_1) (x) (e_1 + e_2): the one row of the stack
    # is w, so a_1(2) creates nothing, and the SVD of A(e_2) = 0 returns u =
    # 1, v = e_0, which every creator misses: the gradient at that start is
    # zero.  No basis start attains M(1) = ||w||, so the sweeps go on past it
    w = np.kron([1.0, 1.0, 0.0], [0.0, 1.0, 1.0])
    space = build(DeformationFamily(TruncatedFockSpace(d=3, N=2), [np.ones((1, 1)), np.eye(3), np.outer(w, w)]))
    A = space.stack(1).reshape(1, 3, 3).transpose(1, 0, 2)  # (a_1(0), a_1(1), a_1(2))
    U, _, Vh = np.linalg.svd(A[2])
    assert not A[2].any() and not any(U[:, 0].conj() @ a @ Vh[0].conj() for a in A)
    want = np.linalg.norm(space.stack(1), 2)
    assert max(np.linalg.norm(a) for a in A) < want
    with np.errstate(divide="raise", invalid="raise"):
        lower, upper = creator_map_constant(space, 1)
    assert np.isfinite(lower) and np.isfinite(upper)
    assert_allclose([lower, upper], [want, want], rtol=1e-12)


def test_a_one_level_bracket_forms_only_its_transition():
    # M(1) on a fresh space takes ||kappa_2|| from transition 1's row stacks
    # alone, the very number kappa_norms[1] is, so the bracket is bit-equal
    family = q_fock_recursive(TruncatedFockSpace(d=2, N=6), 0.5)
    fresh = build(family)
    bracket = creator_map_constant(fresh, 1)
    assert set(fresh._rows) == {1}
    read = build(family)
    read.kappa_norms
    assert creator_map_constant(read, 1) == bracket
    assert fresh.kappa_norms == read.kappa_norms


@pytest.mark.parametrize(
    "make,d,N",
    [
        (lambda sp: q_fock_recursive(sp, 0.5), 2, 6),
        (lambda sp: q_fock_recursive(sp, 0.5), 3, 4),
        (lambda sp: q_fock_recursive(sp, 1.0), 3, 4),
        (lambda sp: q_fock_recursive(sp, -1.0), 3, 4),
        (discrete_monotone, 3, 4),
    ],
    ids=["q0.5-d2", "q0.5-d3", "q1-d3", "q-1-d3", "monotone-d3"],
)
def test_minimal_constants_equal_creator_norms(make, d, N):
    # oracle: the smallest M_x(n) with l(x) L_{n+1} l*(x) <= M_x(n)^2 L_n is the
    # top of the dense pencil P* B P, with B = (x (x) id)* L_{n+1} (x (x) id) and
    # P = U_+ diag(w_+)^-1/2 from a fresh eigh of L_n
    fam = make(TruncatedFockSpace(d=d, N=N))
    space = build(fam)
    rng = np.random.default_rng(d + N)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    x /= np.linalg.norm(x)
    rep = level_constants(space, x, with_creator_map=False)
    for n in range(N):
        X = np.kron(x.reshape(-1, 1), np.eye(d**n))
        B = X.conj().T @ fam.level(n + 1) @ X
        w, U = np.linalg.eigh(fam.level(n))
        kept = w > 1e-10 * w.max()
        P = U[:, kept] / np.sqrt(w[kept])
        pencil = P.conj().T @ B @ P
        top = np.linalg.eigvalsh((pencil + pencil.conj().T) / 2)[-1]
        assert abs(np.sqrt(max(top, 0.0)) - rep.creator_norms[n]) <= 1e-10


@pytest.mark.parametrize("seed", [1, 9])
def test_constants_against_brute_force_rayleigh(seed):
    space = build(random_poi_family(2, 4, seed=seed))
    lam = space.lam
    rng = np.random.default_rng(seed + 50)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rep = level_constants(space, x, with_creator_map=False)
    for n in range(4):
        X = np.kron(x.reshape(-1, 1), np.eye(2**n))
        probes_best = 0.0
        for _ in range(60):
            z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            den = np.linalg.norm(lam[n] @ z)
            if den < 1e-8:
                continue
            probes_best = max(probes_best, np.linalg.norm(lam[n + 1] @ X @ z) / den)
        assert probes_best <= rep.creator_norms[n] + 1e-9
        # the top singular pair reconstructs a maximizing vector
        lam_plus = np.linalg.pinv(lam[n], rcond=1e-10)
        M = lam[n + 1] @ X @ lam_plus
        _, s, Vh = np.linalg.svd(M)
        v = lam_plus @ Vh[0].conj()
        den = np.linalg.norm(lam[n] @ v)
        if den > 1e-10:
            achieved = np.linalg.norm(lam[n + 1] @ X @ v) / den
            assert abs(achieved - rep.creator_norms[n]) <= 1e-9 * max(1, rep.creator_norms[n])


def test_level_constants_read_only_the_creators(monkeypatch):
    space = build(q_fock_recursive(TruncatedFockSpace(d=2, N=4), 0.5))
    x = np.array([0.6, 0.8j])
    want = level_constants(space, x, with_creator_map=False)
    # a family of the same shape that the creators did not come from
    zeros = tuple(np.zeros_like(L) for L in space.family.L[1:])
    other = DeformationFamily(space.space, space.family.L[:1] + zeros)

    def refuse(*args, **kwargs):
        raise AssertionError("level_constants read the family's matrices or spectrum")

    # the norms take eigvalsh of a creator's Gram side, never an eigh of a level
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for name in ("parts", "blocks", "level"):
        monkeypatch.setattr(other, name, refuse)
    got = level_constants(dataclasses.replace(space, family=other), x, with_creator_map=False)
    assert got.creator_norms == want.creator_norms


def dense_sector_family(d, N, seed):
    """Dense real levels: a random positive definite block per occupation
    type, exactly 0.0 between types, so every level certifies its sectors."""
    rng = np.random.default_rng(seed)
    space = TruncatedFockSpace(d=d, N=N)
    L = [np.ones((1, 1))]
    for n in range(1, N + 1):
        M = np.zeros((d**n, d**n))
        for w in type_words(n, d):
            G = rng.standard_normal((len(w), len(w)))
            M[np.ix_(w, w)] = G @ G.T + np.eye(len(w))
        L.append(M)
    return DeformationFamily(space, L)


def unit_probes(rng, d, count):
    z = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def spy_creator_probes(monkeypatch):
    """The (n, x) of every ``creator_x`` call."""
    seen, real = [], InteractingSpace.creator_x

    def spy(self, n, x):
        seen.append((n, np.array(x)))
        return real(self, n, x)

    monkeypatch.setattr(InteractingSpace, "creator_x", spy)
    return seen


@pytest.mark.parametrize(
    "make",
    [
        lambda: q_fock_recursive(TruncatedFockSpace(d=2, N=5), 0.5),
        lambda: discrete_monotone(TruncatedFockSpace(d=3, N=3)),
        lambda: dense_sector_family(2, 4, seed=4),
    ],
    ids=["q0.5-d2-N5", "monotone-d3-N3", "dense-sectors"],
)
def test_complex_probe_on_a_block_space_runs_real(make, monkeypatch):
    # a*(x) = D_{n+1} a*(|x|) D_n* with diagonal gauge unitaries D, so the
    # norms are those of |x| and no complex matrix is decomposed
    space = build(make())
    assert all(s is not None for s in space.sectors) and space.dtype is float
    x = unit_probes(np.random.default_rng(6), space.space.d, 1)[0] * 1.7
    want = level_constants(space, np.abs(x), with_creator_map=False).creator_norms
    decomposed = []
    for name in ("svd", "eigvalsh"):
        def spy(a, *args, _real=getattr(np.linalg, name), **kwargs):
            decomposed.append(np.asarray(a).dtype)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    got = level_constants(space, x, with_creator_map=False).creator_norms
    monkeypatch.undo()
    assert decomposed and all(dtype.kind == "f" for dtype in decomposed)
    assert got == want
    for n, norm in enumerate(got):
        dense = np.linalg.norm(space.creator_x(n, x), 2)
        assert abs(norm - dense) <= 1e-13 * dense


def one_entry_between_types():
    """q-Fock d=2, N=4 with one Hermitian pair of entries between the types
    of the words 00 and 01 at level 2: that level loses its sectors, the
    others keep theirs."""
    fam = q_fock_recursive(TruncatedFockSpace(d=2, N=4), 0.5)
    L = [np.array(M) for M in fam.L]
    L[2][0, 1] = L[2][1, 0] = 1e-3
    return DeformationFamily(fam.space, L)


@pytest.mark.parametrize(
    "make,complex_at",
    [(lambda: random_poi_family(2, 4, seed=1), {0, 1, 2, 3}), (one_entry_between_types, {1, 2})],
    ids=["random_poi", "one-entry-between-types"],
)
def test_complex_probe_is_kept_off_the_torus(make, complex_at, monkeypatch):
    space = build(make())
    x = np.array([0.6, -0.8j])
    seen = spy_creator_probes(monkeypatch)
    rep = level_constants(space, x, with_creator_map=False)
    monkeypatch.undo()
    assert [n for n, _ in seen] == list(range(space.space.N))
    assert {n for n, probe in seen if np.array_equal(probe, x)} == complex_at
    assert all(np.array_equal(probe, np.abs(x)) for n, probe in seen if n not in complex_at)
    for n, norm in enumerate(rep.creator_norms):
        dense = np.linalg.norm(space.creator_x(n, x), 2)
        assert abs(norm - dense) <= 1e-13 * dense


@pytest.mark.parametrize("q", [-0.5, 0.5])
def test_q_fock_creator_norms_for_complex_unit_probes(q):
    # Bozejko-Speicher: ||a*(x)||_n = ||x|| for -1 < q <= 0 (d >= 2), and
    # ||x|| sqrt([n+1]_q) for 0 <= q < 1
    d, N = 3, 5
    space = build(q_fock_recursive(TruncatedFockSpace(d=d, N=N), q))
    want = [1.0] * N if q < 0 else [np.sqrt(sum(q**k for k in range(n + 1))) for n in range(N)]
    for x in unit_probes(np.random.default_rng(12), d, 4):
        rep = level_constants(space, x, with_creator_map=False)
        assert_allclose(rep.creator_norms, want, rtol=1e-12, atol=0)


def test_grid_demo_growth():
    rows = demo_bounded_L_unbounded_creators(grids=(4, 400))
    assert_allclose([r["ratio"] for r in rows], [np.sqrt(8), np.sqrt(800)], atol=1e-10)
    assert rows[1]["ratio"] / rows[0]["ratio"] >= 9
    assert all(r["L_max_eig"] <= 1.0 for r in rows)
    with pytest.raises(ValueError):
        demo_bounded_L_unbounded_creators(grids=(1,))


def test_grid_demo_matches_dense_machinery():
    m = 4
    space = build(grid_family(m))
    x = np.ones(m) / np.sqrt(m)
    y = np.zeros(m)
    y[0] = 1 / np.sqrt(m)
    qy = quotient_maps(space)[1] @ y
    ratio = np.linalg.norm(space.creator_x(1, x) @ qy) / np.linalg.norm(qy)
    assert_allclose(ratio, np.sqrt(2 * m), atol=1e-10)


@pytest.mark.parametrize("K", [5, 40])
def test_block_demo_constants_stay_below_one(K):
    rep = demo_bounded_creators_unbounded_L(K)
    assert rep["L2_norm"] == K
    assert rep["ok"]
    assert rep["max_ratio"] <= 1 + 1e-10
    # single-block probes are included and meet the bound exactly
    assert rep["max_ratio"] >= 1 - 1e-12
    assert len(demo_bounded_creators_unbounded_L(K, n_probes=0)["probe_ratios"]) == K
    with pytest.raises(ValueError, match="nonnegative"):
        demo_bounded_creators_unbounded_L(K, n_probes=-1)


def test_block_compression_matches_dense_kron():
    K = 3
    dims = [1, 2, 3]
    D = sum(dims)
    L2 = np.zeros((D * D, D * D), dtype=complex)
    off = 0
    for n in dims:
        vec = np.zeros(D * D, dtype=complex)
        for i in range(off, off + n):
            vec[i * D + i] = 1 / np.sqrt(n)
        L2 += n * np.outer(vec, vec.conj())
        off += n
    assert_allclose(np.linalg.eigvalsh(L2)[-1], K, atol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        X = np.kron(x.reshape(-1, 1), np.eye(D))
        dense = X.conj().T @ L2 @ X
        assert_allclose(block_compression(x, dims), dense, atol=1e-12)
        top = np.linalg.eigvalsh(dense)[-1]
        assert top <= np.linalg.norm(x) ** 2 + 1e-10


def test_squeezing_demo_harmonic_growth():
    rep = demo_unbounded_squeezing(500)
    ratios = rep["ratios"]
    assert ratios[0] == pytest.approx(1.0)
    assert rep["final_ratio"] >= 5.0
    assert all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))
    assert rep["creator_isometry_residual"] <= 1e-9
    assert rep["dense_ratio_residual"] <= 1e-10


def test_pair_collapse_squeezing_levels():
    sq = pair_collapse_squeezing(3, levels=3)
    ok, worst, _ = is_squeezing(sq)
    assert ok, worst
    with pytest.raises(ValueError):
        pair_collapse_squeezing(3, omega=np.ones(9))  # not unit
    with pytest.raises(ValueError):
        pair_collapse_squeezing(3, levels=4)


def reference_weights(F):
    """f(n) = max(1, max of the leading n x n block) and c_n = 2^n f(n)."""
    f = np.array([max(1.0, F[: n + 1, : n + 1].max()) for n in range(len(F))])
    return f, 2.0 ** np.arange(1, len(F) + 1) * f


def test_rescaling_certificate():
    zero = rescale_functional(np.zeros((10, 10)))
    assert zero.norm == 0.0
    assert zero.certified_bound < 1 / 3
    assert zero.ok
    rng = np.random.default_rng(11)
    F = rng.uniform(0, 100, size=(50, 50))
    res = rescale_functional(F)
    assert res.ok
    assert 0 < res.norm <= res.certified_bound <= 1 / 3
    # f keeps the bits of the blockwise loop, and the norm is the unscaled oracle
    f, c = reference_weights(F)
    assert np.array_equal(res.f, f)
    oracle = np.linalg.norm(F / np.outer(c, c))
    assert abs(res.norm - oracle) <= 1e-14 * oracle
    # every single-entry functional value is at most the norm, and a one-entry F attains it
    assert np.all(F / np.outer(c, c) <= res.norm)
    one = np.zeros((50, 50))
    one[4, 9] = F[4, 9]
    _, c1 = reference_weights(one)
    assert rescale_functional(one).norm == pytest.approx(F[4, 9] / (c1[4] * c1[9]), rel=1e-15)
    with pytest.raises(ValueError):
        rescale_functional(-np.ones((3, 3)))
    with pytest.raises(ValueError):
        rescale_functional(np.zeros((3, 4)))
    for bad in (np.nan, np.inf):
        G = np.ones((3, 3))
        G[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            rescale_functional(G)


@settings(max_examples=60, deadline=None)
@given(
    B=st.integers(1, 40),
    kind=st.sampled_from(("uniform", "ones", "huge", "spread")),
    seed=st.integers(0, 2**32 - 1),
)
def test_rescaling_weights_bound_every_entry(B, kind, seed):
    # F_ij <= f_i f_j holds by construction of f, read as F_ij / f_i <= f_j so
    # that entries as large as the float range allow do not overflow
    rng = np.random.default_rng(seed)
    F = {
        "uniform": lambda: rng.uniform(0.0, 100.0, size=(B, B)),
        "ones": lambda: np.ones((B, B)),
        "huge": lambda: rng.uniform(0.0, 1e308, size=(B, B)),
        "spread": lambda: 10.0 ** rng.uniform(-300, 300, size=(B, B)),
    }[kind]()
    res = rescale_functional(F)
    assert np.all(res.F / res.f[:, None] <= res.f[None, :])
    assert np.all(res.f >= 1.0) and res.ok


def test_rescaling_bound_is_attained_by_all_ones():
    # F = ones gives G_ij = 2^-(i+j), whose norm is the bound sum_i 4^-i itself
    for B in range(1, 200):
        res = rescale_functional(np.ones((B, B)))
        assert res.ok, B
        assert abs(res.norm - res.certified_bound) <= 4 * np.spacing(res.certified_bound), B


@pytest.mark.parametrize("make", [lambda: q_fock(TruncatedFockSpace(d=2, N=4), 0.6),
                                  lambda: random_poi_family(2, 3, seed=21)])
def test_creator_norm_below_squeezing_norm(make):
    space = build(make())
    rng = np.random.default_rng(2)
    probes = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(6)]
    assert creator_vs_squeezing_gap(space, probes) <= 1e-9


def test_pair_collapse_family_isometry():
    space = build(pair_collapse_family(5))
    assert space.ranks == (1, 5, 1)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    rep = level_constants(space, x, with_creator_map=False)
    assert_allclose(rep.creator_norms, np.linalg.norm(x) * np.ones(2), atol=1e-10)
