import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import null_space, orth

from fockbench.deformations import (
    DeformationFamily,
    discrete_monotone,
    identity_family,
    q_fock,
    q_fock_recursive,
    validate,
)
from fockbench import _linalg
from fockbench.boundedness import creator_map_constant, level_constants, pair_collapse_squeezing
from fockbench.interacting import (
    InteractingSpace,
    Squeezing,
    build,
    is_squeezing,
    lambda_from_squeezing,
    random_poi_family,
    space_from_squeezing,
    squeezing_of,
    verify_space,
)
from fockbench.tensor_core import TruncatedFockSpace
from oracles import bits, factor_K, on_vacuum, reference_build, vacuum_value


def random_unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def test_identity_family_is_full_fock():
    space = build(identity_family(TruncatedFockSpace(d=2, N=3)))
    assert space.ranks == (1, 2, 4, 8)
    sq = squeezing_of(space)
    for n in range(1, 4):
        assert_allclose(sq.level(n), np.eye(2**n), atol=1e-12)
    # free relation a(x)a*(y) = <x,y> id on every level
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y = random_unit(rng, 2), random_unit(rng, 2)
        for n in range(3):
            lhs = space.creator_x(n, x).conj().T @ space.creator_x(n, y)
            assert_allclose(lhs, np.vdot(x, y) * np.eye(space.ranks[n]), atol=1e-12)


def test_one_mode_creator_weights():
    # L_n = [[k_n * ... * k_1]]; the creator from level n carries sqrt(k_{n+1})
    k = (1.0, 2.0, 3.0, 4.0)
    ell = np.cumprod((1.0,) + k)
    fam = DeformationFamily(
        TruncatedFockSpace(d=1, N=4),
        tuple(np.array([[v]], dtype=complex) for v in ell),
    )
    space = build(fam)
    assert space.ranks == (1, 1, 1, 1, 1)
    for n in range(4):
        assert_allclose(space.stack(n), [[np.sqrt(k[n])]], atol=1e-12)  # d = 1: the stack is a_n(0)


def test_q_is_minus_one_collapses_to_antisymmetric_ranks():
    space = build(q_fock(TruncatedFockSpace(d=2, N=4), -1.0))
    assert space.ranks == (1, 2, 1, 0, 0)
    # creators above the top antisymmetric level are empty
    assert space.creator_x(2, [1, 0]).shape == (0, 1)
    assert space.creator_x(3, [0, 1]).shape == (0, 0)


@pytest.mark.parametrize(
    "make,d,N,rank",
    [
        # q-Fock is strictly positive for |q| < 1 (Bozejko-Speicher 1991)
        (lambda sp: q_fock_recursive(sp, 0.5), 2, 6, lambda d, n: d**n),
        (lambda sp: q_fock_recursive(sp, 0.5), 3, 4, lambda d, n: d**n),
        # symmetric and antisymmetric powers
        (lambda sp: q_fock_recursive(sp, 1.0), 2, 5, lambda d, n: math.comb(n + d - 1, n)),
        (lambda sp: q_fock_recursive(sp, 1.0), 3, 4, lambda d, n: math.comb(n + d - 1, n)),
        (lambda sp: q_fock_recursive(sp, -1.0), 3, 4, math.comb),
        (discrete_monotone, 3, 4, math.comb),
    ],
    ids=["q0.5-d2", "q0.5-d3", "q1-d2", "q1-d3", "q-1-d3", "monotone-d3"],
)
def test_built_ranks_match_theory(make, d, N, rank):
    space = build(make(TruncatedFockSpace(d=d, N=N)))
    assert space.ranks == tuple(rank(d, n) for n in range(N + 1))


@pytest.mark.parametrize("q", [-0.9, -0.5, 0.0, 0.5, 0.9])
def test_q_commutation_relation(q):
    space = build(q_fock(TruncatedFockSpace(d=2, N=5), q))
    rng = np.random.default_rng(int(10 * q) + 11)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for n in range(5):
            lhs = space.creator_x(n, x).conj().T @ space.creator_x(n, y)
            if n > 0:
                lhs = lhs - q * space.creator_x(n - 1, y) @ space.creator_x(n - 1, x).conj().T
            worst = max(worst, np.linalg.norm(lhs - np.vdot(x, y) * np.eye(space.ranks[n])))
    assert worst <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_structural_residuals_random_poi(seed):
    fam = random_poi_family(2, 4, seed=seed)
    space = build(fam)
    rep = verify_space(space)
    assert set(rep) == {"gram", "isometry", "kernel"}
    assert rep["gram"] <= 1e-10
    assert rep["isometry"] <= 1e-12
    assert rep["kernel"] == max(space.residuals) <= 1e-8


@pytest.mark.parametrize("seed", [3, 17])
def test_word_gram_consistency(seed):
    # <u Omega, v Omega> computed in quotient coordinates equals the vacuum
    # expectation of the adjoint word u* v
    space = build(random_poi_family(2, 4, seed=seed))
    rng = np.random.default_rng(seed + 100)
    words = []
    for length in (1, 2, 3):
        for _ in range(3):
            words.append([(+1, random_unit(rng, 2)) for _ in range(length)])
    for u in words:
        for v in words:
            lu, cu = on_vacuum(u, space)
            lv, cv = on_vacuum(v, space)
            lhs = np.vdot(cu, cv) if lu == lv else 0.0
            ustar = [(-1, x) for (_, x) in reversed(u)]
            rhs = vacuum_value(ustar + v, space)
            assert abs(lhs - rhs) <= 1e-10


def test_vacuum_expectation_degenerate_cases():
    space = build(identity_family(TruncatedFockSpace(d=2, N=2)))
    e0 = np.array([1.0, 0.0])
    assert vacuum_value([], space) == 1.0
    # annihilator hits the vacuum
    assert vacuum_value([(-1, e0)], space) == 0.0
    # unbalanced word has zero expectation
    assert vacuum_value([(+1, e0)], space) == 0.0
    # a creator out of the top level: the space has no transition N
    with pytest.raises(ValueError, match="transition 2 is outside 0..1"):
        vacuum_value([(+1, e0)] * 3, space)
    with pytest.raises(ValueError):
        space.creator_x(0, np.ones(3))


@pytest.mark.parametrize("seed", range(8))
def test_squeezing_round_trip(seed):
    space = build(random_poi_family(2, 4, seed=seed))
    sq = squeezing_of(space)
    ok, worst, _ = is_squeezing(sq)
    assert ok, worst
    rebuilt = space_from_squeezing(sq)
    assert rebuilt.ranks == space.ranks
    # the canonical embedded form is basis-free and must agree
    for n in range(5):
        assert_allclose(rebuilt.lam[n], space.lam[n], atol=1e-8)
    # uniqueness: recovering the squeezing from the rebuilt space returns the input
    sq2 = squeezing_of(rebuilt)
    for n in range(1, 5):
        assert_allclose(sq2.level(n), sq.level(n), atol=1e-8)
    # Fock-unitary equality: word Gram matrices agree
    rng = np.random.default_rng(seed)
    words = [[(+1, random_unit(rng, 2)) for _ in range(k)] for k in (1, 2, 3) for _ in range(2)]
    for u in words:
        for v in words:
            ustar = [(-1, x) for (_, x) in reversed(u)]
            a = vacuum_value(ustar + v, space)
            b = vacuum_value(ustar + v, rebuilt)
            assert abs(a - b) <= 1e-8


def test_lambda_recursion_matches_sqrt():
    space = build(q_fock(TruncatedFockSpace(d=2, N=4), 0.7))
    lams = lambda_from_squeezing(squeezing_of(space))
    for n in range(5):
        assert_allclose(lams[n], space.lam[n], atol=1e-9)


def test_not_a_squeezing_is_rejected():
    fock = TruncatedFockSpace(d=2, N=2)
    p = np.zeros((2, 2), dtype=complex)
    p[0, 0] = 1.0
    bad = Squeezing(fock, (p, np.eye(4, dtype=complex)))
    ok, worst, _ = is_squeezing(bad)
    assert not ok and worst > 0.1
    with pytest.raises(ValueError):
        space_from_squeezing(bad)


def test_squeezing_shape_validation():
    fock = TruncatedFockSpace(d=2, N=2)
    with pytest.raises(ValueError):
        Squeezing(fock, (np.eye(2),))
    with pytest.raises(ValueError):
        Squeezing(fock, (np.eye(2), np.eye(3)))
    sq = Squeezing(fock, (np.eye(2), np.eye(4)))
    with pytest.raises(ValueError):
        sq.level(0)
    with pytest.raises(ValueError):
        sq.level(3)


def test_random_poi_rank_profiles():
    fam = random_poi_family(2, 4, seed=1, ranks=(1, 2, 4, 8, 16))
    assert build(fam).ranks == (1, 2, 4, 8, 16)
    fam0 = random_poi_family(2, 3, seed=2, ranks=(1, 2, 0, 0))
    assert build(fam0).ranks == (1, 2, 0, 0)
    with pytest.raises(ValueError):
        random_poi_family(2, 2, seed=0, ranks=(1, 2, 5))
    with pytest.raises(ValueError):
        random_poi_family(2, 2, seed=0, ranks=(2, 2, 2))
    with pytest.raises(ValueError):
        random_poi_family(2, 2, seed=0, ranks=(1, 2))


def test_random_poi_names_the_level_of_a_negative_rank():
    # the same message as subproduct.random_adjacent_family's
    with pytest.raises(ValueError, match="requested rank -1 at level 2 is negative"):
        random_poi_family(2, 3, seed=0, ranks=(1, 2, -1, 0))


def test_random_poi_is_deterministic():
    a = random_poi_family(2, 3, seed=42)
    b = random_poi_family(2, 3, seed=42)
    for n in range(4):
        assert np.array_equal(a.level(n), b.level(n))


def test_build_refuses_kernel_violation():
    # L_1 = 0 but L_2 = id violates the kernel condition; validation refuses
    space = TruncatedFockSpace(d=2, N=2)
    fam = DeformationFamily(
        space,
        (np.eye(1, dtype=complex), np.zeros((2, 2), dtype=complex), np.eye(4, dtype=complex)),
    )
    with pytest.raises(ValueError):
        build(fam)


def test_validate_and_build_share_one_kernel_rule():
    # a negative eigenvalue within the PSD slack EPS_PSD is kernel for build,
    # so it is kernel for validate and factor_K as well
    space = TruncatedFockSpace(d=2, N=2)
    one = np.eye(1, dtype=complex)
    fam = DeformationFamily(space, (one, np.diag([1.0, -1e-11]), np.eye(4)))
    report = validate(fam)
    assert report.kernel_dims == [0, 1, 0] and not report.kernel_ok
    with pytest.raises(ValueError, match="fails validation"):
        build(fam)
    with pytest.raises(ValueError, match="kernel condition fails"):
        factor_K(fam)
    L2 = np.eye(4, dtype=complex)
    L2[3, 3] = -1e-11
    fam = DeformationFamily(space, (one, np.eye(2), L2))
    report = validate(fam)
    assert report.ok and report.kernel_dims == [0, 0, 1]
    assert build(fam).ranks == (1, 2, 3)


def test_build_checks_the_kernel_condition_itself():
    # Lambda_2 keeps sqrt(1e-9) on e_i (x) e_1, with e_1 the kernel of L_1:
    # relative to ||Lambda_2|| = sqrt(2) that is 2.236e-05, and validate and
    # build refuse the family by that one residual
    space = TruncatedFockSpace(d=2, N=2)
    fam = DeformationFamily(
        space, (np.eye(1), np.diag([1.0, 1e-12]), np.diag([1.0, 1e-9, 1.0, 1e-9]))
    )
    report = validate(fam)
    assert report.psd_ok and not report.kernel_ok
    assert f"{report.kernel_violations[1]:.3e}" == "2.236e-05"
    with pytest.raises(ValueError, match="kernel condition violated at level 1") as err:
        build(fam)
    assert "residual 2.236e-05" in str(err.value)


@pytest.mark.parametrize("rank_tol", [0.0, 1.0, float("nan")])
def test_validate_refuses_a_rank_tol_that_drops_the_vacuum_or_nothing(rank_tol):
    fam = identity_family(TruncatedFockSpace(d=2, N=2))
    with pytest.raises(ValueError, match="rank_tol must lie in"):
        build(fam, rank_tol=rank_tol)


# rank profiles with a kernel at every level n >= 1
KERNEL_PROFILES = [(2, (1, 1, 2, 3)), (2, (1, 1, 2, 3, 5)), (3, (1, 2, 4, 7))]


@settings(max_examples=40, deadline=None)
@given(profile=st.sampled_from(KERNEL_PROFILES), seed=st.integers(0, 2**16), k=st.integers(0, 16),
       data=st.data())
def test_validate_accepts_exactly_what_build_accepts(profile, seed, k, data):
    # inject 10^-k (e_i (x) v)(e_i (x) v)* into L_{n+1}, v in ker L_n: a kernel
    # violation when build keeps that eigenvalue, harmless when it drops it
    d, ranks = profile
    fam = random_poi_family(d, len(ranks) - 1, seed=seed, ranks=ranks)
    n = data.draw(st.integers(1, len(ranks) - 2))
    i = data.draw(st.integers(0, d - 1))
    u = np.kron(np.eye(d)[i], null_space(fam.factors[n], _linalg.RANK_TOL)[:, 0])
    L = list(fam.L)
    L[n + 1] = L[n + 1] + 10.0**-k * np.outer(u, u.conj())
    fam = DeformationFamily(fam.space, tuple(L))
    report = validate(fam)
    twin = DeformationFamily(fam.space, tuple(L))
    try:
        space = build(fam)
    except ValueError as exc:
        assert not report.kernel_ok
        assert "kernel condition violated" in str(exc)
        with pytest.raises(ValueError) as want:
            reference_build(twin)
        assert str(want.value) == str(exc)
    else:
        assert report.kernel_ok
        assert space.residuals == tuple(report.kernel_violations)
        # the spanning verdict, creator blocks and norms of an SVD on every transition
        ranks, blocks, kappa_norms = reference_build(twin)
        assert (space.ranks, bits(space.blocks), space.kappa_norms) == (ranks, bits(blocks), kappa_norms)


ORACLE_FAMILIES = {
    "random_poi-1": lambda: random_poi_family(2, 4, seed=1),
    "random_poi-2": lambda: random_poi_family(3, 3, seed=2),
    "q0.5": lambda: q_fock_recursive(TruncatedFockSpace(d=2, N=5), 0.5),
    "q-0.5": lambda: q_fock_recursive(TruncatedFockSpace(d=3, N=3), -0.5),
    "monotone": lambda: discrete_monotone(TruncatedFockSpace(d=3, N=4)),
}


@pytest.mark.parametrize("name", list(ORACLE_FAMILIES))
def test_squeezing_and_creators_against_their_definitions(name):
    space = build(ORACLE_FAMILIES[name]())
    sq, lam, d = squeezing_of(space), space.lam, space.space.d
    for n in range(space.space.N):
        # kappa_{n+1} = lambda_{n+1} (id (x) pinv(lambda_n))
        want = np.kron(np.eye(d), np.linalg.pinv(lam[n], rcond=1e-6, hermitian=True))
        want = lam[n + 1] @ want
        assert np.linalg.norm(sq.level(n + 1) - want) <= 1e-12 * max(1.0, np.linalg.norm(want))
        assert np.linalg.matrix_rank(space.stack(n)) == space.ranks[n + 1]


def test_verify_space_decomposes_nothing(monkeypatch):
    space = build(random_poi_family(2, 4, seed=3))

    def refuse(*args, **kwargs):
        raise AssertionError("verify_space called a decomposition")

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rep = verify_space(space)
    assert max(rep.values()) <= 1e-8


def test_space_stores_views_of_the_family_spectrum():
    fam = q_fock_recursive(TruncatedFockSpace(d=2, N=4), 0.5)
    space = build(fam)
    fields = {f.name for f in dataclasses.fields(InteractingSpace)}
    assert not {"Lambda", "lam"} & fields
    for n in fam.space.levels():
        # the kept part of each sector is a view of the family's eigenvectors of that sector
        assert all(np.shares_memory(xi, V) for xi, V in zip(space.parts[n].V, fam.parts(n).V, strict=True))
        compressed = space.xi[n].conj().T @ fam.level(n) @ space.xi[n]
        assert_allclose(compressed, np.diag(space.sqrt_mu[n] ** 2), atol=1e-12)


def dense_squeezing_residual(squeezing, rank_tol=_linalg.RANK_TOL):
    """The vanishing residual on an explicit ONB of H (x) (flag)-perp, dense norms throughout."""
    d = squeezing.space.d
    flag, worst = [np.ones((1, 1), dtype=complex)], 0.0
    for n in range(1, squeezing.space.N + 1):
        K, prev = squeezing.level(n), flag[-1]
        comp = null_space(prev.conj().T, rank_tol)
        if comp.shape[1]:
            resid = np.linalg.norm(K @ np.kron(np.eye(d), comp), 2)
            worst = max(worst, resid / max(1.0, np.linalg.norm(K, 2)))
        flag.append(orth(K @ np.kron(np.eye(d), prev), rank_tol))
    return worst, flag


def _bad_squeezing(top=(1.0, 1.0, 1.0, 1.0)):
    p = np.zeros((2, 2), dtype=complex)
    p[0, 0] = 1.0
    return Squeezing(TruncatedFockSpace(d=2, N=2), (p, np.diag(top)))


def _omega_collapse():
    rng = np.random.default_rng(13)
    omega = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    return pair_collapse_squeezing(3, omega=omega / np.linalg.norm(omega), levels=3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: squeezing_of(build(random_poi_family(2, 5, seed=4))),
        lambda: squeezing_of(build(random_poi_family(3, 4, seed=1, ranks=(1, 3, 5, 7, 9)))),
        lambda: squeezing_of(build(q_fock_recursive(TruncatedFockSpace(d=2, N=5), 0.5))),
        lambda: squeezing_of(build(discrete_monotone(TruncatedFockSpace(d=3, N=3)))),
        lambda: pair_collapse_squeezing(3, levels=3),
        _omega_collapse,
        _bad_squeezing,
        # larger off the flag than on it: the scale is ||K||, not ||K(id (x) F)||
        lambda: _bad_squeezing((1.0, 3.0, 1.0, 3.0)),
    ],
)
def test_is_squeezing_matches_the_kernel_basis_residual(make):
    sq = make()
    ok, worst, flag = is_squeezing(sq)
    want, want_flag = dense_squeezing_residual(sq)
    assert abs(worst - want) <= 1e-12
    assert ok == (want <= 1e-9)
    assert [F.shape for F in flag] == [F.shape for F in want_flag]
    for F, G in zip(flag, want_flag):
        assert_allclose(F @ F.conj().T, G @ G.conj().T, atol=1e-12)


@pytest.mark.parametrize(
    "make",
    [
        lambda: q_fock_recursive(TruncatedFockSpace(d=2, N=3), 0.5),
        lambda: random_poi_family(2, 3, seed=3),
        lambda: DeformationFamily(TruncatedFockSpace(d=2, N=3), random_poi_family(2, 3, seed=3).L),
    ],
    ids=["q-Fock", "poi", "dense"],
)
def test_squeezing_of_holds_the_space_arrays_without_copies(make):
    space = build(make())
    sq = squeezing_of(space)
    for n, (X, C, Y) in enumerate(sq.triples):
        assert np.shares_memory(X, space.xi[n + 1]) and np.shares_memory(Y, space.xi[n])
        assert np.shares_memory(C, space.stack(n))


def test_second_is_squeezing_call_decomposes_nothing(monkeypatch):
    sq = squeezing_of(build(random_poi_family(2, 4, seed=3)))
    first = is_squeezing(sq)

    def refuse(*args, **kwargs):
        raise AssertionError("is_squeezing repeated a decomposition")

    for name in ("svd", "eigh", "eigvalsh", "norm", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    second = is_squeezing(sq)
    assert second[:2] == first[:2] and second[0]
    assert all(a is b for a, b in zip(second[2], first[2]))
    for F in second[2]:
        assert not F.flags.writeable
        with pytest.raises(ValueError):
            F[0, 0] = 0.0


def test_factored_families_run_no_level_eigh(decompositions):
    fam = random_poi_family(3, 4, seed=2, ranks=(1, 3, 5, 7, 9))
    assert fam.factors is not None
    space = build(fam)
    back = space_from_squeezing(squeezing_of(space))
    assert space.ranks == back.ranks == (1, 3, 5, 7, 9)
    assert back.family.factors is not None
    assert not [shape for name, shape in decompositions if name == "eigh"]
    # each level's spectrum is a thin svd of its r_n x d**n factor
    for n in fam.space.levels():
        assert ("svd", fam.factors[n].shape) in decompositions
    assert max(rep for rep in verify_space(back).values()) <= 1e-8


def _random_isometry(rng, rows, cols):
    G = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(G)[0]


def _random_thin_squeezing(d, N, seed, aligned):
    """Random triples (X_n, C_n, Y_{n-1}): X_n a random isometry of rank at most
    4, C_n random, Y_{n-1} = X_{n-1} when aligned (then a squeezing whenever
    the ranks grow by at most d per level) and a random isometry otherwise."""
    rng = np.random.default_rng(seed)
    X_prev, triples = np.ones((1, 1), dtype=complex), []
    for n in range(1, N + 1):
        X = _random_isometry(rng, d**n, int(rng.integers(1, min(d**n, 4) + 1)))
        Y = X_prev if aligned else _random_isometry(rng, d ** (n - 1), int(rng.integers(1, min(d ** (n - 1), 4) + 1)))
        shape = (X.shape[1], d * Y.shape[1])
        C = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        triples.append((X, C, Y))
        X_prev = X
    return Squeezing.from_triples(TruncatedFockSpace(d=d, N=N), triples)


THIN_SQUEEZINGS = {
    "random_poi": lambda d, N, seed: squeezing_of(build(random_poi_family(d, N, seed=seed))),
    "q_fock": lambda d, N, seed: squeezing_of(
        build(q_fock_recursive(TruncatedFockSpace(d=d, N=N), np.random.default_rng(seed).uniform(-0.9, 0.9)))
    ),
    "monotone": lambda d, N, seed: squeezing_of(build(discrete_monotone(TruncatedFockSpace(d=d, N=N)))),
    "random_aligned": lambda d, N, seed: _random_thin_squeezing(d, N, seed, aligned=True),
    "random": lambda d, N, seed: _random_thin_squeezing(d, N, seed, aligned=False),
}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(THIN_SQUEEZINGS)), shape=st.sampled_from([(1, 4), (2, 1), (2, 3), (2, 5), (3, 2), (3, 3)]),
       seed=st.integers(0, 2**16))
def test_thin_squeezing_matches_its_dense_instance(kind, shape, seed):
    sq = THIN_SQUEEZINGS[kind](*shape, seed)
    dense = Squeezing(sq.space, [sq.level(n) for n in range(1, sq.space.N + 1)])
    ok, worst, flag = is_squeezing(sq)
    ok_dense, worst_dense, flag_dense = is_squeezing(dense)
    assert abs(worst - worst_dense) <= 1e-12 and ok == ok_dense
    assert [F.shape for F in flag] == [F.shape for F in flag_dense]
    for F, G in zip(flag, flag_dense):
        assert_allclose(F @ F.conj().T, G @ G.conj().T, atol=1e-12)
    levels = range(1, sq.space.N + 1)
    assert_allclose([_linalg.op_norm(C) for _, C, _ in sq.triples],
                    [_linalg.op_norm(sq.level(n)) for n in levels], rtol=1e-13, atol=0)
    for lam, want in zip(lambda_from_squeezing(sq), lambda_from_squeezing(dense), strict=True):
        assert_allclose(lam, want, atol=1e-10)
    if ok:
        back, back_dense = space_from_squeezing(sq), space_from_squeezing(dense)
        assert back.ranks == back_dense.ranks
        for lam, want in zip(back.lam, back_dense.lam, strict=True):
            assert_allclose(lam, want, atol=1e-10)


def test_squeezing_path_decomposes_nothing_wider_than_the_creator_stack(decompositions):
    space = build(random_poi_family(3, 5, seed=2, ranks=(1, 3, 6, 10, 15, 21)))
    decompositions.clear()
    sq = squeezing_of(space)
    ok, _, flag = is_squeezing(sq)
    assert ok and decompositions
    # each one fits inside some level's r_{n+1} x d r_n creator stack
    stacks = [(space.ranks[n + 1], 3 * space.ranks[n]) for n in range(5)]
    for _, shape in decompositions:
        assert any(shape[0] <= rows and shape[1] <= cols for rows, cols in stacks), shape
    assert [F.shape for F in flag] == [(3**n, r) for n, r in enumerate(space.ranks)]


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_squeezing_refuses_a_non_finite_entry(bad):
    # the SVD of is_squeezing used to fail with "SVD did not converge"
    space = TruncatedFockSpace(d=2, N=2)
    kappa = [np.eye(space.dim(n)) for n in (1, 2)]
    kappa[1][2, 1] = bad
    with pytest.raises(ValueError, match="level 2 squeezing has a non-finite entry"):
        Squeezing(space, kappa)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_from_triples_refuses_a_non_finite_entry(bad):
    sq = squeezing_of(build(q_fock_recursive(TruncatedFockSpace(d=2, N=3), 0.5)))
    triples = [[np.array(M) for M in triple] for triple in sq.triples]
    triples[0][1][1, 0] = bad
    with pytest.raises(ValueError, match="level 1 squeezing has a non-finite entry"):
        Squeezing.from_triples(sq.space, triples)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_creator_x_refuses_a_non_finite_probe(bad):
    # it returned NaN with a RuntimeWarning, and level_constants died in eigh
    space = build(q_fock_recursive(TruncatedFockSpace(d=2, N=3), 0.5))
    for call in (lambda x: space.creator_x(0, x), lambda x: on_vacuum([(+1, x)], space),
                 lambda x: level_constants(space, x)):
        with pytest.raises(ValueError, match="one-particle vector has a non-finite entry"):
            call([bad, 0.0])


def _same(a, b) -> bool:
    """Equal nested tuples of arrays (or None), entry by entry."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return (a is None and b is None) or (a is not None and b is not None and np.array_equal(a, b))


MEASURED = ("family", "parts", "residuals")


def _stacks(space) -> tuple:
    return tuple(space.stack(n) for n in range(space.space.N))


@pytest.mark.parametrize("make_space, make_other", [
    (lambda: q_fock_recursive(TruncatedFockSpace(d=2, N=3), 0.5),
     lambda: q_fock_recursive(TruncatedFockSpace(d=2, N=3), -0.5)),
    # the ranks differ, (1, 3, 9, 27) against (1, 3, 3, 1): a stored copy of them went stale
    (lambda: q_fock_recursive(TruncatedFockSpace(d=3, N=3), 0.5),
     lambda: discrete_monotone(TruncatedFockSpace(d=3, N=3))),
], ids=("qfock-to-qfock", "qfock-to-monotone"))
def test_derived_forms_follow_a_replaced_space(make_space, make_other):
    # everything but what build measured is derived from parts, so a space
    # made by dataclasses.replace cannot keep the forms of the space it was
    # made from
    space, other = build(make_space()), build(make_other())
    # formed before the replace
    space.ranks, space.sqrt_mu, space.sectors, _stacks(space), space.xi, space.blocks, space.kappa_norms
    new = dataclasses.replace(space, **{name: getattr(other, name) for name in MEASURED})
    for name in ("ranks", "sqrt_mu", "sectors", "xi", "blocks"):
        assert _same(getattr(new, name), getattr(other, name)), name
    assert new.kappa_norms == other.kappa_norms != space.kappa_norms
    assert _same(_stacks(new), _stacks(other))
    assert not _same(new.xi, space.xi)
    x = np.linspace(0.6, 0.8, other.space.d)
    for n in range(other.space.N):
        assert np.array_equal(new.creator_x(n, x), other.creator_x(n, x))
        blocks = np.split(new.stack(n), other.space.d, axis=1)
        assert np.array_equal(new.creator_x(n, x), x @ np.stack(blocks).transpose(1, 0, 2))


def test_a_transition_in_one_part_is_held_as_its_stack():
    # a level without sectors, or d = 1: [a_n(0) ... a_n(d-1)] is the row part's own array
    for family in (random_poi_family(2, 4, seed=1), identity_family(TruncatedFockSpace(d=1, N=4))):
        space = build(family)
        assert all(len(b) == 1 and s is b[0] for s, b in zip(_stacks(space), space.blocks, strict=True))
    space = build(q_fock_recursive(TruncatedFockSpace(d=2, N=3), 0.5))
    assert all(len(b) > 1 for b in space.blocks)
    assert not any(a.flags.writeable for a in (*_stacks(space), *(p for b in space.blocks for p in b)))


@pytest.mark.parametrize("n", [-1, 3])
def test_a_transition_outside_the_space_is_refused(n):
    # -1 would index the top transition from the end, and N is past it
    space = build(identity_family(TruncatedFockSpace(d=1, N=3)))
    for call in (space.stack, lambda n: space.creator_x(n, [1.0]), lambda n: creator_map_constant(space, n)):
        with pytest.raises(ValueError, match=rf"transition {n} is outside 0\.\.2"):
            call(n)
    assert not space._stacks


def test_a_reader_of_one_transition_places_only_its_stack():
    # the top stack of a large space is by far its largest array: a word that
    # stays low, or the creator map of one level, must not form it
    space = build(q_fock_recursive(TruncatedFockSpace(d=2, N=5), 0.5))
    x = np.array([0.6, 0.8])
    assert vacuum_value([(-1, x), (+1, x)], space) == pytest.approx(1.0)
    assert set(space._stacks) == set(space._rows) == {0}  # build formed no creator stack
    creator_map_constant(space, 2)
    assert set(space._stacks) == {0, 2}
    assert space.stack(2) is space.stack(2) and _stacks(space) and set(space._stacks) == set(range(5))
