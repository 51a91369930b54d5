import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fockbench.deformations import (
    DeformationFamily,
    discrete_monotone,
    factor_K,
    identity_family,
    q_fock,
    q_fock_recursive,
    validate,
)
from fockbench.interacting import (
    InteractingSpace,
    Squeezing,
    build,
    is_squeezing,
    lambda_from_squeezing,
    random_poi_family,
    space_from_squeezing,
    squeezing_of,
    vacuum_expectation,
    verify_space,
    word_on_vacuum,
)
from fockbench.tensor_core import TruncatedFockSpace


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
        assert_allclose(space.creator(n, 0), [[np.sqrt(k[n])]], atol=1e-12)


def test_q_is_minus_one_collapses_to_antisymmetric_ranks():
    space = build(q_fock(TruncatedFockSpace(d=2, N=4), -1.0))
    assert space.ranks == (1, 2, 1, 0, 0)
    # creators above the top antisymmetric level are empty
    assert space.creator(2, 0).shape == (0, 1)
    assert space.creator(3, 1).shape == (0, 0)


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
            lu, cu = word_on_vacuum(u, space)
            lv, cv = word_on_vacuum(v, space)
            lhs = np.vdot(cu, cv) if lu == lv else 0.0
            ustar = [(-1, x) for (_, x) in reversed(u)]
            rhs = vacuum_expectation(ustar + v, space)
            assert abs(lhs - rhs) <= 1e-10


def test_vacuum_expectation_degenerate_cases():
    space = build(identity_family(TruncatedFockSpace(d=2, N=2)))
    e0 = np.array([1.0, 0.0])
    assert vacuum_expectation([], space) == 1.0
    # annihilator hits the vacuum
    assert vacuum_expectation([(-1, e0)], space) == 0.0
    # unbalanced word has zero expectation
    assert vacuum_expectation([(+1, e0)], space) == 0.0
    with pytest.raises(ValueError):
        vacuum_expectation([(+1, e0)] * 3, space)
    with pytest.raises(ValueError):
        vacuum_expectation([("sideways", e0)], space)
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
            a = vacuum_expectation(ustar + v, space)
            b = vacuum_expectation(ustar + v, rebuilt)
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
    # a negative eigenvalue that eps_psd tolerates is kernel for build, so it
    # is kernel for validate and factor_K as well
    space = TruncatedFockSpace(d=2, N=2)
    one = np.eye(1, dtype=complex)
    fam = DeformationFamily(space, (one, np.diag([1.0, -1e-8]), np.eye(4)), eps_psd=1e-6)
    report = validate(fam)
    assert report.kernel_dims == [0, 1, 0] and not report.kernel_ok
    with pytest.raises(ValueError, match="fails validation"):
        build(fam)
    with pytest.raises(ValueError, match="kernel condition fails"):
        factor_K(fam)
    L2 = np.eye(4, dtype=complex)
    L2[3, 3] = -1e-8
    fam = DeformationFamily(space, (one, np.eye(2), L2), eps_psd=1e-6)
    report = validate(fam)
    assert report.ok and report.kernel_dims == [0, 0, 1]
    assert build(fam).ranks == (1, 2, 3)


def test_build_checks_the_kernel_condition_itself():
    # the violation 1e-9 passes validate's kernel_tol, but the creators'
    # residual is relative to ||Lambda_2||, where sqrt(1e-9) survives
    space = TruncatedFockSpace(d=2, N=2)
    fam = DeformationFamily(
        space, (np.eye(1), np.diag([1.0, 1e-12]), np.diag([1.0, 1e-9, 1.0, 1e-9]))
    )
    assert validate(fam).ok
    with pytest.raises(ValueError, match="kernel condition violated") as err:
        build(fam)
    assert "residual 2.236e-05" in str(err.value)


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
        stacked = np.hstack(space.creators[n])
        assert np.linalg.matrix_rank(stacked) == space.ranks[n + 1]


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
        assert np.shares_memory(space.xi[n], fam.spectrum(n)[1])
        compressed = space.xi[n].conj().T @ fam.level(n) @ space.xi[n]
        assert_allclose(compressed, np.diag(space.sqrt_mu[n] ** 2), atol=1e-12)
