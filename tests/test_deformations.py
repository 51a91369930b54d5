import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import null_space

from fockbench import _linalg
from fockbench.interacting import Squeezing, random_poi_family
from fockbench.subproduct import ProjectionFamily
from fockbench.tensor_core import TruncatedFockSpace, flat_index, type_words
from fockbench.deformations import (
    DENSE_LEVEL_BYTES,
    DeformationFamily,
    discrete_monotone,
    identity_family,
    q_fock,
    q_fock_recursive,
    validate,
)
from oracles import factor_K, kept, spectrum


# ------------------------------------------------------------------ q-Fock


def test_q_zero_is_identity_family():
    sp = TruncatedFockSpace(d=2, N=4)
    fam = q_fock(sp, 0.0)
    for n in sp.levels():
        assert_allclose(fam.level(n), np.eye(sp.dim(n)), atol=0)


def test_q_fock_level2_block():
    # on span{e0 x e1, e1 x e0} the level-2 matrix is [[1,q],[q,1]]
    sp = TruncatedFockSpace(d=2, N=2)
    q = 0.37
    L2 = q_fock(sp, q).level(2)
    idx = flat_index([(0, 1), (1, 0)], 2)
    block = L2[np.ix_(idx, idx)]
    assert_allclose(block, np.array([[1, q], [q, 1]]), atol=1e-14)
    assert_allclose(np.linalg.eigvalsh(block), [1 - q, 1 + q], atol=1e-14)


def test_symmetrizer_projection_at_q_one():
    sp = TruncatedFockSpace(d=2, N=3)
    P = q_fock(sp, 1.0).level(3) / math.factorial(3)
    assert_allclose(P @ P, P, atol=1e-12)
    assert round(np.trace(P).real) == math.comb(2 + 3 - 1, 3)  # dim of sym power


def test_antisymmetrizer_projection_at_q_minus_one():
    sp = TruncatedFockSpace(d=3, N=3)
    P = q_fock(sp, -1.0).level(3) / math.factorial(3)
    assert_allclose(P @ P, P, atol=1e-12)
    assert round(np.trace(P).real) == math.comb(3, 3)


@pytest.mark.parametrize("q", [-0.9, 0.3, 0.7])
@pytest.mark.parametrize("d", [2, 3])
def test_recursive_matches_naive(d, q):
    sp = TruncatedFockSpace(d=d, N=5 if d == 2 else 4)
    naive = q_fock(sp, q)
    fast = q_fock_recursive(sp, q)
    for n in sp.levels():
        assert np.max(np.abs(naive.level(n) - fast.level(n))) <= 1e-12


def test_recursive_q_one_level2():
    sp = TruncatedFockSpace(d=2, N=2)
    flip = np.eye(4)[:, [0, 2, 1, 3]]
    assert_allclose(q_fock_recursive(sp, 1.0).level(2), np.eye(4) + flip, atol=1e-14)


def test_q_out_of_range_rejected():
    sp = TruncatedFockSpace(d=2, N=2)
    with pytest.raises(ValueError):
        q_fock(sp, 1.5)


@pytest.mark.parametrize("q", [float("nan"), float("inf"), float("-inf")])
def test_q_not_in_the_unit_interval_rejected(q):
    with pytest.raises(ValueError, match="must lie in"):
        q_fock_recursive(TruncatedFockSpace(d=2, N=2), q)


def test_naive_cap():
    with pytest.raises(ValueError):
        q_fock(TruncatedFockSpace(d=2, N=9), 0.5)


@pytest.mark.parametrize("d, N", [(2, 14), (2, 17), (3, 9)])
@pytest.mark.parametrize(
    "make", [lambda sp: q_fock_recursive(sp, 0.5), lambda sp: q_fock(sp, 0.5), discrete_monotone, identity_family]
)
def test_a_dense_family_too_large_to_form_is_refused_before_it_allocates(make, d, N):
    # the cap is 16 d**(2N) <= DENSE_LEVEL_BYTES: 2 GiB lets d=2, N=13 and d=3, N=8 through
    sp = TruncatedFockSpace(d=d, N=N)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense top level"):
            make(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert all(16 * d ** (2 * N) <= DENSE_LEVEL_BYTES < 16 * d ** (2 * N + 2) for d, N in ((2, 13), (3, 8)))


def test_a_factored_family_of_any_size_is_accepted():
    # rank one per level, the words e_0 (x) ... (x) e_0: no level is dense
    sp = TruncatedFockSpace(d=2, N=17)
    factors = [np.eye(1, sp.dim(n)) for n in sp.levels()]
    family = DeformationFamily.from_factors(sp, factors)
    assert validate(family).ok
    assert [len(kept(family, n)[0]) for n in sp.levels()] == [1] * 18


# ---------------------------------------------------------------- monotone


def test_monotone_level2():
    sp = TruncatedFockSpace(d=2, N=3)
    fam = discrete_monotone(sp)
    assert_allclose(np.diag(fam.level(2)), [0, 0, 1, 0], atol=0)  # only (1,0)
    assert_allclose(fam.level(1), np.eye(2), atol=0)
    assert_allclose(fam.level(3), np.zeros((8, 8)), atol=0)  # pigeonhole


@pytest.mark.parametrize("d,N", [(2, 3), (3, 4), (4, 4)])
def test_monotone_rank_is_binomial(d, N):
    fam = discrete_monotone(TruncatedFockSpace(d=d, N=N))
    for n in range(N + 1):
        assert int(np.trace(fam.level(n)).real) == (math.comb(d, n) if n <= d else 0)


def test_monotone_validates():
    rep = validate(discrete_monotone(TruncatedFockSpace(d=3, N=4)))
    assert rep.ok


# ---------------------------------------------------------------- validate


@pytest.mark.parametrize("q", [-0.9, -0.5, 0.0, 0.5, 0.9])
@pytest.mark.parametrize("d", [2, 3])
def test_qfock_psd_evidence(d, q):
    sp = TruncatedFockSpace(d=d, N=6 if d == 2 else 5)
    rep = validate(q_fock_recursive(sp, q))
    assert rep.psd_ok
    assert rep.kernel_ok
    for lo, hi in zip(rep.min_eigs, rep.max_eigs):
        assert lo >= -1e-10 * max(hi, 1.0)


def test_validate_flags_kernel_violation():
    sp = TruncatedFockSpace(d=2, N=3)
    L = [np.ones((1, 1)), np.eye(2), np.zeros((4, 4)), np.eye(8)]
    rep = validate(DeformationFamily(sp, tuple(L)))
    assert rep.psd_ok
    assert not rep.kernel_ok


def test_validate_rejects_non_hermitian():
    sp = TruncatedFockSpace(d=2, N=1)
    L1 = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        validate(DeformationFamily(sp, (np.ones((1, 1)), L1)))


def kernel_basis_residuals(family, rank_tol=_linalg.RANK_TOL):
    """The kernel-condition residuals over an explicit kernel basis V_n of each
    level: max_i ||Lambda_{n+1}(e_i (x) V_n)|| / max(1, ||Lambda_{n+1}||)."""
    d, out = family.space.d, []
    for n in range(family.space.N):
        V = null_space(family.level(n), rank_tol)
        mu, xi = kept(family, n + 1, rank_tol)
        Lambda = np.sqrt(mu)[:, None] * xi.conj().T
        blocks = [np.linalg.norm(Lambda[:, i * len(V):(i + 1) * len(V)] @ V) for i in range(d)]
        out.append(max(blocks) / max(1.0, np.linalg.norm(Lambda)) if V.shape[1] and len(mu) else 0.0)
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_poi_family(2, 4, seed=1, ranks=(1, 1, 2, 3, 5)),
        lambda: random_poi_family(3, 3, seed=2, ranks=(1, 2, 0, 0)),
        lambda: discrete_monotone(TruncatedFockSpace(d=3, N=4)),
        lambda: q_fock_recursive(TruncatedFockSpace(d=2, N=4), -1.0),
        lambda: DeformationFamily(TruncatedFockSpace(d=2, N=3),
                                  (np.ones((1, 1)), np.diag([1.0, 0.0]), np.eye(4), np.eye(8))),
        lambda: ProjectionFamily.from_ranges(
            TruncatedFockSpace(d=2, N=2), (np.ones((1, 1)), np.eye(2)[:, :1], np.eye(4)[:, 1:3])
        ),
    ],
    ids=["poi", "poi-rank0", "monotone", "q=-1", "violated", "ranges-violated"],
)
def test_basis_free_kernel_rule_matches_the_kernel_basis(make):
    fam = make()
    rep = validate(fam)
    want = kernel_basis_residuals(fam)
    assert_allclose(rep.kernel_violations, want, rtol=0, atol=1e-14)
    assert rep.kernel_ok == (max(want) <= 1e-8)


@pytest.mark.parametrize(
    "make,read",
    [
        (lambda sp, M: DeformationFamily(sp, (np.ones((1, 1)), M)), lambda fam: fam.level(1)),
        (lambda sp, M: Squeezing(sp, (M,)), lambda sq: sq.level(1)),
        (lambda sp, M: ProjectionFamily(sp, (np.ones((1, 1)), M)), lambda fam: fam.level(1)),
    ],
    ids=["deformation", "squeezing", "projection"],
)
def test_family_stores_its_own_copy(make, read):
    sp = TruncatedFockSpace(d=2, N=1)
    M = np.diag([1.0, 0.0]).astype(complex)
    view = M[:, :]
    fam = make(sp, M)
    assert read(fam) is not M
    assert M.flags.writeable and not read(fam).flags.writeable
    view[1, 1] = 1.0
    assert_allclose(read(fam), np.diag([1.0, 0.0]), atol=0)


def read_only_views(base):
    """Read-only views of each item of a writable array, which stays in the caller's reach."""
    views = [base[k] for k in range(len(base))]
    for v in views:
        v.setflags(write=False)
    return views


def test_a_read_only_view_of_a_writable_array_is_copied():
    # the caller writes NaN through the base after the finiteness checks
    sp = TruncatedFockSpace(d=2, N=1)
    base = np.ones((2, 1, 1))
    fam = DeformationFamily.from_blocks(sp, ((np.ones((1, 1)),), tuple(read_only_views(base))))
    base[:] = np.nan
    assert all(np.isfinite(M).all() for M in fam.blocks(1).mats)
    sp = TruncatedFockSpace(d=1, N=1)
    base = np.ones((3, 1, 1))
    sq = Squeezing.from_triples(sp, (tuple(read_only_views(base)),))
    base[:] = np.nan
    assert np.isfinite(sq.level(1)).all()


def test_frozen_freezes_the_owner_of_a_view():
    base = np.eye(3)
    view = _linalg.frozen(base[1:])
    assert not base.flags.writeable and not view.flags.writeable
    assert _linalg.read_only(view) is view
    # an owner that is no ndarray may be written through another handle
    buffer = bytearray(8)
    shared = np.frombuffer(buffer)
    shared.setflags(write=False)
    assert not _linalg.unwritable(shared) and _linalg.read_only(shared) is not shared


def test_family_requires_unit_vacuum():
    sp = TruncatedFockSpace(d=2, N=1)
    with pytest.raises(ValueError):
        DeformationFamily(sp, (2.0 * np.ones((1, 1)), np.eye(2)))


# ---------------------------------------------------------------- factor_K


def test_factor_identity_family():
    sp = TruncatedFockSpace(d=2, N=3)
    fac = factor_K(identity_family(sp))
    for n in range(1, 4):
        assert_allclose(fac.level(n), np.eye(sp.dim(n)), atol=1e-12)


def test_factor_one_mode_scalars():
    # d = 1: L_n = [l_n] with l_n = k_n ... k_1 gives K_n = [k_n]
    sp = TruncatedFockSpace(d=1, N=4)
    k = [1.5, 0.8, 2.0, 0.3]
    ell = np.cumprod(k)
    fam = DeformationFamily(sp, tuple([np.ones((1, 1))] + [np.array([[e]]) for e in ell]))
    fac = factor_K(fam)
    for n in range(1, 5):
        assert_allclose(fac.level(n), [[k[n - 1]]], atol=1e-12)


@pytest.mark.parametrize("q", [-0.7, 0.4, 0.9])
def test_factor_reconstructs_qfock(q):
    sp = TruncatedFockSpace(d=2, N=4)
    fam = q_fock_recursive(sp, q)
    fac = factor_K(fam)
    assert max(fac.residuals) <= 1e-9
    rebuilt = fac.reconstruct()
    for n in sp.levels():
        assert_allclose(rebuilt[n], fam.level(n), atol=1e-9 * max(1.0, np.abs(fam.level(n)).max()))


def test_factor_detects_kernel_failure():
    sp = TruncatedFockSpace(d=2, N=3)
    L = [np.ones((1, 1)), np.eye(2), np.zeros((4, 4)), np.eye(8)]
    with pytest.raises(ValueError):
        factor_K(DeformationFamily(sp, tuple(L)))


# ---------------------------------------------------------------- factors


@st.composite
def factor_profiles(draw):
    """(d, ranks): one rank per level in 0..d**n, so rank 0 and full rank occur."""
    d = draw(st.integers(1, 3))
    N = draw(st.integers(1, 3 if d == 3 else 4))
    return d, (1,) + tuple(draw(st.integers(0, d**n)) for n in range(1, N + 1))


def random_factor(rng, rows, cols):
    """rows x cols of full rank rows, singular values in [0.1, 1]."""
    A = np.linalg.qr(rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows)))[0]
    B = np.linalg.qr(rng.standard_normal((cols, rows)) + 1j * rng.standard_normal((cols, rows)))[0]
    return (A * rng.uniform(0.1, 1.0, rows)) @ B.conj().T


@settings(max_examples=60, deadline=None)
@given(profile=factor_profiles(), seed=st.integers(0, 2**32 - 1))
@example(profile=(2, (1, 0, 4, 8)), seed=0)  # a rank-0 level, then full-rank ones
@example(profile=(3, (1, 3, 0, 5)), seed=1)
def test_factored_spectrum_matches_eigh(profile, seed):
    d, ranks = profile
    rng = np.random.default_rng(seed)
    space = TruncatedFockSpace(d=d, N=len(ranks) - 1)
    factors = [np.ones((1, 1))] + [random_factor(rng, r, space.dim(n)) for n, r in enumerate(ranks) if n]
    fam = DeformationFamily.from_factors(space, factors)
    for n in space.levels():
        # the thin contract: len(w) eigenvectors, the other eigenvalues exactly 0
        w, V = spectrum(fam, n)
        assert len(w) == V.shape[1] <= space.dim(n)
        w_dense, V_dense = np.linalg.eigh(fam.level(n))
        kept, kept_dense = _linalg.kept_mask(w), _linalg.kept_mask(w_dense)
        assert np.count_nonzero(kept) == np.count_nonzero(kept_dense) == ranks[n]
        assert np.all(np.diff(w) >= 0)
        assert_allclose(w[kept], w_dense[kept_dense], rtol=1e-12, atol=0)
        assert_allclose(w_dense[: space.dim(n) - len(w)], 0.0, rtol=0, atol=1e-12)
        xi, xi_dense = V[:, kept], V_dense[:, kept_dense]
        assert_allclose(xi @ xi.conj().T, xi_dense @ xi_dense.conj().T, rtol=0, atol=1e-10)
        assert_allclose(V.conj().T @ V, np.eye(len(w)), rtol=0, atol=1e-12)


def test_from_factors_derives_L_and_refuses_bad_factors():
    space = TruncatedFockSpace(d=2, N=2)
    rng = np.random.default_rng(3)
    factors = [np.ones((1, 1)), random_factor(rng, 2, 2), random_factor(rng, 3, 4)]
    fam = DeformationFamily.from_factors(space, factors)
    for F, L in zip(factors, fam.L, strict=True):
        assert_allclose(L, F.conj().T @ F, rtol=0, atol=1e-14)
        assert np.array_equal(L, L.conj().T)
    assert not fam.factors[2].flags.writeable
    factors[2][0, 0] = 5.0  # the family holds copies
    assert fam.factors[2][0, 0] != 5.0
    assert DeformationFamily(space, fam.L).factors is None
    with pytest.raises(ValueError, match="level 2 factor has shape"):
        DeformationFamily.from_factors(space, factors[:2] + [np.ones((3, 3))])
    with pytest.raises(ValueError, match="level 0 factor must be"):
        DeformationFamily.from_factors(space, [2 * np.ones((1, 1))] + factors[1:])
    with pytest.raises(ValueError, match="one factor per level"):
        DeformationFamily.from_factors(space, factors[:2])


NON_FINITE = (np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_dense_family_refuses_a_non_finite_entry(bad):
    # max(0.0, nan) is 0.0: a NaN level would pass validate and verify as ok
    space = TruncatedFockSpace(d=2, N=2)
    L = [np.eye(space.dim(n)) for n in space.levels()]
    L[2][1, 1] = bad
    with pytest.raises(ValueError, match="level 2 matrix has a non-finite entry"):
        DeformationFamily(space, L)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_from_blocks_refuses_a_non_finite_entry(bad):
    space = TruncatedFockSpace(d=2, N=3)
    blocks = [[np.eye(len(w)) for w in type_words(n, 2)] for n in space.levels()]
    blocks[3][1][0, 1] = bad
    with pytest.raises(ValueError, match="level 3 block has a non-finite entry"):
        DeformationFamily.from_blocks(space, blocks)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_from_factors_refuses_a_non_finite_entry(bad):
    family = random_poi_family(2, 3, seed=0, ranks=(1, 2, 3, 4))
    factors = [np.array(F) for F in family.factors]
    factors[1][0, 1] = bad
    with pytest.raises(ValueError, match="level 1 factor has a non-finite entry"):
        DeformationFamily.from_factors(family.space, factors)
