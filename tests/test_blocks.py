"""A level is its sectors: block families, their spectra, creators and
residuals, against the naive levels and against whole-matrix references."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fockbench.boundedness import pair_collapse_family
from fockbench.deformations import DeformationFamily, discrete_monotone, q_fock, q_fock_recursive, validate
from fockbench.interacting import build, random_poi_family, verify_space
from fockbench.subproduct import ProjectionFamily, identity_projections, random_adjacent_family, two_sided_test
from fockbench.tensor_core import TruncatedFockSpace, occupation_types, type_words
from oracles import one_matrix_space


@pytest.mark.parametrize("q", [-1.0, -0.5, 0.0, 0.5, 0.97, 1.0])
@pytest.mark.parametrize("d, N", [(2, 5), (3, 4)])
def test_q_fock_blocks_equal_the_naive_levels(q, d, N):
    space = TruncatedFockSpace(d, N)
    naive, family = q_fock(space, q), q_fock_recursive(space, q)
    for n in space.levels():
        L, blocks = naive.level(n), family.blocks(n)
        types = occupation_types(n, d)
        assert not np.any(L, where=types[:, None] != types[None, :])
        assert list(blocks.labels) == list(range(len(type_words(n, d))))
        scale = max(1.0, float(np.abs(L).max()))
        for words, M in zip(blocks.words, blocks.mats, strict=True):
            assert_allclose(M, L[np.ix_(words, words)], rtol=0, atol=1e-12 * scale)
        assert_allclose(family.level(n), L, rtol=0, atol=1e-12 * scale)


def unstructured_families():
    poi = random_poi_family(2, 4, seed=3, ranks=(1, 2, 3, 5, 6))
    return {
        "dense random": DeformationFamily(poi.space, poi.L),
        "factored random": poi,
        "factored adjacent": random_adjacent_family(2, 6, ranks=(1, 2, 3, 4, 5, 6, 7), seed=7),
        "dense real": DeformationFamily(poi.space, tuple(L.real for L in poi.L)),
    }


@pytest.mark.parametrize("name", ["dense random", "factored random", "factored adjacent", "dense real"])
def test_a_level_without_sectors_keeps_its_one_matrix_arrays(name):
    # the one-part instance runs the block code on whole matrices: the
    # same arrays as one eigh (or SVD) and one GEMM per level, bit for bit
    family = unstructured_families()[name]
    space, want = build(family), one_matrix_space(family)
    assert all(s is None for s in space.sectors[1:])
    for n in family.space.levels():
        assert np.array_equal(space.xi[n], want["xi"][n]) and np.array_equal(space.sqrt_mu[n], want["sqrt_mu"][n])
    stacks = [space.stack(n) for n in range(family.space.N)]
    for got, ref in zip(stacks, want["creators"], strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(np.split(got, family.space.d, axis=1), ref, strict=True))
    assert list(space.residuals) == want["residuals"]
    rep = verify_space(space)
    assert (rep["gram"], rep["isometry"]) == (want["gram"], want["isometry"])


@pytest.mark.parametrize("make", [lambda: q_fock_recursive(TruncatedFockSpace(2, 5), 0.5),
                                  lambda: discrete_monotone(TruncatedFockSpace(3, 3)),
                                  lambda: pair_collapse_family(3)], ids=["q-Fock", "monotone", "mixed"])
def test_block_creators_equal_the_whole_matrix_ones(make):
    # in the same sector-major basis, the creators by blocks are the creators
    # Lambda_{n+1}(e_i (x) pinv(Lambda_n)) taken on whole matrices
    family = make()
    space = build(family)
    for n in range(family.space.N):
        xi, xi_next, s = space.xi[n], space.xi[n + 1], space.sqrt_mu
        Lambda = s[n + 1][:, None] * xi_next.conj().T
        for i, a in enumerate(np.split(space.stack(n), family.space.d, axis=1)):
            columns = Lambda[:, i * family.space.dim(n) : (i + 1) * family.space.dim(n)]
            assert_allclose(a, columns @ (xi / s[n]), rtol=0, atol=1e-12)


def test_the_quotient_basis_is_sector_major():
    space = build(q_fock_recursive(TruncatedFockSpace(3, 4), 0.5))
    for n, (sectors, parts) in enumerate(zip(space.sectors, space.parts)):
        assert np.array_equal(sectors, np.repeat(np.arange(len(parts.w)), [len(w) for w in parts.w]))
        for t, mu in enumerate(parts.w):
            assert np.all(np.diff(mu) >= 0)
            assert np.array_equal(space.sqrt_mu[n][sectors == t], np.sqrt(mu))
            # the columns of sector t live on its words
            rest = np.setdiff1d(np.arange(3**n), type_words(n, 3)[t])
            assert not np.any(space.xi[n][np.ix_(rest, np.flatnonzero(sectors == t))])


def test_the_q_fock_chain_at_d3_n7_forms_no_level_sized_matrix():
    # one real 3**7 x 3**7 matrix is 8 * 3**14 bytes, 38.3 MB
    tracemalloc.start()
    try:
        family = q_fock_recursive(TruncatedFockSpace(3, 7), 0.5)
        report = validate(family)
        space = build(family)
        rep = verify_space(space)
        two_sided = two_sided_test(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and space.ranks == tuple(3**n for n in range(8)) and two_sided["exists"]
    assert max(rep.values()) <= 1e-8
    assert peak < 8 * 3**14


def test_identity_projections_are_blocks():
    # one real 2**10 x 2**10 matrix is 8 * 2**20 bytes, 8.4 MB
    tracemalloc.start()
    try:
        family = identity_projections(2, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert family.ranks == tuple(2**n for n in range(11))


def test_a_dense_family_keeps_only_its_blocks():
    # one real 2**10 x 2**10 level is 8 * 4**10 bytes, 8.4 MB; the type blocks
    # of all eleven levels take 2 MB
    space = TruncatedFockSpace(2, 10)
    L = q_fock_recursive(space, 0.5).L
    tracemalloc.start()
    try:
        family = DeformationFamily(space, L)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 8 * 4**10 and peak < 8 * 4**10
    assert all(family.blocks(n).labels is not None for n in space.levels())


def level_inputs(form):
    """(family, its dense levels as given or as their blocks or factors define them)."""
    space = TruncatedFockSpace(2, 3)
    q, poi = q_fock_recursive(space, 0.5), random_poi_family(2, 3, seed=3, ranks=(1, 2, 3, 4))
    if form == "block":
        return q, [np.array(M) for M in q.L]
    if form == "factored":
        return poi, [(G + G.conj().T) / 2.0 for G in (F.conj().T @ F for F in poi.factors)]
    L = [np.array(M) for M in (q if form == "certified dense" else poi).L]
    return DeformationFamily(space, L), L


@pytest.mark.parametrize("form", ["certified dense", "one-block dense", "block", "factored"])
def test_a_level_is_read_only_and_equals_its_input(form):
    family, L = level_inputs(form)
    want = [np.array(M) for M in L]
    for M in L:
        M[...] = 7.0  # the family holds no matrix it was given
    for n, M in enumerate(want):
        got = family.level(n)
        assert np.array_equal(got, M) and not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 0.0
        if form != "factored":
            assert (family.blocks(n).labels is None) == (form == "one-block dense" and n > 0)


def test_a_dense_projection_family_is_checked_block_by_block():
    pi = identity_projections(2, 4).L
    assert ProjectionFamily(TruncatedFockSpace(2, 4), pi).ranks == tuple(2**n for n in range(5))
    bad = [np.array(P) for P in pi]
    bad[3][0, 0] = 0.5  # one block stops being idempotent
    with pytest.raises(ValueError, match="pi_3 is not idempotent"):
        ProjectionFamily(TruncatedFockSpace(2, 4), bad)
    bad = [np.array(P) for P in pi]
    bad[2][0, 1] = 1e-3  # an entry between two types, not Hermitian
    with pytest.raises(ValueError, match="pi_2 is not Hermitian"):
        ProjectionFamily(TruncatedFockSpace(2, 4), bad)
