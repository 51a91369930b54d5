"""Occupation-type sectors: the labels, the certified sector spectrum, and
the blockwise ranks and norms read on the creator stacks."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockbench import _linalg
from fockbench.boundedness import pair_collapse_family
from fockbench.deformations import (
    DeformationFamily,
    creator_stacks,
    discrete_monotone,
    identity_family,
    q_fock_recursive,
    transition,
    validate,
)
from fockbench.interacting import build, random_poi_family, verify_space
from fockbench.subproduct import pi_space, symmetric_projections, two_sided_test
from fockbench.tensor_core import (
    TruncatedFockSpace,
    kron_id,
    letter_table,
    occupation_types,
    type_words,
    words,
)

from oracles import quotient_maps, spectrum


def hermitian_part(M):
    return (M + M.conj().T) / 2.0


def svd_rank(M, rank_tol=_linalg.RANK_TOL):
    """The rank of one matrix, or of the block-diagonal matrix of a list of blocks."""
    blocks = M if isinstance(M, list) else [M]
    return int(np.count_nonzero(_linalg.kept_mask(_linalg.singular_values(blocks), rank_tol)))


def random_sector_psd(rng, space, off_type=None):
    """Random PSD levels with no entry between two types (rank at most half
    of each level, so the kernels are not empty); with ``off_type`` = (n, r, c)
    one Hermitian pair of entries between types is set at level n."""
    mats = [np.ones((1, 1), dtype=complex)]
    for n in range(1, space.N + 1):
        types = occupation_types(n, space.d)
        dim = space.dim(n)
        B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        B *= types[:, None] == types[None, :]
        B[:, : dim // 2] = 0.0
        mats.append(B @ B.conj().T)
    if off_type is not None:
        n, r, c = off_type
        mats[n][r, c] += 0.25 + 0.5j
        mats[n][c, r] += 0.25 - 0.5j
    return DeformationFamily(space, tuple(mats))


def test_occupation_types_label_letter_counts():
    for d, n in [(1, 3), (2, 4), (3, 3), (4, 2)]:
        table, types = words(n, d), occupation_types(n, d)
        counts = np.stack([np.count_nonzero(table == i, axis=1) for i in range(d)], axis=1)
        same = (counts[:, None, :] == counts[None, :, :]).all(axis=2)
        assert np.array_equal(same, types[:, None] == types[None, :])
        assert types.max() + 1 == math.comb(n + d - 1, n)
        # labels number the types in the big-endian order of their sorted words
        first = np.unique(types, return_index=True)[1]
        assert list(first) == sorted(first, key=lambda k: tuple(sorted(table[k])))
        assert not types.flags.writeable


@pytest.mark.parametrize("d, n", [(1, 2), (2, 3), (3, 2), (4, 2)])
def test_letter_types_add_one_letter_on_either_side(d, n):
    # type K of level n+1 is the type k of level n plus one letter i, on either side
    groups, types, types_next = type_words(n + 1, d), occupation_types(n, d), occupation_types(n + 1, d)
    for K, (first, last) in enumerate(zip(letter_table(n + 1, d), letter_table(n + 1, d, last=True))):
        assert np.array_equal(groups[K], np.flatnonzero(types_next == K))
        starts = []
        for i, cols, k in first:
            assert isinstance(cols, slice) and cols.step is None
            lo, hi = cols.start, cols.stop
            tails = groups[K][lo:hi] - i * d**n
            assert np.all((tails >= 0) & (tails < d**n)) and np.array_equal(tails, type_words(n, d)[k])
            starts.append((lo, hi))
        assert [lo for lo, _ in starts] == [0] + [hi for _, hi in starts[:-1]] and starts[-1][1] == len(groups[K])
        covered = np.zeros(len(groups[K]), dtype=int)
        for i, pos, k in last:
            assert not pos.flags.writeable
            heads, letters = np.divmod(groups[K][pos], d)
            assert np.all(letters == i) and np.array_equal(heads, type_words(n, d)[k])
            covered[pos] += 1
        assert np.all(covered == 1)
        for i, w in itertools.product(range(d), range(d**n)):
            if types_next[i * d**n + w] == K:
                assert (i, types[w]) in [(a, k) for a, *_, k in first]
            if types_next[w * d + i] == K:
                assert (i, types[w]) in [(a, k) for a, _, k in last]


@pytest.mark.parametrize("table", ["occupation_types", "type_words", "letter_table"])
def test_cached_type_tables_cannot_be_written_through_their_bases(table):
    # every caller shares the cached arrays, so a write through the array that
    # owns their memory would reach every family and letter table built later
    arrays = {
        "occupation_types": lambda: [occupation_types(3, 2)],
        "type_words": lambda: list(type_words(3, 2)),
        "letter_table": lambda: [pos for K in letter_table(3, 2, last=True) for _, pos, _ in K],
    }[table]()
    for a in arrays:
        assert a.base is not None
        with pytest.raises(ValueError, match="read-only"):
            a.base[...] = a.base.copy()  # the same values: a write that gets through changes nothing


KINDS = ("q-1", "q-0.5", "q0", "q0.5", "q1", "monotone", "identity", "random")


def make_family(kind, d, N, seed):
    space = TruncatedFockSpace(d=d, N=N)
    if kind.startswith("q"):
        return q_fock_recursive(space, float(kind[1:]))
    if kind == "monotone":
        return discrete_monotone(space)
    if kind == "identity":
        return identity_family(space)
    return random_sector_psd(np.random.default_rng(seed), space)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), d=st.integers(1, 3), N=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_sector_spectrum_matches_eigh(kind, d, N, seed):
    fam = make_family(kind, d, N, seed)
    for n in fam.space.levels():
        H = hermitian_part(fam.level(n))
        w, V = spectrum(fam, n)
        sectors = fam.parts(n).sectors
        assert sectors is not None and len(sectors) == len(w) == V.shape[1] == H.shape[0]
        scale = float(np.abs(w).max())
        assert np.abs(np.sort(w) - np.linalg.eigh(H)[0]).max() <= 1e-12 * scale
        # sector-major: the sectors in label order, each ascending
        assert np.all(np.diff(sectors) >= 0)
        assert all(np.all(np.diff(w[sectors == t]) >= 0) for t in np.unique(sectors))
        assert np.abs(V.conj().T @ V - np.eye(len(w))).max() <= 1e-12
        assert np.abs((V * w) @ V.conj().T - H).max() <= 1e-12 * scale
        # each eigenvector lives in its recorded sector
        types = occupation_types(n, d)
        assert not np.any(V, where=types[:, None] != sectors[None, :])


def test_diagonal_levels_keep_the_eigh_order_on_ties():
    # sector-major: each sector's words in label order, and within a sector
    # ties keep eigh's order, by ascending word
    fam = identity_family(TruncatedFockSpace(d=3, N=4))
    for n in fam.space.levels():
        assert np.array_equal(spectrum(fam, n)[1], np.eye(3**n)[:, np.concatenate(type_words(n, 3))])
    mono = discrete_monotone(TruncatedFockSpace(d=4, N=4))
    for n in mono.space.levels():
        w, V = spectrum(mono, n)
        sectors, lead = mono.parts(n).sectors, np.abs(V).argmax(axis=0)
        assert np.array_equal(np.abs(V), np.eye(4**n)[:, lead])
        assert np.array_equal(occupation_types(n, 4)[lead], sectors)
        for t, value in itertools.product(np.unique(sectors), (0.0, 1.0)):
            assert np.all(np.diff(lead[(sectors == t) & (w == value)]) > 0)


@pytest.mark.parametrize("d, N, seed", [(2, 3, 0), (3, 2, 1), (2, 4, 2)])
def test_off_type_entry_refuses_the_sectors(d, N, seed):
    space = TruncatedFockSpace(d=d, N=N)
    types = occupation_types(N, d)
    r, c = 0, int(np.flatnonzero(types != types[0])[0])
    fam = random_sector_psd(np.random.default_rng(seed), space, off_type=(N, r, c))
    w, V = spectrum(fam, N)
    assert fam.parts(N).sectors is None
    w_dense, V_dense = np.linalg.eigh(hermitian_part(fam.level(N)))
    assert np.array_equal(w, w_dense) and np.array_equal(V, V_dense)
    # the other levels keep their sectors
    assert all(fam.parts(n).sectors is not None for n in range(N))


def test_uncertified_levels_are_plain_eigh():
    poi = random_poi_family(2, 4, seed=3, ranks=(1, 2, 3, 5, 6))
    fam = DeformationFamily(poi.space, poi.L)
    for n in range(1, 5):
        w, V = spectrum(fam, n)
        assert fam.parts(n).sectors is None
        w_dense, V_dense = np.linalg.eigh(hermitian_part(fam.level(n)))
        assert np.array_equal(w, w_dense) and np.array_equal(V, V_dense)
    assert fam.parts(0).sectors is not None and poi.parts(0).sectors is None


@pytest.mark.parametrize("q, d, N", [(-1.0, 3, 3), (-0.5, 2, 5), (0.0, 2, 3), (0.5, 3, 3), (1.0, 2, 5), (0.97, 2, 6)])
def test_blockwise_rank_and_norm_equal_dense(q, d, N):
    space = build(q_fock_recursive(TruncatedFockSpace(d=d, N=N), q))
    Lambda = quotient_maps(space)
    for n in range(N):
        left = space.stack(n)
        right = kron_id(space.xi[n] / space.sqrt_mu[n], Lambda[n + 1], d, id_first=False)
        # the row parts of each stack: build's and two_sided_test's blocks
        assert len(space.blocks[n]) == len(space.parts[n + 1].w) > (d > 1)
        lower, upper, table = transition(space.parts[n], space.parts[n + 1], n, d, last=True)
        right_stacks = creator_stacks(lower, zip(upper.w, upper.V, table))
        for stack, blocks in zip((left, right), (list(space.blocks[n]), right_stacks)):
            dense = _linalg.op_norm(stack)
            assert abs(_linalg.singular_values(blocks).max() - dense) <= 1e-13 * dense
            assert abs(_linalg.op_norm(blocks) - dense) <= 1e-13 * dense
            assert svd_rank(blocks, space.rank_tol) == svd_rank(stack, space.rank_tol)


@settings(max_examples=60, deadline=None)
@given(
    labels=st.integers(1, 5),
    shape=st.tuples(st.integers(0, 14), st.integers(0, 14)),
    rank=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_blockwise_rank_and_norm_on_random_labelled_stacks(labels, shape, rank, seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, labels, shape[0]), rng.integers(0, labels, shape[1])
    M = np.zeros(shape, dtype=complex)
    for t in range(labels):
        r, c = np.flatnonzero(rows == t), np.flatnonzero(cols == t)
        k = min(rank, len(r), len(c))
        G = rng.standard_normal((len(r), k)) @ rng.standard_normal((k, len(c)))
        M[np.ix_(r, c)] = G * 10.0 ** rng.integers(-3, 4)
    blocks = [M[np.ix_(rows == t, cols == t)] for t in range(labels)]
    dense = _linalg.op_norm(M)
    assert abs(_linalg.op_norm(blocks) - dense) <= 1e-13 * dense
    assert abs(_linalg.singular_values(blocks).max(initial=0.0) - dense) <= 1e-13 * dense
    assert svd_rank(blocks) == svd_rank(M)


@settings(max_examples=80, deadline=None)
@given(
    shapes=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=3),
    copies=st.integers(1, 3),
    kind=st.sampled_from((float, complex)),
    scale=st.sampled_from((1.0, 1e200, 1e-200)),
    seed=st.integers(0, 2**32 - 1),
)
def test_op_norm_is_the_largest_singular_value(shapes, copies, kind, scale, seed):
    # tall, wide, square and empty blocks, shapes repeated so that they are
    # batched; at 1e+-200 a Gram of the unscaled entries would over- or underflow
    rng = np.random.default_rng(seed)
    mats = []
    for m, k in shapes * copies:
        M = rng.standard_normal((m, k)) * 10.0 ** rng.integers(-3, 4)
        if kind is complex:
            M = M + 1j * rng.standard_normal((m, k))
        mats.append(M * scale)
    norms = [np.linalg.norm(M, 2) if M.size else 0.0 for M in mats]
    for M, want in zip(mats, norms):
        assert abs(_linalg.op_norm(M) - want) <= 1e-13 * want
    want = max(norms, default=0.0)
    assert abs(_linalg.op_norm(mats) - want) <= 1e-13 * want
    assert _linalg.op_norm([np.zeros((0, 3)), np.zeros((2, 0))]) == 0.0
    assert _linalg.op_norm(np.zeros((2, 3), dtype=kind)) == 0.0


def pipeline(fam):
    validate(fam)
    space = build(fam)
    return space, two_sided_test(space)


def test_sector_pipeline_decomposes_no_side_above_the_largest_sector(decompositions):
    # d = 2, N = 8: levels up to 256 x 256, no type sector wider than C(8, 4) = 70
    space, two_sided = pipeline(q_fock_recursive(TruncatedFockSpace(d=2, N=8), 0.5))
    assert space.ranks == tuple(2**n for n in range(9)) and two_sided["exists"]
    assert decompositions and max(max(shape[-2:]) for _, shape in decompositions) <= 70
    # the eigh inputs partition the levels: batch x side sums to sum_n 2**n
    assert sum(math.prod(shape[:-1]) for name, shape in decompositions if name == "eigh") == 2**9 - 1


def test_unstructured_families_keep_their_decompositions(decompositions):
    ranks = (1, 2, 3, 5, 6)
    thin = [("svd", (ranks[n + 1], 2 * ranks[n])) for n in range(4)]
    # two_sided_test: kernel residuals where level n is not full rank
    two_sided = [("eigvalsh", (5, 5)), ("eigvalsh", (6, 6))]
    poi = random_poi_family(2, 4, seed=3, ranks=ranks)
    space, _ = pipeline(DeformationFamily(poi.space, poi.L))
    # build proves the spanning rank from the level spectra: no thin svd
    assert decompositions == [("eigh", (2**n, 2**n)) for n in range(5)] + two_sided
    decompositions.clear()
    space.kappa_norms  # the norms of the creator stacks, formed when read
    assert decompositions == thin
    decompositions.clear()
    space, _ = pipeline(poi)
    assert decompositions == [("svd", f.shape) for f in poi.factors] + two_sided
    decompositions.clear()
    space.kappa_norms
    assert decompositions == thin


def dense_verify(space):
    """``verify_space``'s gram and isometry residuals on whole d**n x d**n matrices."""
    gram = isometry = 0.0
    for n, (xi, Lambda) in enumerate(zip(space.xi, quotient_maps(space))):
        L = space.family.level(n)
        gram = max(gram, np.linalg.norm(Lambda.conj().T @ Lambda - L) / max(1.0, np.linalg.norm(L)))
        isometry = max(isometry, np.linalg.norm(xi.conj().T @ xi - np.eye(xi.shape[1])))
    return gram, isometry


@pytest.mark.parametrize("kind, d, N", [("q0.5", 2, 5), ("q-0.5", 3, 3), ("q1", 2, 4), ("monotone", 4, 3),
                                        ("identity", 2, 3), ("q0.5", 1, 4)])
def test_sector_verify_matches_the_dense_residuals(kind, d, N):
    space = build(make_family(kind, d, N, 0))
    assert all(s is not None for s in space.sectors)
    rep, (gram, isometry) = verify_space(space), dense_verify(space)
    assert abs(rep["gram"] - gram) <= 1e-14 and abs(rep["isometry"] - isometry) <= 1e-13


def test_verify_sees_an_asymmetric_entry_between_types():
    # L_2 + A, A between two types: anti-Hermitian (the Hermitian part is
    # still 0.0 there) or Hermitian.  Either entry makes L_2 one block, and
    # Lambda* Lambda - L sees the anti-Hermitian one
    fam = q_fock_recursive(TruncatedFockSpace(d=2, N=2), 0.5)
    for sign in (-1.0, 1.0):
        L = [np.array(M) for M in fam.L]
        L[2][0, 1], L[2][1, 0] = 1e-9, sign * 1e-9  # words 00 and 01 have different types
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            space = build(DeformationFamily(fam.space, tuple(L)))
        assert [str(w.message).startswith("symmetrizing") for w in caught] == ([True] if sign < 0 else [])
        assert space.sectors[2] is None and space.ranks == build(fam).ranks
        gram, want = verify_space(space)["gram"], dense_verify(space)[0]
        if sign < 0:
            assert gram > 1e-10 and abs(gram - want) <= 1e-6 * gram
        else:
            assert gram <= 1e-14 and want <= 1e-14


def test_sector_verify_allocates_no_top_level_square():
    # one complex 2**8 x 2**8 matrix is 16 * 2**16 bytes
    space = build(q_fock_recursive(TruncatedFockSpace(d=2, N=8), 0.5))
    tracemalloc.start()
    try:
        rep = verify_space(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(rep.values()) <= 1e-8
    assert peak < 16 * 2**16


KAPPA_SPACES = {
    "q0.5_d2_N8": lambda: build(q_fock_recursive(TruncatedFockSpace(d=2, N=8), 0.5)),
    "q-0.5_d3_N5": lambda: build(q_fock_recursive(TruncatedFockSpace(d=3, N=5), -0.5)),
    "monotone_d4_N4": lambda: build(discrete_monotone(TruncatedFockSpace(d=4, N=4))),
    "pair_collapse_4": lambda: build(pair_collapse_family(4)),  # level 2 certifies no sectors
    "random_poi_d3_N5": lambda: build(random_poi_family(3, 5, seed=1, ranks=(1, 3, 6, 10, 15, 21))),
    "symmetric_pi_d3_N5": lambda: pi_space(symmetric_projections(3, 5))[0],
}


@pytest.mark.parametrize("name", list(KAPPA_SPACES))
def test_kappa_norms_are_the_norms_of_the_stacked_creators(name):
    space = KAPPA_SPACES[name]()
    d = space.space.d
    assert len(space.kappa_norms) == space.space.N
    for n in range(space.space.N):
        # build keeps the largest singular value of the stack its rank check
        # decomposes, row part by row part: the norm of the whole stack
        stack = space.stack(n)
        rows, cols = space.sectors[n + 1], space.sectors[n]
        if rows is None or cols is None:
            parts = [stack]
        else:  # type K's rows, on the columns of a_n(i) from type K - e_i, by first letter i
            r = space.ranks[n]
            parts = [stack[np.ix_(rows == K, np.concatenate([i * r + np.flatnonzero(cols == k) for i, *_, k in letters]))]
                     for K, letters in enumerate(letter_table(n + 1, d))]
        assert space.kappa_norms[n] == _linalg.singular_values(parts).max()
        dense = _linalg.op_norm(stack)
        assert abs(space.kappa_norms[n] - dense) <= 1e-13 * max(1.0, dense)
