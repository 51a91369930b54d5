import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fockbench.tensor_core import (
    TruncatedFockSpace,
    flat_index,
    inversions,
    kron_id,
    words,
)
from oracles import permutation_operator


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def create(x, M, n):
    """Full-Fock creator of x applied to the level-n columns of M: (x (x) id) M."""
    x = np.asarray(x)
    return kron_id(x[:, None], M, x.size**n, id_first=False, op_first=True)


def annihilate(x, M, n):
    """Adjoint of :func:`create`: (x* (x) id) M on level-(n+1) columns."""
    x = np.asarray(x)
    return kron_id(x.conj()[None, :], M, x.size**n, id_first=False, op_first=True)


# ---------------------------------------------------------------- encoding


def test_encode_vacuum_is_zero():
    assert words(0, 2).shape == (1, 0)
    assert flat_index(words(0, 2), 2).tolist() == [0]


def test_encode_big_endian():
    assert flat_index((1, 0), 2) == 2


def test_encode_bijection_exhaustive():
    flats = sorted(int(flat_index(t, 3)) for t in itertools.product(range(3), repeat=3))
    assert flats == list(range(27))
    table = words(3, 3)
    for t in itertools.product(range(3), repeat=3):
        assert tuple(table[flat_index(t, 3)]) == t


@given(d=st.integers(1, 4), n=st.integers(0, 5))
def test_word_table_round_trip(d, n):
    table = words(n, d)
    assert table.shape == (d**n, n)
    assert np.array_equal(flat_index(table, d), np.arange(d**n))
    assert [tuple(row) for row in table] == list(itertools.product(range(d), repeat=n))


def test_space_guards():
    with pytest.raises(ValueError):
        TruncatedFockSpace(d=2, N=0)
    with pytest.raises(ValueError):
        TruncatedFockSpace(d=10, N=6)  # 10**6 over the default cap
    with pytest.raises(ValueError, match=r"top level dimension 2\*\*18 exceeds level cap 200000"):
        TruncatedFockSpace(d=2, N=18)
    assert TruncatedFockSpace(d=2, N=17).dims[-1] == 2**17
    sp = TruncatedFockSpace(d=2, N=3)
    assert sp.dims == (1, 2, 4, 8)


# ------------------------------------------------------- the shift primitive


@pytest.mark.parametrize("op_first", [False, True])
@pytest.mark.parametrize("id_first", [True, False])
@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3, 1), (1, 3)])
def test_kron_id_matches_kron(shape, id_first, op_first):
    rng = np.random.default_rng(sum(shape) + 2 * id_first + op_first)
    k = 4
    A = crandn(rng, *shape)
    op = np.kron(np.eye(k), A) if id_first else np.kron(A, np.eye(k))
    M = crandn(rng, op.shape[1], 5) if op_first else crandn(rng, 5, op.shape[0])
    want = op @ M if op_first else M @ op
    got = kron_id(A, M, k, id_first=id_first, op_first=op_first)
    assert got.shape == want.shape
    assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_unit_vector_shift_is_column_block():
    rng = np.random.default_rng(4)
    d, k = 3, 9
    M = crandn(rng, 7, d * k)
    for i in range(d):
        block = kron_id(np.eye(d)[:, [i]], M, k, id_first=False)
        assert np.array_equal(block, M[:, i * k:(i + 1) * k])


def test_creator_on_vacuum():
    x = np.array([1.0, 0.0])
    out = create(x, np.ones((1, 1)), 0)
    assert_allclose(out[:, 0], x, atol=0)


def test_creator_prepends_factor():
    vec = np.zeros((2, 1))
    vec[0, 0] = 1.0  # e0 at level 1
    out = create(np.array([0.0, 1.0]), vec, 1)
    expect = np.zeros(4)
    expect[flat_index((1, 0), 2)] = 1.0
    assert_allclose(out[:, 0], expect, atol=0)


def test_free_relation_annihilator_creator():
    # l(x) l*(y) = <x,y> id on every level of the full Fock space
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y = crandn(rng, 3), crandn(rng, 3)
        for n in range(3):
            prod = annihilate(x, create(y, np.eye(3**n), n), n)
            assert_allclose(prod, np.vdot(x, y) * np.eye(3**n), atol=1e-12)


def test_creator_linear_in_x():
    rng = np.random.default_rng(11)
    x, y = crandn(rng, 2), crandn(rng, 2)
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    for n in range(3):
        eye = np.eye(2**n)
        assert_allclose(create(a * x + b * y, eye, n), a * create(x, eye, n) + b * create(y, eye, n), atol=0)


def test_creator_dimension_mismatch():
    with pytest.raises(ValueError):
        kron_id(np.ones((3, 1)), np.eye(4), 2, id_first=False)  # 4 columns, want 2 * 3
    with pytest.raises(ValueError):
        kron_id(np.ones((3, 1)), np.eye(4), 2, id_first=False, op_first=True)  # 4 rows, want 2 * 1
    with pytest.raises(ValueError):
        kron_id(np.ones(3), np.eye(6), 2)


def test_annihilator_strips_left_factor():
    vec = np.zeros((4, 1))
    vec[flat_index((0, 1), 2), 0] = 1.0  # e0 (x) e1
    out = annihilate(np.array([1.0, 0.0]), vec, 1)
    assert_allclose(out[:, 0], np.array([0.0, 1.0]), atol=0)


def test_creator_annihilator_adjoint_pairing():
    # <y, l(x) z> = <l*(x) y, z> between levels n and n+1
    rng = np.random.default_rng(3)
    x = crandn(rng, 2)
    for _ in range(10):
        for n in range(4):
            y, z = crandn(rng, 2**n, 1), crandn(rng, 2 ** (n + 1), 1)
            lhs = np.vdot(y, annihilate(x, z, n))
            rhs = np.vdot(create(x, y, n), z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# ------------------------------------------------------------ permutations


def bubble_swap_count(seq):
    seq, count, changed = list(seq), 0, True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                count += 1
                changed = True
    return count


def test_permutation_identity():
    sp = TruncatedFockSpace(d=2, N=3)
    P, inv = permutation_operator((0, 1, 2), sp)
    assert_allclose(P, np.eye(8), atol=0)
    assert inv == 0


def test_permutation_flip():
    sp = TruncatedFockSpace(d=2, N=2)
    P, inv = permutation_operator((1, 0), sp)
    assert inv == 1
    expect = np.eye(4)[:, [0, 2, 1, 3]]  # swaps (0,1) <-> (1,0)
    assert_allclose(P, expect, atol=0)


def test_permutation_group_action():
    # substitution action composes contravariantly: P(s) P(t) = P(t o s)
    sp = TruncatedFockSpace(d=2, N=4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = tuple(rng.permutation(4))
        t = tuple(rng.permutation(4))
        t_after_s = tuple(t[s[j]] for j in range(4))
        Ps, _ = permutation_operator(s, sp)
        Pt, _ = permutation_operator(t, sp)
        Pc, _ = permutation_operator(t_after_s, sp)
        assert_allclose(Ps @ Pt, Pc, atol=0)


def test_permutation_unitary_and_inv_crosscheck():
    sp = TruncatedFockSpace(d=2, N=4)
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = tuple(rng.permutation(4))
        P, inv = permutation_operator(s, sp)
        assert_allclose(P @ P.conj().T, np.eye(16), atol=0)
        assert inv == inversions(s) == bubble_swap_count(s)


def test_permutation_rejects_non_permutation():
    sp = TruncatedFockSpace(d=2, N=3)
    with pytest.raises(ValueError):
        permutation_operator((0, 0, 1), sp)
