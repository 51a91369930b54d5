import numpy as np
import pytest
from numpy.testing import assert_allclose

from fockbench.interacting import build
from fockbench.onemode import (
    MomentSequence,
    jacobi_from_moments,
    jacobi_matrix,
    onemode_space,
    polynomials,
    vacuum_moments,
)
from oracles import moment_pairing

GAUSSIAN = (1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0)
CATALAN = (1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 5.0, 0.0, 14.0)


def gram_schmidt_weights(moments):
    """Independent oracle: orthogonalize the monomials under the Hankel pairing
    and read off the squared norms; the weights are their successive ratios."""
    seq = MomentSequence(tuple(moments))
    H = seq.hankel()
    M = seq.order
    basis = [np.eye(M + 1)[i] for i in range(M + 1)]
    ortho, norms = [], []
    for v in basis:
        w = v.astype(float).copy()
        for u, nu in zip(ortho, norms):
            if nu > 0:
                w = w - (u @ H @ w) / nu * u
        ortho.append(w)
        norms.append(float(w @ H @ w))
    k = []
    for n in range(1, M + 1):
        k.append(norms[n] / norms[n - 1] if norms[n - 1] > 1e-12 else 0.0)
    return tuple(k)


@pytest.mark.parametrize(
    "moments,expected",
    [(GAUSSIAN, (1.0, 2.0, 3.0, 4.0)), (CATALAN, (1.0, 1.0, 1.0, 1.0))],
)
def test_classical_moment_sequences(moments, expected):
    k = jacobi_from_moments(moments)
    assert_allclose(k, expected, atol=1e-8)
    assert_allclose(gram_schmidt_weights(moments), expected, atol=1e-8)


def test_two_point_measure_terminates():
    # (delta_{-1} + delta_{+1})/2: all even moments 1, support of size two
    k = jacobi_from_moments((1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
    assert_allclose(k, (1.0, 0.0, 0.0), atol=1e-12)
    P = polynomials(k, 2)
    assert_allclose(P[2], [-1.0, 0.0, 1.0], atol=1e-12)  # t^2 - 1 kills both atoms


@pytest.mark.parametrize("moments", [GAUSSIAN, CATALAN])
def test_moment_round_trip(moments):
    k = jacobi_from_moments(moments)
    back = vacuum_moments(k, len(moments) - 1)
    assert_allclose(back, moments, atol=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_round_trip_random_atomic_measures(seed):
    rng = np.random.default_rng(seed)
    n_atoms = int(rng.integers(2, 5))
    pts = np.sort(rng.uniform(0.3, 1.5, size=n_atoms))
    wts = rng.uniform(0.1, 1.0, size=n_atoms)
    wts = wts / (2 * wts.sum())
    # symmetric atomic measure: atoms at +-pts with weight wts each; support
    # size 2*n_atoms, so weights k_1 .. k_{2 n_atoms - 1} are all positive —
    # stay below the degenerate pivot by taking one order less
    M = 2 * (2 * n_atoms - 1)
    moments = [2 * np.sum(wts * pts**j) if j % 2 == 0 else 0.0 for j in range(M + 1)]
    moments[0] = 1.0
    k = jacobi_from_moments(moments)
    assert_allclose(gram_schmidt_weights(moments), k, atol=1e-7)
    assert all(v > 1e-10 for v in k) and len(k) == 2 * n_atoms - 1
    back = vacuum_moments(k, M)
    assert_allclose(back, moments, atol=1e-9 * max(moments))


def test_three_atom_termination():
    # delta_{-1}/4 + delta_0/2 + delta_{+1}/4: even moments 1/2 throughout
    k = jacobi_from_moments((1.0, 0.0, 0.5, 0.0, 0.5, 0.0, 0.5))
    assert_allclose(k, (0.5, 0.5, 0.0), atol=1e-12)
    P = polynomials(k, 3)
    assert_allclose(P[3], [0.0, -1.0, 0.0, 1.0], atol=1e-12)  # t^3 - t kills the atoms


def test_polynomial_orthogonality_under_moment_pairing():
    k = jacobi_from_moments(GAUSSIAN)
    P = polynomials(k, 4)
    ell = np.cumprod((1.0,) + k)
    for m in range(5):
        for n in range(5):
            val = moment_pairing(P[m], P[n], GAUSSIAN)
            want = ell[n] if m == n else 0.0
            assert abs(val - want) <= 1e-8


def test_monic_semicircle_polynomials():
    P = polynomials((1.0, 1.0), 3)
    assert_allclose(P[0], [1, 0, 0, 0])
    assert_allclose(P[1], [0, 1, 0, 0])
    assert_allclose(P[2], [-1, 0, 1, 0])
    assert_allclose(P[3], [0, -2, 0, 1])
    with pytest.raises(ValueError):
        polynomials((1.0,), 3)


def test_jacobi_matrix_and_degenerate_weights():
    J = jacobi_matrix((4.0, 9.0))
    assert_allclose(J, [[0, 2, 0], [2, 0, 3], [0, 3, 0]])
    # all-zero weights: point mass at the origin
    assert vacuum_moments((0.0, 0.0), 6) == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    # finitely supported measures allow arbitrarily high moments
    long_back = vacuum_moments((1.0, 0.0), 12)
    assert long_back[2] == 1.0 and long_back[4] == 1.0 and long_back[12] == 1.0
    with pytest.raises(ValueError):
        vacuum_moments((1.0, 1.0), 6)  # order 6 > 2*2+1 with all weights positive


def test_moment_sequence_validation():
    with pytest.raises(ValueError):
        MomentSequence((2.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        MomentSequence((1.0, 0.5, 1.0))
    with pytest.raises(ValueError):
        MomentSequence((1.0, 0.0, -1.0))
    with pytest.raises(ValueError):
        MomentSequence(())
    # variance below squared mean placed to break PSD at size 3
    with pytest.raises(ValueError):
        MomentSequence((1.0, 0.0, 1.0, 0.0, 0.5))


def test_onemode_space_builds_and_collapses():
    fam = onemode_space((1.0, 0.0, 0.0))
    space = build(fam)
    assert space.ranks == (1, 1, 0, 0)
    assert_allclose(space.stack(0), [[1.0]], atol=1e-12)  # d = 1: the stack is a_0(0)
    with pytest.raises(ValueError):
        onemode_space((1.0, 1.0), N=4)
    with pytest.raises(ValueError):
        onemode_space((1.0, -1.0))


def test_number_operator_weights_give_gaussian():
    assert_allclose(vacuum_moments((1.0, 2.0, 3.0, 4.0), 8), GAUSSIAN, atol=1e-12)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_onemode_space_refuses_a_non_finite_weight(bad):
    # a NaN weight used to build ranks (1, 1, 0) with every verify residual 0.0
    with pytest.raises(ValueError, match="level 2 matrix has a non-finite entry"):
        onemode_space((1.0, bad))
