import json
import tracemalloc
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fockbench import cli, subproduct
from fockbench.boundedness import pair_collapse_squeezing
from fockbench.deformations import identity_family, q_fock_recursive
from fockbench.interacting import build, random_poi_family, space_from_squeezing
from fockbench.onemode import onemode_space
from fockbench.subproduct import (
    ProjectionFamily,
    certify,
    identity_projections,
    nested_point_projections,
    pi_space,
    product_maps,
    random_adjacent_family,
    symmetric_projections,
    two_sided_test,
)
from fockbench.subproduct import _adjacent_intersection, _dominance_violation
from fockbench.tensor_core import TruncatedFockSpace, flat_index, kron_id, words
from oracles import pi_deviations


def random_projection(rng, dim, rank):
    G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    Q, _ = np.linalg.qr(G)
    return Q @ Q.conj().T


def test_symmetrizer_family_is_a_subproduct_system():
    fam = symmetric_projections(2, 4)
    assert fam.ranks == (1, 2, 3, 4, 5)  # symmetric powers of C^2
    cert = certify(fam)
    assert cert.ok and cert.theorem_confirmed
    assert cert.coisometry <= 1e-10
    assert cert.associativity <= 1e-10
    space, sq, dev = pi_space(fam)
    assert space.ranks == fam.ranks
    assert dev <= 1e-10
    assert two_sided_test(space)["exists"]
    # kappa' is again pi (the construction is left-right symmetric)
    kappa_prime = dense_two_sided(space)[2]
    for n in range(4):
        assert_allclose(kappa_prime[n], fam.level(n + 1), atol=1e-9)


@pytest.mark.parametrize("d, N", [(1, 6), (2, 6), (3, 4), (4, 3)])
def test_symmetric_type_basis_spans_the_symmetrizer(d, N):
    # the old construction, the recursive q = 1 family over n!, is the oracle
    fam = symmetric_projections(d, N)
    oracle = q_fock_recursive(TruncatedFockSpace(d=d, N=N), 1.0)
    assert fam.ranks == tuple(comb(n + d - 1, n) for n in range(N + 1))
    for n in range(N + 1):
        R = fam.factors[n].conj().T
        assert R.shape == (d**n, comb(n + d - 1, n))
        assert np.abs(R @ R.conj().T - oracle.level(n) / factorial(n)).max() <= 1e-12
        # bit for bit the basis of the inline type computation it replaced
        _, types, sizes = np.unique(flat_index(np.sort(words(n, d), axis=1), d), return_inverse=True,
                                    return_counts=True)
        want = np.zeros_like(R)
        want[np.arange(d**n), types] = 1.0 / np.sqrt(sizes[types])
        assert np.array_equal(R, want)


def test_symmetric_pipeline_runs_no_level_eigh(decompositions):
    fam = symmetric_projections(3, 4)
    cert = certify(fam)
    space, _, deviation = pi_space(fam)
    assert cert.ok and space.ranks == fam.ranks and deviation <= 1e-10
    assert not [shape for name, shape in decompositions if name == "eigh"]


def test_identity_family_products_are_identities():
    fam = identity_projections(2, 3)
    cert = certify(fam)
    assert cert.ok
    v, coiso, assoc = product_maps(fam)
    assert coiso <= 1e-12 and assoc <= 1e-12
    for (m, n), mat in v.items():
        # in word coordinates: R_{m+n} v (R_m (x) R_n)* is the identity
        R = [fam.range_basis(k) for k in (m, n, m + n)]
        assert_allclose(R[2] @ mat @ np.kron(R[0], R[1]).conj().T, np.eye(2 ** (m + n)), atol=1e-12)


def test_nested_point_family_fails_the_kernel_side_chain():
    fam = nested_point_projections(4, 3)
    assert not fam.normalized
    cert = certify(fam)
    assert max(cert.squeezing_side) <= 1e-10  # squeezing-side chain passes
    assert cert.kernel_side[1] >= 0.9  # fails at the 1 -> 2 transition
    assert not cert.ok
    # still a perfectly good deformation family
    space, _, dev = pi_space(fam)
    assert space.ranks == (1, 1, 1, 1)
    assert dev <= 1e-10
    # ... but not two-sided, consistently with the failed chain
    rep = two_sided_test(space)
    assert not rep["exists"]
    assert max(rep["kernel_residuals"]) > 0.1
    with pytest.raises(ValueError, match="normalization"):
        product_maps(fam)
    with pytest.raises(ValueError):
        nested_point_projections(2, 3)


def spy_products(monkeypatch):
    """The (m, n) of every v_{m,n} formed, in order."""
    real, calls = subproduct._compressed_product, []
    monkeypatch.setattr(subproduct, "_compressed_product",
                        lambda bases, m, n, d: calls.append((m, n)) or real(bases, m, n, d))
    return calls


def test_product_maps_forms_the_maps_once(monkeypatch):
    # certify forms every v_{m,n} for its pairwise violations and residuals; product_maps returns those
    fam = random_adjacent_family(2, 5, ranks=(1, 2, 3, 4, 5, 6), seed=3)
    bases = [fam.range_basis(n) for n in fam.space.levels()]
    want = {(m, n): subproduct._compressed_product(bases, m, n, 2) for m in range(6) for n in range(6 - m)}
    calls = spy_products(monkeypatch)
    v, coiso, assoc = product_maps(fam)
    assert sorted(calls) == sorted(want)
    assert (coiso, assoc) == subproduct._product_residuals(want) and v.keys() == want.keys()
    assert all(v[k].tobytes() == want[k].tobytes() for k in v)


@pytest.mark.parametrize("make", [lambda: random_adjacent_family(2, 5, seed=3), lambda: symmetric_projections(3, 3),
                                  lambda: nested_point_projections(4, 3)], ids=("random", "symmetric", "nested"))
def test_certify_forms_each_product_map_once(monkeypatch, make):
    # the pairwise violations read the same v_{m,n} as the residuals, also where the chains fail
    fam = make()
    N = fam.space.N
    calls = spy_products(monkeypatch)
    certify(fam)
    assert sorted(calls) == [(m, n) for m in range(N + 1) for n in range(N + 1 - m)]


def test_pi_space_after_certify_takes_no_adjacent_violation_again(monkeypatch):
    fam, fresh = random_adjacent_family(2, 5, seed=3), random_adjacent_family(2, 5, seed=3)
    real, sides = subproduct._project, []
    monkeypatch.setattr(subproduct, "_project",
                        lambda R, M, k, id_first=True: sides.append(id_first) or real(R, M, k, id_first))
    cert = certify(fam)
    assert sorted(sides) == [False] * 5 + [True] * 5
    sides.clear()
    _, _, dev = pi_space(fam)
    assert sides == []
    # alone, pi_space takes the squeezing side only, with the same values
    assert pi_space(fresh)[2] == dev and sides == [True] * 5
    assert tuple(subproduct._adjacent_violation(fresh, n) for n in range(5)) == cert.squeezing_side


def test_marginal_products_are_canonical():
    fam = symmetric_projections(2, 3)
    v, _, _ = product_maps(fam)
    for n in range(4):
        r = fam.ranks[n]
        assert_allclose(v[(n, 0)], np.eye(r), atol=1e-12)
        assert_allclose(v[(0, n)], np.eye(r), atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_random_adjacent_families_certify(seed):
    fam = random_adjacent_family(2, 4, seed=seed)
    cert = certify(fam)
    assert cert.ok and cert.theorem_confirmed
    assert cert.coisometry <= 1e-10
    assert cert.associativity <= 1e-10
    space, _, dev = pi_space(fam)
    assert dev <= 1e-10
    assert two_sided_test(space)["exists"]


def test_rank_profile_edge_cases():
    fam = random_adjacent_family(2, 3, ranks=(1, 2, 0, 0), seed=1)
    assert fam.ranks == (1, 2, 0, 0)
    assert certify(fam).ok
    with pytest.raises(ValueError, match="exceeds intersection"):
        random_adjacent_family(2, 3, ranks=(1, 2, 5, 1), seed=1)
    with pytest.raises(ValueError, match="profile"):
        random_adjacent_family(2, 3, ranks=(1, 1, 1, 1), seed=1)
    # rank 0 kills every later intersection
    fam0 = random_adjacent_family(2, 4, ranks=(1, 2, 0, 0, 0), seed=2)
    assert fam0.ranks[2:] == (0, 0, 0)


def test_full_rank_levels_keep_the_whole_intersection():
    # pi_2 = id up to rounding: the intersection at level 3 is all of C^8,
    # which a kernel cut relative to the rounding noise found to be {0}
    fam = random_adjacent_family(2, 4, ranks=(1, 2, 4, 8, 16), seed=2)
    assert fam.ranks == (1, 2, 4, 8, 16)
    assert certify(fam).ok


def test_one_mode_spaces_are_two_sided():
    space = build(onemode_space((1.0, 2.0, 3.0)))
    rep = two_sided_test(space)
    assert rep["exists"]
    assert rep["recursion_residual"] <= 1e-9


def test_pair_collapse_extension_is_not_two_sided():
    rng = np.random.default_rng(13)
    omega = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    omega = omega / np.linalg.norm(omega)
    sq = pair_collapse_squeezing(3, omega=omega, levels=3)
    space = space_from_squeezing(sq)
    rep = two_sided_test(space)
    assert not rep["exists"]
    assert max(rep["kernel_residuals"]) > 0.1
    # the canonical choice fails just the same
    canonical = space_from_squeezing(pair_collapse_squeezing(3, levels=3))
    assert not two_sided_test(canonical)["exists"]


def test_projection_family_validation():
    space = TruncatedFockSpace(d=2, N=1)
    with pytest.raises(ValueError, match="Hermitian"):
        ProjectionFamily(space, (np.eye(1), np.array([[0, 1], [0, 0]], dtype=complex)))
    with pytest.raises(ValueError, match="idempotent"):
        ProjectionFamily(space, (np.eye(1), 0.5 * np.eye(2)))
    with pytest.raises(ValueError, match="vacuum"):
        ProjectionFamily(space, (np.zeros((1, 1)), np.eye(2)))
    with pytest.raises(ValueError, match="shape"):
        ProjectionFamily(space, (np.eye(1), np.eye(3)))
    with pytest.raises(ValueError):
        ProjectionFamily(space, (np.eye(1),))


@pytest.mark.parametrize("seed", range(4))
def test_dominance_norm_test_matches_compression_test(seed):
    # ||(1-Q)P|| <= tol is the same verdict as QPQ == P
    rng = np.random.default_rng(seed)
    dim = 6
    Q = random_projection(rng, dim, 4)
    # P below Q: project a random subspace of range Q
    R = _range = np.linalg.qr(Q @ (rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))))[0][:, :2]
    P = R @ R.conj().T
    assert np.linalg.norm(P - Q @ P, 2) <= 1e-10
    assert np.linalg.norm(Q @ P @ Q - P) <= 1e-10
    # generic P not below Q: both tests reject
    P2 = random_projection(rng, dim, 2)
    v1 = np.linalg.norm(P2 - Q @ P2, 2)
    v2 = np.linalg.norm(Q @ P2 @ Q - P2)
    assert v1 > 1e-3 and v2 > 1e-3


def dense_violation(P, QP):
    """||(id - Q) P|| on the dense product, the form the range-basis test replaces."""
    return np.linalg.norm(P - QP, 2)


def dense_certificate(fam):
    d, N = fam.space.d, fam.space.N
    eye, pi = np.eye(d), fam.L
    squeezing = [dense_violation(pi[n + 1], np.kron(eye, pi[n]) @ pi[n + 1]) for n in range(N)]
    kernel = [dense_violation(pi[n + 1], np.kron(pi[n], eye) @ pi[n + 1]) for n in range(N)]
    pairwise = {
        (m, n): dense_violation(pi[m + n], np.kron(pi[m], pi[n]) @ pi[m + n])
        for m in range(1, N)
        for n in range(1, N - m + 1)
    }
    return squeezing, kernel, pairwise


def _squeezing_side_failure():
    space = TruncatedFockSpace(d=2, N=2)
    p = np.diag([1.0, 0.0]).astype(complex)
    v = np.array([1.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(3)
    return ProjectionFamily(space, (np.eye(1), p, np.outer(v, v.conj())))


PROJECTION_FAMILIES = {
    "symmetric": lambda: symmetric_projections(2, 4),
    "symmetric_d3": lambda: symmetric_projections(3, 3),
    "random_adjacent": lambda: random_adjacent_family(2, 5, seed=3),
    "random_adjacent_low_rank": lambda: random_adjacent_family(2, 6, ranks=(1, 2, 3, 4, 5, 6, 7), seed=7),
    "rank_zero_tail": lambda: random_adjacent_family(2, 4, ranks=(1, 2, 0, 0, 0), seed=2),
    "nested_point": lambda: nested_point_projections(4, 3),
    "identity": lambda: identity_projections(2, 3),
    "squeezing_side_failure": _squeezing_side_failure,
}


@pytest.mark.parametrize("name", sorted(PROJECTION_FAMILIES))
def test_range_basis_dominance_matches_dense_products(name):
    fam = PROJECTION_FAMILIES[name]()
    cert = certify(fam)
    squeezing, kernel, pairwise = dense_certificate(fam)
    assert_allclose(cert.squeezing_side, squeezing, rtol=0, atol=1e-12)
    assert_allclose(cert.kernel_side, kernel, rtol=0, atol=1e-12)
    assert cert.pairwise.keys() == pairwise.keys()
    for key, value in pairwise.items():
        assert abs(cert.pairwise[key] - value) <= 1e-12
    assert fam.ranks == tuple(int(round(np.trace(P).real)) for P in fam.L)
    for n in fam.space.levels():
        R = fam.range_basis(n)
        assert_allclose(R @ R.conj().T, fam.level(n), atol=1e-12)
    # pi_space refuses exactly the families the dense squeezing-side test fails
    if max(squeezing) > 1e-10:
        with pytest.raises(ValueError, match="not dominated"):
            pi_space(fam)
    else:
        space, _, dev = pi_space(fam)
        assert space.ranks == fam.ranks and dev <= 1e-10
        assert space.family is fam


def random_ranges(rng, d, ranks, dtype):
    """Random orthonormal range bases of the given ranks, level 0 the vacuum."""
    out = [np.ones((1, 1))]
    for n, r in enumerate(ranks[1:], start=1):
        G = rng.standard_normal((d**n, r))
        if dtype is complex:
            G = G + 1j * rng.standard_normal((d**n, r))
        out.append(np.linalg.qr(G)[0])
    return out


@pytest.mark.parametrize("d, ranks, family, dtype", [
    (2, (1, 1, 3, 0, 5), lambda: q_fock_recursive(TruncatedFockSpace(2, 4), 0.5), float),
    (3, (1, 2, 0, 7), lambda: q_fock_recursive(TruncatedFockSpace(3, 3), -1.0), float),
    (2, (1, 1, 2, 0, 3), lambda: random_poi_family(2, 4, seed=4, ranks=(1, 2, 3, 3, 4)), complex),
    (3, (1, 2, 0, 5), lambda: random_poi_family(3, 3, seed=5, ranks=(1, 3, 4, 0)), complex),
], ids=("real-d2", "real-d3", "complex-d2", "complex-d3-space-rank-0"))
def test_pi_deviations_match_dense_norms(d, ranks, family, dtype):
    # perturbed: the space is not the one of the projection family, so every deviation is O(1)
    fam = ProjectionFamily.from_ranges(TruncatedFockSpace(d, len(ranks) - 1),
                                       random_ranges(np.random.default_rng(len(ranks)), d, ranks, dtype))
    space = build(family())
    got = subproduct._deviations(fam, space)
    want = pi_deviations(fam, space)
    assert len(got) == len(want) == len(ranks) - 1
    for g, w in zip(got, want):
        assert min(w) >= 0.5
        assert max(abs(a - b) / b for a, b in zip(g, w)) <= 1e-12


def dense_two_sided(space):
    """Kernel residuals ||lambda_{n+1}(ker lambda_n (x) id)||, the norms of the squeezings
    kappa_{n+1} = lambda_{n+1}(id (x) pinv(lambda_n)) and the right squeezings
    kappa'_{n+1} = lambda_{n+1}(pinv(lambda_n) (x) id), on dense matrices."""
    d, lam = space.space.d, space.lam
    residuals, kappa_norms, kappa_prime = [], [], []
    for n in range(space.space.N):
        xi = space.xi[n]
        ker = np.eye(space.space.dim(n)) - xi @ xi.conj().T
        resid = np.linalg.norm(lam[n + 1] @ np.kron(ker, np.eye(d)), 2)
        residuals.append(resid / max(1.0, float(space.sqrt_mu[n + 1].max(initial=0.0))))
        pinv = (xi / space.sqrt_mu[n]) @ xi.conj().T
        kappa_norms.append(np.linalg.norm(lam[n + 1] @ np.kron(np.eye(d), pinv), 2))
        kappa_prime.append(lam[n + 1] @ np.kron(pinv, np.eye(d)))
    return residuals, kappa_norms, kappa_prime


def _omega_collapse_space():
    rng = np.random.default_rng(13)
    omega = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    return space_from_squeezing(pair_collapse_squeezing(3, omega=omega / np.linalg.norm(omega), levels=3))


TWO_SIDED_SPACES = {
    "symmetric": lambda: pi_space(symmetric_projections(2, 4))[0],
    "random_adjacent": lambda: pi_space(random_adjacent_family(2, 5, seed=3))[0],
    "one_mode": lambda: build(onemode_space((1.0, 2.0, 3.0))),
    "random_poi": lambda: build(random_poi_family(2, 4, seed=5, ranks=(1, 2, 3, 4, 5))),
    "nested_point": lambda: pi_space(nested_point_projections(4, 3))[0],
    "pair_collapse": lambda: space_from_squeezing(pair_collapse_squeezing(3, levels=3)),
    "pair_collapse_omega": _omega_collapse_space,
}


@pytest.mark.parametrize("name", sorted(TWO_SIDED_SPACES))
def test_two_sided_test_matches_dense_oracle(name):
    space = TWO_SIDED_SPACES[name]()
    rep = two_sided_test(space)
    residuals, kappa_norms, kappa_prime = dense_two_sided(space)
    assert_allclose(rep["kernel_residuals"], residuals, rtol=0, atol=1e-12)
    assert "kappa_norms" not in rep  # the space's own, not copied into the report
    assert_allclose(space.kappa_norms, kappa_norms, rtol=0, atol=1e-12)
    assert rep["exists"] == (max(residuals) <= 1e-9)
    assert "kappa_prime" not in rep
    if rep["exists"]:
        dense = [np.linalg.norm(K, 2) for K in kappa_prime]
        assert_allclose(rep["kappa_prime_norms"], dense, rtol=1e-12, atol=1e-12)
        # the mirrored recursion kappa'_{n+1}(lambda_n (x) id) = lambda_{n+1}
        lam, eye = space.lam, np.eye(space.space.d)
        recursion = max(
            np.linalg.norm(K @ np.kron(lam[n], eye) - lam[n + 1]) / max(1.0, np.linalg.norm(lam[n + 1]))
            for n, K in enumerate(kappa_prime)
        )
        assert abs(rep["recursion_residual"] - recursion) <= 1e-12
    else:
        assert "kappa_prime_norms" not in rep and "recursion_residual" not in rep


def test_two_sided_test_forms_no_level_square():
    # one complex 3**6 x 3**6 matrix is 16 * 3**12 bytes; the test reads the
    # built space in quotient coordinates and allocates no such matrix
    space = pi_space(symmetric_projections(3, 6))[0]
    tracemalloc.start()
    try:
        rep = two_sided_test(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["exists"] and rep["recursion_residual"] <= 1e-12
    assert peak < 16 * 3**12


def test_failing_families_are_not_two_sided():
    for name in ("nested_point", "pair_collapse", "pair_collapse_omega"):
        assert not two_sided_test(TWO_SIDED_SPACES[name]())["exists"]


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 8),
    ranks=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    nested=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_thin_dominance_value_equals_dense(dim, ranks, nested, seed):
    rng = np.random.default_rng(seed)
    rank_p, rank_q = (min(r, dim) for r in ranks)
    Q = random_projection(rng, dim, rank_q)
    P = random_projection(rng, dim, rank_p)
    if nested:  # P onto a random subspace of range Q
        P = random_projection(rng, dim, min(rank_p, rank_q))
        P = np.linalg.qr(Q @ P)[0][:, : min(rank_p, rank_q)]
        P = P @ P.conj().T
    fam = ProjectionFamily(TruncatedFockSpace(d=dim, N=1), (np.eye(1), P))
    R = fam.range_basis(1)
    assert R.shape == (dim, np.linalg.matrix_rank(P))
    thin = _dominance_violation(R, Q @ R)
    assert abs(thin - dense_violation(P, Q @ P)) <= 1e-12


def test_projection_pipeline_decomposes_each_level_once(decompositions):
    # a family read back from a dense pi file decomposes each level once:
    # its eigh inputs partition the level, one eigh or one per type sector
    factored = random_adjacent_family(2, 6, ranks=(1, 2, 3, 4, 5, 6, 7), seed=7)
    doc = cli.projections_to_json(ProjectionFamily(factored.space, factored.L))
    assert "pi" in doc and "ranges" not in doc
    fam = cli.projections_from_json(json.loads(cli.dump_json(doc)))
    decompositions.clear()
    covered = []
    for n in fam.space.levels():
        fam.parts(n)
        eighs = [shape for name, shape in decompositions if name == "eigh"]
        assert eighs and all(shape[-1] == shape[-2] for shape in eighs)
        covered.append(sum(prod(shape[:-1]) for shape in eighs))
        decompositions.clear()
    assert covered == [2**n for n in range(7)]
    cert = certify(fam)
    product_maps(fam)
    space, _, _ = pi_space(fam)
    assert cert.ok and space.ranks == fam.ranks
    assert not [shape for name, shape in decompositions if name == "eigh"]
    # every svd and spectral norm is of a thin matrix, one side at most d * max rank
    thin = [shape for name, shape in decompositions if name != "eigh"]
    assert thin and max(min(shape) for shape in thin) <= 2 * max(fam.ranks)


def test_factored_projection_pipeline_runs_no_level_eigh(decompositions):
    fam = random_adjacent_family(2, 6, ranks=(1, 2, 3, 4, 5, 6, 7), seed=7)
    cert = certify(fam)
    product_maps(fam)
    space, _, _ = pi_space(fam)
    assert cert.ok and space.ranks == fam.ranks
    assert not [shape for name, shape in decompositions if name == "eigh"]
    # each level's spectrum is a thin svd of its r_n x d**n factor R_n*, and
    # every svd and spectral norm is thin, one side at most d * max rank
    for n in fam.space.levels():
        assert ("svd", fam.factors[n].shape) in decompositions
    assert max(min(shape) for name, shape in decompositions) <= 2 * max(fam.ranks)


def stacked_kernel_dim(P, d):
    """dim range(id (x) P) cut with range(P (x) id), from the kernel of the stacked
    2 d**(n+1) x d**(n+1) matrix [1 - id (x) P; 1 - P (x) id].  Its singular
    values lie in [0, sqrt 2], so the cut is absolute: where P = id up to
    rounding the stack is rounding noise, and a cut relative to its largest
    singular value would count that noise as rank."""
    eye = np.eye(P.shape[0] * d)
    stacked = np.vstack([eye - np.kron(np.eye(d), P), eye - np.kron(P, np.eye(d))])
    s = np.linalg.svd(stacked, compute_uv=False)
    return len(s) - int(np.count_nonzero(s > 1e-10))


@pytest.mark.parametrize("d, N, seed", [(2, 5, 0), (2, 6, 7), (2, 6, 11), (3, 4, 1), (3, 4, 5), (4, 3, 2)])
def test_range_coordinate_intersection_matches_stacked_kernel(d, N, seed):
    fam = random_adjacent_family(d, N, seed=seed)
    dims = []
    for n in range(1, N):
        C = _adjacent_intersection(fam.range_basis(n), d)
        dims.append(C.shape[1])
        assert C.shape[1] == stacked_kernel_dim(fam.level(n), d)
        assert_allclose(C.conj().T @ C, np.eye(C.shape[1]), atol=1e-12)
        # C lies in both ranges, and the next level's range lies in C
        on_left = kron_id(fam.level(n), C, d, op_first=True)
        on_right = kron_id(fam.level(n), C, d, id_first=False, op_first=True)
        assert np.abs(C - on_left).max(initial=0.0) <= 1e-12
        assert np.abs(C - on_right).max(initial=0.0) <= 1e-12
        R = fam.range_basis(n + 1)
        assert np.abs(R - C @ (C.conj().T @ R)).max(initial=0.0) <= 1e-12
    assert max(dims) > 0


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_projection_family_refuses_a_non_finite_entry(bad):
    space = TruncatedFockSpace(d=2, N=2)
    pi = [np.eye(space.dim(n)) for n in space.levels()]
    pi[2][3, 3] = bad
    with pytest.raises(ValueError, match="level 2 matrix has a non-finite entry"):
        ProjectionFamily(space, pi)


@pytest.mark.parametrize("pi_0", (np.full((1, 1), np.nan), np.ones((1, 2)), np.ones((0, 0))))
def test_projection_family_refuses_a_pi_0_that_is_not_the_vacuum_identity(pi_0):
    # pi_0 is replaced by [[1]], so no later check sees it; a NaN used to pass
    with pytest.raises(ValueError, match="pi_0"):
        ProjectionFamily(TruncatedFockSpace(d=2, N=1), (pi_0, np.eye(2)))


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_from_ranges_refuses_a_non_finite_entry(bad):
    space = TruncatedFockSpace(d=2, N=2)
    ranges = [np.eye(space.dim(n)) for n in space.levels()]
    ranges[2][0, 0] = bad
    with pytest.raises(ValueError, match="level 2 range basis has a non-finite entry"):
        ProjectionFamily.from_ranges(space, ranges)


MIRROR_SPACES = {
    **{f"q{q}_d{d}": (lambda q=q, d=d: build(q_fock_recursive(TruncatedFockSpace(d=d, N=6 if d == 2 else 4), q)))
       for q in (-1.0, -0.5, 0.5, 0.97, 1.0) for d in (2, 3)},
    "symmetric_d3_N5": lambda: pi_space(symmetric_projections(3, 5))[0],
    "identity_d3_N4": lambda: build(identity_family(TruncatedFockSpace(d=3, N=4))),
}


@pytest.mark.parametrize("name", sorted(MIRROR_SPACES))
def test_right_creator_norms_mirror_the_left_on_reversal_invariant_families(name):
    # L_n commutes with the word reversal, which carries the left creators of
    # a space onto its right ones: both sides run the same code on letter
    # tables of either side, so ||kappa'_{n+1}|| = ||kappa_{n+1}||
    space = MIRROR_SPACES[name]()
    rep = two_sided_test(space)
    assert rep["exists"]
    for got, want in zip(rep["kappa_prime_norms"], space.kappa_norms, strict=True):
        assert abs(got - want) <= 1e-13 * want
