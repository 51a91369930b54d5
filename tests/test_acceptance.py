"""End-to-end gate: each test pins one headline guarantee of the package."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fockbench import boundedness, cli, onemode, opalg, subproduct
from fockbench.deformations import q_fock, q_fock_recursive
from fockbench.interacting import (
    build,
    lambda_from_squeezing,
    random_poi_family,
    space_from_squeezing,
    squeezing_of,
    is_squeezing,
    verify_space,
)
from fockbench.tensor_core import TruncatedFockSpace
from oracles import on_vacuum


# 1. deformed commutation relations ----------------------------------------


@pytest.mark.parametrize("q", [-0.9, -0.5, 0.0, 0.5, 0.9])
def test_q_commutation_residual(q):
    space = build(q_fock(TruncatedFockSpace(d=2, N=5), q))
    rng = np.random.default_rng(1000 + int(q * 10))
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for n in range(5):
            lhs = space.creator_x(n, x).conj().T @ space.creator_x(n, y)
            if n > 0:
                lhs = lhs - q * space.creator_x(n - 1, y) @ space.creator_x(n - 1, x).conj().T
            lhs = lhs - np.vdot(x, y) * np.eye(space.ranks[n])
            worst = max(worst, np.linalg.norm(lhs))
    assert worst <= 1e-9


# 2. positivity of the deformed inner products ------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_q_gram_positivity_and_recursion(d):
    space = TruncatedFockSpace(d=d, N=6)
    for q in (-0.9, -0.5, -0.2, 0.0, 0.2, 0.5, 0.9):
        naive = q_fock(space, q)
        fast = q_fock_recursive(space, q)
        for n in space.levels():
            w = np.linalg.eigvalsh(naive.level(n))
            assert w[0] >= -1e-10 * max(w[-1], 1.0)
            assert np.abs(naive.level(n) - fast.level(n)).max() <= 1e-12 * max(w[-1], 1.0)


# 3. moments to Jacobi weights and back --------------------------------------

GAUSSIAN = (1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0)
CATALAN = (1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 5.0, 0.0, 14.0)


@pytest.mark.parametrize(
    "moments,expected_k",
    [(GAUSSIAN, (1.0, 2.0, 3.0, 4.0)), (CATALAN, (1.0, 1.0, 1.0, 1.0))],
)
def test_moment_round_trip(moments, expected_k):
    k = onemode.jacobi_from_moments(moments)
    assert_allclose(k, expected_k, atol=1e-8)
    recovered = onemode.vacuum_moments(k, len(moments) - 1)
    assert max(abs(a - b) for a, b in zip(moments, recovered)) <= 1e-9


# 4. squeezing round trip on random families ---------------------------------


def _word_grams(space):
    """Gram matrix of all creator-word vectors, per level (basis letters)."""
    d, N = space.space.d, space.space.N
    grams = []
    basis = np.eye(d)
    for n in range(1, N + 1):
        cols = []
        for idx in itertools.product(range(d), repeat=n):
            word = [(+1, basis[i]) for i in idx]
            lvl, vec = on_vacuum(word, space)
            assert lvl == n
            cols.append(vec)
        W = np.column_stack(cols)
        grams.append(W.conj().T @ W)
    return grams


@pytest.mark.parametrize("seed", range(25))
def test_squeezing_round_trip(seed):
    space = build(random_poi_family(2, 4, seed=seed))
    sq = squeezing_of(space)
    ok, worst, _ = is_squeezing(sq)
    assert ok, f"squeezing axioms violated: {worst:.3e}"
    assert verify_space(space)["kernel"] <= 1e-8
    # the squeezing's recursion returns the space's embedded form
    for lam_sq, lam in zip(lambda_from_squeezing(sq), space.lam, strict=True):
        assert np.linalg.norm(lam_sq - lam) <= 1e-8 * max(1.0, np.linalg.norm(lam))
    rebuilt = space_from_squeezing(sq)
    for G, H in zip(_word_grams(space), _word_grams(rebuilt)):
        assert np.abs(G - H).max() <= 1e-8


# 5. subproduct certification ------------------------------------------------


def test_adjacent_chains_imply_all_pairwise():
    for seed in range(100):
        fam = subproduct.random_adjacent_family(2, 4, seed=seed)
        cert = subproduct.certify(fam)
        assert cert.ok and cert.theorem_confirmed
        assert max(cert.pairwise.values()) <= 1e-10
        assert cert.coisometry <= 1e-10
        assert cert.associativity <= 1e-10


def test_symmetric_family_certifies():
    cert = subproduct.certify(subproduct.symmetric_projections(2, 4))
    assert cert.ok and cert.theorem_confirmed


def test_nested_point_family_is_one_sided():
    cert = subproduct.certify(subproduct.nested_point_projections(3, 3))
    assert max(cert.squeezing_side) <= 1e-10
    assert max(cert.kernel_side) >= 0.9
    assert not cert.ok


# 6. projections give spaces where everything coincides ----------------------


@pytest.mark.parametrize(
    "family",
    [
        subproduct.symmetric_projections(2, 4),
        subproduct.nested_point_projections(3, 3),
        subproduct.random_adjacent_family(2, 4, seed=5),
        subproduct.random_adjacent_family(2, 3, seed=17),
    ],
    ids=["symmetric", "nested-point", "random-5", "random-17"],
)
def test_projection_space_collapse(family):
    space, sq, deviation = subproduct.pi_space(family)
    assert deviation <= 1e-10
    for n in range(1, family.space.N + 1):
        assert np.abs(space.lam[n] - family.level(n)).max() <= 1e-10
        assert np.abs(sq.level(n) - family.level(n)).max() <= 1e-10


# 7. boundedness separations -------------------------------------------------


def test_bounded_form_unbounded_creators():
    rows = boundedness.demo_bounded_L_unbounded_creators((4, 8, 40, 100, 400))
    assert rows[-1]["ratio"] / rows[0]["ratio"] >= 9.0
    assert all(r["L_max_eig"] <= 1 + 1e-12 for r in rows)


def test_bounded_creators_unbounded_form():
    for K in (5, 10, 20, 40):
        doc = boundedness.demo_bounded_creators_unbounded_L(K)
        assert doc["ok"]
        assert doc["max_ratio"] <= 1 + 1e-10
        assert_allclose(doc["L2_norm"], float(K), rtol=1e-12)


def test_unbounded_squeezing_ratio():
    doc = boundedness.demo_unbounded_squeezing(500)
    ratios = doc["ratios"]
    assert doc["final_ratio"] >= 5.0
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


# 8. certified rescaling of a functional -------------------------------------


def test_rescaled_functional_stays_under_one_third():
    rng = np.random.default_rng(1)
    F = rng.uniform(0.0, 100.0, size=(50, 50))
    res = boundedness.rescale_functional(F)
    assert res.ok
    assert 0 < res.norm <= res.certified_bound <= 1 / 3


# 9. word-operator spans on the pair-collapse space --------------------------


def test_word_span_dimensions_and_degeneracy():
    space = build(boundedness.pair_collapse_family(3))
    spans = {w: opalg.span_build(space, w) for w in opalg.SPAN_KINDS}
    assert [spans[w].rank for w in ("mod_alt", "mod_nc", "mod_word", "mod_all")] == [6, 6, 6, 6]
    assert [spans[w].rank for w in ("alg_alt", "alg_nc", "alg_word", "alg_all")] == [10, 10, 11, 11]
    for chain in (("mod_alt", "mod_nc", "mod_word", "mod_all"), ("alg_alt", "alg_nc", "alg_word", "alg_all")):
        for small, large in zip(chain, chain[1:]):
            assert spans[large].contains_span(spans[small]) <= 1e-10
    action = opalg.check_left_action(spans["alg_alt"], spans["mod_all"])
    assert action["invariant"] <= 1e-10
    assert not action["nondegenerate"]
    assert opalg.check_left_action(spans["alg_word"], spans["mod_word"])["nondegenerate"]


# 10. byte-determinism of reports --------------------------------------------


def test_reports_are_byte_identical_across_runs(tmp_path):
    fam = tmp_path / "fam.json"
    assert cli.main(["deform", "--kind", "q", "--q", "0.6", "-d", "2", "-N", "4",
                     "--out", str(fam)]) == 0
    outs = []
    for tag in ("a", "b"):
        space = tmp_path / f"space-{tag}.json"
        report = tmp_path / f"cert-{tag}.json"
        assert cli.main(["build", str(fam), "--out", str(space)]) == 0
        assert cli.main(["subproduct", "certify", "--random", "-d", "2", "-N", "4",
                         "--seed", "3", "--report", str(report)]) == 0
        outs.append(space.read_bytes() + report.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads((tmp_path / "cert-a.json").read_text())
    assert doc["ok"]


# 11. a factored family is its factors ---------------------------------------


def _poi_build_verify():
    fam = random_poi_family(3, 7, seed=1, ranks=(1, 3, 6, 10, 15, 21, 28, 36))
    return max(verify_space(build(fam)).values()) <= 1e-8


def _certify_symmetric():
    return subproduct.certify(subproduct.symmetric_projections(3, 7)).ok


def _squeezing_round_trip():
    space = build(random_poi_family(3, 7, seed=1, ranks=(1, 3, 6, 10, 15, 21, 28, 36)))
    sq = squeezing_of(space)
    return is_squeezing(sq)[0] and space_from_squeezing(sq).ranks == space.ranks


def _pi_space_symmetric():
    family = subproduct.symmetric_projections(3, 7)
    space, _, deviation = subproduct.pi_space(family)
    return space.ranks == family.ranks and deviation <= 1e-10


@pytest.mark.parametrize("run", [_poi_build_verify, _certify_symmetric, _squeezing_round_trip, _pi_space_symmetric])
def test_factored_families_allocate_no_top_level_square(run):
    # one complex 3**7 x 3**7 matrix is 16 * 3**14 bytes: building, verifying
    # or certifying a family held as its factors allocates no such matrix, and
    # neither do the round trip through its squeezing, held as triples, and
    # pi_space's deviations
    tracemalloc.start()
    try:
        ok = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 16 * 3**14

