import dataclasses
import tracemalloc
from itertools import product
from math import comb

import numpy as np
import pytest

from fockbench import opalg
from fockbench.boundedness import pair_collapse_family
from fockbench.deformations import discrete_monotone, identity_family, q_fock, q_fock_recursive
from fockbench.interacting import build, random_poi_family
from fockbench.onemode import onemode_space
from fockbench.opalg import (
    SPAN_KINDS,
    SPAN_TOL,
    OperatorSpan,
    alternating_signature,
    check_left_action,
    check_ternary,
    signatures,
    span_build,
)
from fockbench.subproduct import pi_space, symmetric_projections
from fockbench.tensor_core import TruncatedFockSpace
from oracles import dense_basis, every_signature_spans, reference_extend_onb, reference_spans, reference_suffix_rows

# ranks (1, 3, 1): a three-dimensional one-particle space whose second level
# collapses to a line, so words can reach the top slot only through it.
PAIR = build(pair_collapse_family(3))


def test_signature_enumeration_examples():
    assert signatures(2, 0, nc=True) == [(-1, 1)]
    assert signatures(2, 0) == [(-1, 1), (1, -1)]
    assert signatures(3, 1) == [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]
    assert signatures(3, 1, nc=True) == [(-1, 1, 1), (1, -1, 1)]
    assert signatures(3, 0) == []  # parity mismatch
    assert signatures(2, 4) == []  # unreachable total
    assert signatures(5, -5) == [(-1,) * 5]
    with pytest.raises(ValueError):
        signatures(0, 0)


def brute_signatures(n, total, nc):
    """Every +-1 tuple of length n, filtered: the 2**n oracle."""
    out = []
    for sig in product((-1, 1), repeat=n):
        partial = [sum(sig[k:]) for k in range(n)]
        if sum(sig) == total and (not nc or min(partial) >= 0):
            out.append(sig)
    return out


@pytest.mark.parametrize("nc", [False, True])
def test_signatures_match_brute_force_enumeration(nc):
    for n in range(1, 11):
        for total in range(-n - 1, n + 2):
            assert signatures(n, total, nc=nc) == brute_signatures(n, total, nc), (n, total)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_noncrossing_counts_match_catalan(m):
    count = len(signatures(2 * m, 0, nc=True))
    assert count == comb(2 * m, m) // (m + 1)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_noncrossing_zero_sum_signatures_closed_under_adjoint(n):
    sigs = set(signatures(n, 0, nc=True))
    for sig in sigs:
        adjoint = tuple(-eps for eps in reversed(sig))
        assert adjoint in sigs


@pytest.mark.parametrize("total", [0, 1])
def test_noncrossing_words_contain_annihilator_then_creator_factor(total):
    # any admissible word of length >= 2 must somewhere lower right after
    # raising, i.e. read a creator first and an annihilator directly after
    for n in range(2, 11):
        for sig in signatures(n, total, nc=True):
            assert any(
                sig[p] == -1 and sig[p + 1] == 1 for p in range(n - 1)
            ), sig


def test_alternating_signature_shapes():
    assert alternating_signature(1) == (1,)
    assert alternating_signature(2) == (-1, 1)
    assert alternating_signature(3) == (1, -1, 1)
    assert alternating_signature(4) == (-1, 1, -1, 1)
    # alternating words never dip below their starting grade
    for n in range(1, 9):
        sig = alternating_signature(n)
        assert sig in signatures(n, sum(sig), nc=True)
    with pytest.raises(ValueError):
        alternating_signature(0)


def test_full_degree_spans_are_block_bases():
    full_mod = span_build(PAIR, "mod_all")
    full_alg = span_build(PAIR, "alg_all")
    assert full_mod.rank == 3 + 3  # blocks 0->1 and 1->2 of ranks (1, 3, 1)
    assert full_alg.rank == 1 + 9 + 1
    assert full_mod.stabilized and full_alg.stabilized

    full = build(identity_family(TruncatedFockSpace(2, 3)))  # ranks (1, 2, 4, 8)
    assert span_build(full, "mod_all").rank == 1 * 2 + 2 * 4 + 4 * 8
    assert span_build(full, "alg_all").rank == 1 + 4 + 16 + 64


def test_pair_collapse_span_dimensions():
    e_ranks = {w: span_build(PAIR, w).rank for w in ("mod_alt", "mod_nc", "mod_word", "mod_all")}
    b_ranks = {w: span_build(PAIR, w).rank for w in ("alg_alt", "alg_nc", "alg_word", "alg_all")}
    assert e_ranks == {"mod_alt": 6, "mod_nc": 6, "mod_word": 6, "mod_all": 6}
    assert b_ranks == {"alg_alt": 10, "alg_nc": 10, "alg_word": 11, "alg_all": 11}
    for w in ("mod_alt", "mod_nc", "mod_word", "alg_alt", "alg_nc", "alg_word"):
        assert span_build(PAIR, w).stabilized


@pytest.mark.parametrize(
    "chain",
    [("mod_alt", "mod_nc", "mod_word", "mod_all"), ("alg_alt", "alg_nc", "alg_word", "alg_all")],
)
def test_pair_collapse_inclusion_chains(chain):
    spans = [span_build(PAIR, w) for w in chain]
    for smaller, larger in zip(spans, spans[1:]):
        assert larger.contains_span(smaller) <= 1e-10
    # the first two links are equalities here, the third is strict on the
    # algebra side
    assert spans[0].contains_span(spans[1]) <= 1e-10


def test_pair_collapse_left_actions():
    full_mod = span_build(PAIR, "mod_all")
    mod_word = span_build(PAIR, "mod_word")
    alg_word = span_build(PAIR, "alg_word")
    alg_alt = span_build(PAIR, "alg_alt")
    full_alg = span_build(PAIR, "alg_all")

    res = check_left_action(alg_word, mod_word)
    assert res["invariant"] <= 1e-10
    assert res["nondegenerate"]

    res = check_left_action(full_alg, full_mod)
    assert res["invariant"] <= 1e-10
    assert res["nondegenerate"]

    # alternating-word algebra annihilates the top grade, so its action
    # on the degree-one space loses the top-row blocks entirely
    res = check_left_action(alg_alt, full_mod)
    assert res["invariant"] <= 1e-10
    assert not res["nondegenerate"]
    assert res["action_rank"] == full_mod.rank - 3

    res = check_left_action(scalars_span(PAIR), full_mod)
    assert res["invariant"] <= 1e-12
    assert res["nondegenerate"]


def test_pair_collapse_ternary_closure():
    assert check_ternary(span_build(PAIR, "mod_all")) <= 1e-10
    assert check_ternary(span_build(PAIR, "mod_alt")) <= 1e-10


def scalars_span(space):
    """The identity, normalised, as a degree 0 span on the space's ranks."""
    identity = np.concatenate([np.eye(r).ravel() for r in space.ranks])
    return OperatorSpan(coords=identity[None] / np.linalg.norm(identity), ranks=space.ranks, which="scalars")


def line_span(full_mod, seed=13):
    """A random complex degree 1 operator, normalised, as a span of its own."""
    rng = np.random.default_rng(seed)
    v = (rng.normal(size=full_mod.rank) + 1j * rng.normal(size=full_mod.rank)) @ full_mod.coords
    return OperatorSpan(coords=v[None] / np.linalg.norm(v), ranks=full_mod.ranks, degree=1, which="line")


def test_random_line_fails_ternary():
    assert check_ternary(line_span(span_build(PAIR, "mod_all"))) > 0.1


def test_one_mode_word_spans_reach_exactly_the_unkilled_diagonals():
    # distinct Jacobi weights: alternating words give a Vandermonde family
    # of diagonals vanishing on the top grade, and only unrestricted words
    # (creator applied after an annihilator, read right to left) fill it in
    space = build(onemode_space((1.0, 2.0, 3.0, 4.0)))
    ranks = {w: span_build(space, w).rank for w in
             ("alg_alt", "alg_nc", "alg_word", "alg_all", "mod_alt", "mod_nc", "mod_word", "mod_all")}
    assert ranks == {
        "alg_alt": 4, "alg_nc": 4, "alg_word": 5, "alg_all": 5,
        "mod_alt": 4, "mod_nc": 4, "mod_word": 4, "mod_all": 4,
    }
    b_alt = span_build(space, "alg_alt")
    b_nc = span_build(space, "alg_nc")
    assert b_alt.contains_span(b_nc) <= 1e-10
    assert b_nc.contains_span(b_alt) <= 1e-10
    e_alt = span_build(space, "mod_alt")
    assert e_alt.contains_span(span_build(space, "mod_all")) <= 1e-10
    assert all(span_build(space, w).stabilized for w in ("alg_alt", "alg_word"))


def test_full_fock_single_letter_spans():
    # with every weight equal, alternating words collapse to powers of a
    # single projection, while dipping words still resolve the grades
    space = build(identity_family(TruncatedFockSpace(1, 4)))
    ranks = {w: span_build(space, w).rank for w in
             ("alg_alt", "alg_nc", "alg_word", "alg_all", "mod_alt", "mod_nc", "mod_word", "mod_all")}
    assert ranks == {
        "alg_alt": 1, "alg_nc": 4, "alg_word": 5, "alg_all": 5,
        "mod_alt": 1, "mod_nc": 4, "mod_word": 4, "mod_all": 4,
    }
    b_alt = span_build(space, "alg_alt")
    expected = np.diag([1.0, 1.0, 1.0, 1.0, 0.0]).astype(complex)
    assert b_alt.contains(expected) <= 1e-12
    assert b_alt.rank_history[0] == 0 and b_alt.rank_history[1] == 1


def test_q_fock_chains_and_adjoint_closure():
    space = build(q_fock(TruncatedFockSpace(2, 2), 0.5))
    spans = {w: span_build(space, w) for w in
             ("mod_alt", "mod_nc", "mod_word", "mod_all", "alg_alt", "alg_nc", "alg_word", "alg_all")}
    for chain in (("mod_alt", "mod_nc", "mod_word", "mod_all"), ("alg_alt", "alg_nc", "alg_word", "alg_all")):
        for smaller, larger in zip(chain, chain[1:]):
            assert spans[larger].contains_span(spans[smaller]) <= 1e-10
    b_nc = spans["alg_nc"]
    worst = max(b_nc.contains(m.conj().T) for m in dense_basis(b_nc))
    assert worst <= 1e-10
    assert all(s.stabilized for s in spans.values())


def test_span_build_validation():
    with pytest.raises(ValueError, match="span kind"):
        span_build(PAIR, "B_wrong")
    with pytest.raises(ValueError, match="horizon"):
        span_build(PAIR, "alg_word", horizon=0)
    # a bool or a non-integral horizon was floored: 2.5 built to length 2, True to 1
    for bad in (2.5, 3.0, True, np.True_, "3"):
        with pytest.raises(ValueError, match="horizon must be an integer"):
            span_build(PAIR, "mod_word", horizon=bad)
    numpy_int = span_build(PAIR, "mod_word", horizon=np.int64(2))
    assert type(numpy_int.horizon) is int and numpy_int.rank_history == span_build(PAIR, "mod_word", 2).rank_history
    short = span_build(PAIR, "mod_word", horizon=1)
    assert short.rank == 3 and not short.stabilized
    empty = span_build(PAIR, "alg_word", horizon=1)
    assert empty.rank == 0 and not empty.stabilized
    assert empty.contains(np.eye(sum(PAIR.ranks))) == 1.0
    with pytest.raises(ValueError, match="size"):
        span_build(PAIR, "mod_all").contains(np.eye(2))
    with pytest.raises(ValueError, match="orthonormal"):
        OperatorSpan(coords=np.ones((2, 9)), ranks=(3,))


# (rank, rank_history) of every kind for q-Fock q = 0.5, as the per-vector
# Gram-Schmidt accumulation produced them
Q_FOCK_SPANS = {
    (2, 3): {
        "mod_alt": (42, (2, 2, 10, 10, 42, 42, 42, 42)),
        "alg_alt": (21, (0, 4, 4, 20, 20, 21, 21, 21)),
        "mod_nc": (42, (2, 2, 18, 18, 42, 42, 42, 42)),
        "alg_nc": (21, (0, 4, 4, 21, 21, 21, 21, 21)),
        "mod_word": (42, (2, 2, 18, 18, 42, 42, 42, 42)),
        "alg_word": (85, (0, 8, 8, 41, 41, 85, 85, 85)),
        "mod_all": (42, (42,)),
        "alg_all": (85, (85,)),
    },
    (3, 2): {
        "mod_alt": (30, (3, 3, 30, 30, 30, 30)),
        "alg_alt": (10, (0, 9, 9, 10, 10, 10)),
        "mod_nc": (30, (3, 3, 30, 30, 30, 30)),
        "alg_nc": (10, (0, 9, 9, 10, 10, 10)),
        "mod_word": (30, (3, 3, 30, 30, 30, 30)),
        "alg_word": (91, (0, 18, 18, 91, 91, 91)),
        "mod_all": (30, (30,)),
        "alg_all": (91, (91,)),
    },
}


@pytest.mark.parametrize("d,N", list(Q_FOCK_SPANS))
def test_q_fock_span_ranks_and_histories(d, N):
    space = build(q_fock_recursive(TruncatedFockSpace(d, N), 0.5))
    for which in SPAN_KINDS:
        span = span_build(space, which)
        assert (span.rank, span.rank_history) == Q_FOCK_SPANS[(d, N)][which], which
        assert span.stabilized


def test_q_fock_alternating_module_is_ternary_closed():
    space = build(q_fock_recursive(TruncatedFockSpace(2, 3), 0.5))
    assert check_ternary(span_build(space, "mod_alt")) <= 1e-10


# Loop forms of the batched checks on dense R x R matrices (``dense_basis``):
# one matrix or one pair at a time, as the reference the graded GEMM versions
# must agree with.


def loop_contains(basis, mat, reference=None):
    v = np.asarray(mat, dtype=complex).reshape(-1)
    scale = np.linalg.norm(v)
    if reference is not None:
        scale = max(scale, float(reference))
    if scale == 0.0:
        return 0.0
    if len(basis) == 0:
        return float(np.linalg.norm(v) / scale)
    vecs = basis.reshape(len(basis), -1)
    return float(np.linalg.norm(v - vecs.T @ (vecs.conj() @ v)) / scale)


def loop_contains_span(span, other):
    basis = dense_basis(span)
    return max((loop_contains(basis, mat) for mat in dense_basis(other)), default=0.0)


def loop_ternary(span):
    # per pair (x, y), every x y* z with z running over the basis
    basis = dense_basis(span)
    vecs = basis.reshape(len(basis), -1)
    worst = 0.0
    for x in basis:
        for y in basis:
            prods = ((x @ y.conj().T) @ basis).reshape(len(basis), -1)
            rem = prods - (prods @ vecs.conj().T) @ vecs
            scale = np.maximum(np.linalg.norm(prods, axis=1), 1.0)
            worst = max(worst, float((np.linalg.norm(rem, axis=1) / scale).max()))
    return worst


def loop_left_action(acting, module):
    # invariant: the part of the whole product stack off the module span,
    # relative to the whole stack, both Frobenius norms
    basis = dense_basis(module)
    prods = np.array([c @ m for c in dense_basis(acting) for m in basis]).reshape(-1, basis.shape[-1] ** 2)
    off = sum((loop_contains(basis, p) * np.linalg.norm(p)) ** 2 for p in prods)
    whole = sum(np.linalg.norm(p) ** 2 for p in prods)
    worst = float(np.sqrt(off / whole)) if whole > 0 else 0.0
    svals = np.linalg.svd(prods, compute_uv=False)
    action_rank = int((svals > SPAN_TOL * svals[0]).sum()) if svals.size and svals[0] > 0 else 0
    return worst, action_rank


def test_batched_checks_match_loop_oracles():
    # PAIR and two q-Fock spaces, with two custom spans on each space's ranks:
    # the normalised identity and a random degree 1 line.  The ternary check
    # of the q-Fock degree 0 spans of rank 85 and 91 runs through r**3 ~ 0.7 M
    # triples (seconds each), so ternaries are compared up to rank 42, the
    # largest module rank.
    q_fock_spaces = [build(q_fock_recursive(TruncatedFockSpace(d, N), 0.5)) for d, N in ((2, 3), (3, 2))]
    for space, witness in ((PAIR, 0.1), *((s, 0.01) for s in q_fock_spaces)):
        spans = {w: span_build(space, w) for w in SPAN_KINDS}
        spans["line"], spans["scalars"] = line_span(spans["mod_all"]), scalars_span(space)
        assert loop_ternary(spans["line"]) > witness
        for name, span in spans.items():
            if span.rank <= 42:
                assert abs(check_ternary(span) - loop_ternary(span)) <= 1e-12, name
            for other in spans.values():
                assert abs(span.contains_span(other) - loop_contains_span(span, other)) <= 1e-12
        for acting in ("alg_alt", "alg_word", "alg_all", "scalars", "line"):
            for module in ("mod_alt", "mod_all", "line"):
                got = check_left_action(spans[acting], spans[module])
                worst, action_rank = loop_left_action(spans[acting], spans[module])
                assert abs(got["invariant"] - worst) <= 1e-12, (acting, module)
                assert got["action_rank"] == action_rank, (acting, module)
                assert got["nondegenerate"] == (action_rank == spans[module].rank)


def test_spans_on_different_ranks_are_refused():
    # a span is graded by its space's ranks, so two spaces' spans share no coordinates
    q23, q32 = q_fock_space(2, 3), q_fock_space(3, 2)
    for a, b in (("alg_word", "mod_all"), ("mod_alt", "mod_alt")):
        first, second = span_build(q23, a), span_build(q32, b)
        with pytest.raises(ValueError, match="different spaces"):
            first.contains_span(second)
        with pytest.raises(ValueError, match="different spaces"):
            check_left_action(first, second)


@pytest.mark.parametrize("which", ["alg_alt", "alg_nc", "mod_alt", "mod_nc", "line", "scalars"])
def test_contains_matches_the_dense_loop_oracle(which):
    # degree 0 and 1 spans against members, matrices of either degree and
    # matrices with entries off the span's support, with and without reference
    space = q_fock_space(2, 3)
    mod_all = span_build(space, "mod_all")
    span = {"line": line_span(mod_all), "scalars": scalars_span(space)}.get(which) or span_build(space, which)
    basis, rng = dense_basis(span), np.random.default_rng(7)
    R = basis.shape[-1]
    noise = rng.standard_normal((3, R, R)) + 1j * rng.standard_normal((3, R, R))
    mats = [*basis[:3], basis[0] + 1e-3 * noise[0], noise[1], basis[0] + noise[2] * (np.abs(basis[0]) == 0),
            *dense_basis(span_build(space, "alg_word"))[:2], *dense_basis(mod_all)[:2], np.zeros((R, R))]
    for mat in mats:
        for reference in (None, 1.0, 10.0):
            assert abs(span.contains(mat, reference) - loop_contains(basis, mat, reference)) <= 1e-12


def stacked_action_rank(acting, module):
    """Rank of every product acting[i] @ module[j], stacked whole: the oracle."""
    prods = dense_basis(acting)[:, None] @ dense_basis(module)[None]
    prods = prods.reshape(-1, prods.shape[-1] ** 2)
    svals = np.linalg.svd(prods, compute_uv=False)
    return int((svals > SPAN_TOL * svals[0]).sum()) if svals.size and svals[0] > 0 else 0


@pytest.mark.parametrize("d,N", [(2, 3), (3, 2)])
def test_folded_action_rank_matches_stacked_svd(d, N):
    space = build(q_fock_recursive(TruncatedFockSpace(d=d, N=N), 0.5))
    spans = {w: span_build(space, w) for w in SPAN_KINDS}
    for acting in ("alg_alt", "alg_nc", "alg_word", "alg_all"):
        for module in ("mod_alt", "mod_nc", "mod_word", "mod_all"):
            got = check_left_action(spans[acting], spans[module])
            want = stacked_action_rank(spans[acting], spans[module])
            assert got["action_rank"] == want, (acting, module)
            assert got["nondegenerate"] == (want == spans[module].rank), (acting, module)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_left_action_memory_stays_bounded():
    # the 341 * 170 products in graded coordinates would take 158 MB
    # stacked; one block of them (9 acting operators) held as dense 31 x 31
    # matrices would alone take 23.5 MB, and the graded check peaks near
    # 13.7 MB
    space = build(q_fock_recursive(TruncatedFockSpace(d=2, N=4), 0.5))
    acting, module = span_build(space, "alg_all"), span_build(space, "mod_all")
    res, peak = traced_peak(check_left_action, acting, module)
    assert res["action_rank"] == module.rank == 170 and res["nondegenerate"]
    assert peak <= 16 * 2**20
    # the full module decides the check without products; one operator
    # short of its support, the 341 * 169 products are formed block by block
    short = OperatorSpan(coords=module.coords[1:], ranks=module.ranks, degree=module.degree)
    res, peak = traced_peak(check_left_action, acting, short)
    assert res["action_rank"] == 170 and not res["nondegenerate"] and res["invariant"] > 0.01
    assert peak <= 16 * 2**20


def test_ternary_check_holds_no_dense_product_stack():
    # mod_alt fills the 30 entries of the degree +1 blocks of ranks (1, 3, 9);
    # one block of triples (291 pairs) held as dense 13 x 13 matrices would
    # alone take 23.6 MB, and the graded check peaks near 12.8 MB
    space = build(q_fock_recursive(TruncatedFockSpace(d=3, N=2), 0.5))
    span = span_build(space, "mod_alt")
    worst, peak = traced_peak(check_ternary, span)
    assert span.rank == 30 and worst <= 1e-10
    assert peak <= 16 * 2**20
    # the full span decides the check without products; one operator short
    # of its support, the 29**3 triples are formed block by block.  The full
    # span's coords are the identity, whose rows less one still span a
    # ternary-closed coordinate subspace, so the rows are rotated first
    short = OperatorSpan(coords=(orthonormal_rows(span.rank, 0) @ span.coords)[1:], ranks=span.ranks,
                         degree=span.degree)
    worst, peak = traced_peak(check_ternary, short)
    assert worst > 0.01
    assert peak <= 16 * 2**20



def test_a_span_that_fills_its_support_has_distance_zero_to_every_operator():
    space = build(q_fock_recursive(TruncatedFockSpace(d=2, N=3), 0.5))
    rng = np.random.default_rng(4)
    spans = {which: span_build(space, which) for which in ("mod_word", "mod_all", "alg_word", "alg_all")}
    for which, span in spans.items():
        assert span.rank == span.coords.shape[1]  # the whole support of its degree
        vecs = rng.standard_normal((7, span.rank)) + 1j * rng.standard_normal((7, span.rank))
        vecs[3] = 0.0
        got = span.residuals(vecs)
        assert got.dtype == float and np.array_equal(got, np.zeros(7))
        # the projection it skips would leave only rounding
        rem = vecs - (vecs @ span.coords.conj().T) @ span.coords
        assert np.linalg.norm(rem) <= 1e-13 * np.linalg.norm(vecs)
        # an operator of the other degree is still orthogonal to it
        other = spans["alg_all" if span.degree else "mod_all"]
        assert np.array_equal(span.residuals(other.coords[:3], degree=other.degree), np.ones(3))
    # a span one operator short of its support still projects
    full = spans["alg_all"]
    short = OperatorSpan(coords=full.coords[1:], ranks=full.ranks, degree=full.degree)
    assert short.residuals(full.coords[:1])[0] == pytest.approx(1.0, abs=1e-15)
    assert short.residuals(full.coords[1:]).max() <= 1e-15


def q_fock_space(d, N, q=0.5):
    return build(q_fock_recursive(TruncatedFockSpace(d=d, N=N), q))


def test_span_kinds_read_one_table_in_any_order():
    forward, backward = q_fock_space(2, 3), q_fock_space(2, 3)
    spans = {which: span_build(forward, which) for which in SPAN_KINDS}
    for which in reversed(SPAN_KINDS):
        span = span_build(backward, which)
        assert np.array_equal(span.coords, spans[which].coords), which
        assert span.rank_history == spans[which].rank_history, which
    # the table's arrays are shared by every reader, so none may write to them
    assert forward._words and not any(a.flags.writeable for a in forward._words.values())


def span_work(monkeypatch, fn, *args):
    """fn(*args), the number of suffix-span SVDs it runs (the SVDs taken while
    no _extend_onb or _fill call is running; an extend may take one or none,
    and a fill test one values-only SVD or none), the number of _extend_onb
    calls and the number of fill tests that certified a fill."""
    calls, busy = {"svd": 0, "extend": 0, "fill": 0}, [False]
    svd, extend, fill = np.linalg.svd, opalg._extend_onb, opalg._fill

    def counting_svd(*args, **kwargs):
        calls["svd"] += not busy[0]
        return svd(*args, **kwargs)

    def flagged(step, key, counts):
        def run(*args):
            busy[0] = True
            try:
                out = step(*args)
            finally:
                busy[0] = False
            calls[key] += counts(out)
            return out
        return run

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", counting_svd)
        patch.setattr(opalg, "_extend_onb", flagged(extend, "extend", lambda out: 1))
        patch.setattr(opalg, "_fill", flagged(fill, "fill", lambda out: int(out[1])))
        out = fn(*args)
    return out, calls["svd"], calls["extend"], calls["fill"]


def suffix_svds(monkeypatch, space, which, horizon=None):
    """The number of suffix-span SVDs that span_build runs, and the span."""
    span, svds, _, _ = span_work(monkeypatch, span_build, space, which, horizon)
    return svds, span


def test_a_later_kind_reuses_the_suffix_spans(monkeypatch):
    # words of total 0 that never dip are words of total 0, so once alg_word
    # has run to the same horizon, alg_nc finds every suffix span it needs
    space = q_fock_space(2, 3)
    fresh, want = suffix_svds(monkeypatch, q_fock_space(2, 3), "alg_nc", 4)
    assert fresh > 0
    assert suffix_svds(monkeypatch, space, "alg_word", 4)[0] > 0
    count, span = suffix_svds(monkeypatch, space, "alg_nc", 4)
    assert count == 0 and np.array_equal(span.coords, want.coords)
    # at the default horizon alg_word fills its support at length 6 and stops,
    # so alg_nc computes only the suffix spans of signatures the table lacks
    # (one SVD each, none where the tail's span or the signature's reach is
    # empty), that its filled reaches do not cover and that come before a
    # certified fill: after alg_word none is left, after mod_alt alone some are
    whole = span_build(q_fock_space(2, 3), "alg_nc").coords
    counts = {}
    for first, space in (("alg_word", space), ("mod_alt", q_fock_space(2, 3))):
        span_build(space, first)
        known = set(space._words)
        count, span = suffix_svds(monkeypatch, space, "alg_nc")
        added = set(space._words) - known
        reach = {sig: opalg._reach(space.ranks, sig) for sig in added}
        assert count == sum(len(space._words[sig[1:]]) > 0 and reach[sig].stop > reach[sig].start for sig in added)
        assert np.array_equal(span.coords, whole)
        # and a kind built twice computes nothing the second time
        assert suffix_svds(monkeypatch, space, "alg_nc")[0] == 0
        counts[first] = count
    assert counts["alg_word"] == 0 < counts["mod_alt"]


def test_the_word_table_belongs_to_its_space():
    # q = 0.5 and q = -0.5 share the ranks (1, 2, 4, 8) but not the creators
    plus, minus = q_fock_space(2, 3, 0.5), q_fock_space(2, 3, -0.5)
    assert plus.ranks == minus.ranks
    for which in SPAN_KINDS:
        span_build(plus, which)
    assert not minus._words and not dataclasses.replace(plus)._words
    clean = q_fock_space(2, 3, -0.5)
    for which in SPAN_KINDS:
        got, want = span_build(minus, which), span_build(clean, which)
        assert np.array_equal(got.coords, want.coords), which
        assert got.rank_history == want.rank_history, which
    assert not np.array_equal(plus._words[(-1, 1)], minus._words[(-1, 1)])


# spaces whose creators vanish out of the top level and whose annihilators
# vanish out of the vacuum, so most signatures reach only part of the support
REACH_SPACES = {
    **{f"q{d}{N}@{q}": (lambda d=d, N=N, q=q: q_fock_space(d, N, q))
       for d, N in ((2, 3), (3, 2), (2, 4)) for q in (-1, 0, 0.5, 1)},
    "monotone33": lambda: build(discrete_monotone(TruncatedFockSpace(d=3, N=3))),
    "poi23": lambda: build(random_poi_family(2, 3, seed=3, ranks=(1, 2, 3, 4))),
}


@pytest.mark.parametrize("name", REACH_SPACES)
def test_a_suffix_span_is_zero_off_its_reach(name):
    space = REACH_SPACES[name]()
    for which in SPAN_KINDS:
        span_build(space, which)
    cut = 0
    for sig in [sig for sig in space._words if isinstance(sig, tuple) and sig]:
        entry, reach = space._words[sig], opalg._reach(space.ranks, sig)
        off = np.ones(entry.shape[1], dtype=bool)
        off[reach] = False
        assert not np.any(entry[:, off]), sig
        cut += int(off.sum())
    assert cut > 0


def test_the_reach_of_a_signature():
    # ranks (1, 2, 4, 8): a* a starts on levels 0..2 and a a* on levels 1..3,
    # of the degree 0 blocks of sizes 1, 4, 16, 64
    ranks = (1, 2, 4, 8)
    assert opalg._reach(ranks, (-1, 1)) == slice(0, 21)
    assert opalg._reach(ranks, (1, -1)) == slice(1, 85)
    # three creators start on level 0 only, four on none
    assert opalg._reach(ranks, (1, 1, 1)) == slice(0, 8)
    assert opalg._reach(ranks, (1, 1, 1, 1)) == slice(0, 0)


@pytest.mark.parametrize("name", REACH_SPACES)
def test_spans_taken_on_the_reach_match_the_full_support(monkeypatch, name):
    space = REACH_SPACES[name]()
    assert name != "poi23" or space.dtype == complex
    got = {which: span_build(space, which) for which in SPAN_KINDS}
    # the oracle: every suffix SVD taken on the whole support of its degree
    monkeypatch.setattr(opalg, "_reach", lambda ranks, sig: slice(0, opalg._support_size(ranks, sum(sig))))
    oracle = REACH_SPACES[name]()
    for which in SPAN_KINDS:
        want = span_build(oracle, which)
        span = got[which]
        assert (span.rank, span.rank_history, span.stabilized) == (want.rank, want.rank_history, want.stabilized)
        projector = span.coords.conj().T @ span.coords
        assert np.max(np.abs(projector - want.coords.conj().T @ want.coords), initial=0.0) <= 1e-12, which


def test_an_extend_inside_the_span_takes_no_svd(monkeypatch):
    onb = span_build(q_fock_space(2, 3), "mod_alt").coords
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((len(onb), 5)))
    block = Q.T @ onb  # five orthonormal rows inside span(onb)

    def refuse(*args, **kwargs):
        raise AssertionError("an SVD was taken")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert opalg._extend_onb(onb, block) is onb


def refuse_products(*args, **kwargs):
    raise AssertionError("a product was formed")


def test_a_full_span_is_ternary_closed_without_products(monkeypatch):
    space = q_fock_space(2, 3)
    spans = [span_build(space, which) for which in ("mod_alt", "mod_word", "mod_all", "alg_word", "alg_all")]
    assert all(span.rank == span.coords.shape[1] for span in spans)
    monkeypatch.setattr(opalg, "_times", refuse_products)
    for span in spans:
        assert check_ternary(span) == 0.0, span.which


def random_rotation(span, seed):
    """The same span on another orthonormal basis: its coords rotated by a
    random orthogonal matrix."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((span.rank, span.rank)))
    return OperatorSpan(coords=Q @ span.coords, ranks=span.ranks, degree=span.degree, which=span.which)


def test_left_action_invariant_depends_on_the_spans_only():
    space = q_fock_space(3, 2)
    spans = {w: span_build(space, w) for w in ("alg_alt", "alg_word", "mod_alt", "mod_all")}
    rng = np.random.default_rng(5)
    full = spans["mod_all"].coords
    spans["mod_rand"] = OperatorSpan(coords=np.linalg.qr(rng.standard_normal((full.shape[1], 7)))[0].T,
                                     ranks=spans["mod_all"].ranks, degree=1, which="mod_rand")
    spans["scalars"] = scalars_span(space)
    values = {}
    for acting, module in product(("alg_alt", "alg_word", "scalars"), ("mod_alt", "mod_all", "mod_rand")):
        got = check_left_action(spans[acting], spans[module])["invariant"]
        for seed in range(3):
            for pair in ((random_rotation(spans[acting], seed), spans[module]),
                         (spans[acting], random_rotation(spans[module], seed))):
                assert abs(check_left_action(*pair)["invariant"] - got) <= 1e-12, (acting, module, seed)
        values[(acting, module)] = got
    # a module that fills its support (mod_all, and mod_alt at d=3, N=2) gives
    # exactly 0.0, an invariant action on any module rounding, others O(1)
    assert all(values[(a, m)] == 0.0 for a in ("alg_alt", "alg_word") for m in ("mod_alt", "mod_all"))
    assert values[("scalars", "mod_rand")] <= 1e-14
    assert values[("alg_alt", "mod_rand")] > 0.01 and values[("alg_word", "mod_rand")] > 0.01


def test_a_full_algebra_acts_on_a_full_module_without_products(monkeypatch):
    space = q_fock_space(2, 3)
    alg_word, mod_all = span_build(space, "alg_word"), span_build(space, "mod_all")
    short = OperatorSpan(coords=mod_all.coords[1:], ranks=mod_all.ranks, degree=1, which="short")
    half = OperatorSpan(coords=mod_all.coords[::2], ranks=mod_all.ranks, degree=1, which="half")
    with monkeypatch.context() as patch:
        patch.setattr(opalg, "_times", refuse_products)
        assert check_left_action(alg_word, mod_all) == {"invariant": 0.0, "action_rank": 42, "nondegenerate": True}
        with pytest.raises(AssertionError, match="product"):
            check_left_action(alg_word, short)
    # a module that does not fill its support still takes the product path
    for module in (short, half):
        got = check_left_action(alg_word, module)
        worst, action_rank = loop_left_action(alg_word, module)
        assert abs(got["invariant"] - worst) <= 1e-12, module.which
        assert got["action_rank"] == action_rank and got["nondegenerate"] == (action_rank == module.rank)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_operator_span_refuses_a_non_finite_entry(bad):
    # NaN passed the orthonormality check: a comparison with NaN is false
    with pytest.raises(ValueError, match="span's coordinates has a non-finite entry"):
        OperatorSpan(coords=np.array([[bad]]), ranks=(1,), degree=0)
    with pytest.raises(ValueError, match="span's coordinates has a non-finite entry"):
        OperatorSpan(coords=np.full((1, 2), bad), ranks=(1, 2), degree=1)


def test_operator_span_holds_its_coordinates_read_only():
    coords = np.array([[1.0]])
    span = OperatorSpan(coords=coords, ranks=(1,), degree=0)
    coords[0, 0] = 5.0  # the caller's array is copied, not held
    assert span.coords.tolist() == [[1.0]] and not span.coords.flags.writeable
    built = span_build(PAIR, "alg_alt")
    assert not built.coords.flags.writeable
    # a read-only array is held as given
    assert OperatorSpan(coords=built.coords, ranks=built.ranks, degree=built.degree).coords is built.coords
    # a read-only view is copied: its writable base stays in the caller's reach
    base = np.array([[1.0]])
    view = base.view()
    view.setflags(write=False)
    span = OperatorSpan(coords=view, ranks=(1,), degree=0)
    base[0, 0] = np.nan
    assert span.coords.tolist() == [[1.0]]


WORD_KINDS = tuple(which for which in SPAN_KINDS if not which.endswith("_all"))


@pytest.mark.parametrize("name", [*REACH_SPACES, "q33@0.5"])
def test_skipping_covered_signatures_keeps_every_span_bit_for_bit(name):
    space = q_fock_space(3, 3) if name == "q33@0.5" else REACH_SPACES[name]()
    want = every_signature_spans(space, WORD_KINDS)
    for which in WORD_KINDS:
        got = span_build(space, which)
        assert got.coords.dtype == want[which].coords.dtype and np.array_equal(got.coords, want[which].coords), which
        assert (got.rank_history, got.stabilized) == (want[which].rank_history, want[which].stabilized), which


def test_a_covered_signature_takes_no_suffix_span(monkeypatch):
    # all eight kinds on q-Fock (2, 3) and (3, 2): putting every signature to
    # the fill test and, where it does not certify, taking its suffix span and
    # extend takes 113 suffix SVDs and 88 extends, the eight fills taking none;
    # skipping signatures whose reach is covered leaves 36 and 43, and every
    # fill and every extend that adds a direction still runs
    before, after = np.zeros(3, dtype=int), np.zeros(3, dtype=int)
    for d, N in ((2, 3), (3, 2)):
        _, *work = span_work(monkeypatch, every_signature_spans, q_fock_space(d, N), WORD_KINDS)
        before += work
        space = q_fock_space(d, N)
        for which in SPAN_KINDS:
            _, *work = span_work(monkeypatch, span_build, space, which)
            after += work
    assert before.tolist() == [113, 88, 8] and after.tolist() == [36, 43, 8]


# the spaces on which span_build must agree with the frozen reference steps
REFERENCE_SPACES = {
    **{f"q{d}{N}@0.5": (lambda d=d, N=N: q_fock_space(d, N)) for d, N in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3))},
    "q33@-1": lambda: q_fock_space(3, 3, -1),
    "q23@1": lambda: q_fock_space(2, 3, 1),
    "monotone33": lambda: build(discrete_monotone(TruncatedFockSpace(d=3, N=3))),
    "monotone23": lambda: build(discrete_monotone(TruncatedFockSpace(d=2, N=3))),
    "identity23": lambda: build(identity_family(TruncatedFockSpace(d=2, N=3))),
    "pair3": lambda: PAIR,
    "poi23": lambda: build(random_poi_family(2, 3, seed=1)),
    "poi23@1200": lambda: build(random_poi_family(2, 3, seed=1, ranks=(1, 2, 0, 0))),
}


@pytest.mark.parametrize("name", REFERENCE_SPACES)
def test_spans_match_the_frozen_reference(name):
    space = REFERENCE_SPACES[name]()
    want = reference_spans(space, SPAN_KINDS)
    for which in SPAN_KINDS:
        got, ref = span_build(space, which), want[which]
        assert (got.rank, got.rank_history, got.stabilized) == (ref.rank, ref.rank_history, ref.stabilized), which
        projector = got.coords.conj().T @ got.coords
        assert np.max(np.abs(projector - ref.coords.conj().T @ ref.coords), initial=0.0) <= 1e-10, which


def test_the_filling_signature_takes_no_suffix_span_and_no_extend(monkeypatch):
    # at q-Fock (3, 2) alg_word has rank 18 after length 2 and 19 after the
    # first signatures of length 4; the candidates of (1, -1, 1, -1) fill the
    # other 72 of the 91 coordinates of degree 0: one Cholesky certifies it,
    # with no complement formed, and no suffix SVD, extend or QR follows
    space, events = q_fock_space(3, 2), []
    svd, qr, extend, fill = np.linalg.svd, np.linalg.qr, opalg._extend_onb, opalg._fill
    cholesky = np.linalg.cholesky

    def logged(step, kind, what):
        def run(*args, **kwargs):
            out = step(*args, **kwargs)
            events.append((kind, what(out, kwargs)))
            return out
        return run

    monkeypatch.setattr(np.linalg, "svd", logged(svd, "svd", lambda out, kw: kw.get("compute_uv", True)))
    monkeypatch.setattr(np.linalg, "qr", logged(qr, "qr", lambda out, kw: kw.get("mode", "reduced")))
    monkeypatch.setattr(opalg, "_extend_onb", logged(extend, "extend", lambda out, kw: len(out)))
    monkeypatch.setattr(opalg, "_fill", logged(fill, "fill", lambda out, kw: bool(out[1])))
    monkeypatch.setattr(np.linalg, "cholesky", logged(cholesky, "cholesky", lambda out, kw: len(out)))
    span = span_build(space, "alg_word")
    assert span.rank_history == (0, 18, 18, 91, 91, 91) and span.full
    assert (1, -1, 1, -1) not in space._words and (-1, 1, -1) in space._words
    last = events.index(("fill", True))
    assert events[last - 1:] == [("cholesky", 91), ("fill", True)]
    assert ("qr", "complete") not in events
    assert max(rank for kind, rank in events if kind == "extend") == 19


def orthonormal_rows(s, seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((s, s)))[0].T


@pytest.mark.parametrize("last", [0.0, 1.5, 3.0])
def test_a_block_that_does_not_certify_a_fill_falls_back(last):
    # a basis of 6 of 12 coordinates and 8 candidates in its complement whose
    # sixth singular value there is last * SPAN_TOL |cands|_F: at 0 they do not
    # fill; at 1.5, in the gray zone, the test declines and the extend fills;
    # at 3 the test certifies.  Either way the result is the reference's.
    Q, rng = orthonormal_rows(12, 0), np.random.default_rng(1)
    onb, sv = Q[:6], np.array([1.0, 0.9, 0.8, 0.7, 0.6, 0.0])
    sv[5] = last * SPAN_TOL * np.linalg.norm(sv)
    U, V = np.linalg.qr(rng.standard_normal((8, 6)))[0], orthonormal_rows(6, 2)
    cands = (U * sv) @ V @ Q[6:]
    comp, fills = opalg._fill(onb, cands, slice(0, 12), onb[:0])
    assert fills == (last == 3.0)
    got = np.concatenate([onb, comp]) if fills else opalg._extend_onb(onb, reference_suffix_rows(cands))
    want = reference_extend_onb(onb, reference_suffix_rows(cands))
    assert len(got) == len(want) == (11 if last == 0.0 else 12)
    assert np.max(np.abs(got @ got.T - np.eye(len(got)))) <= 1e-12
    assert np.max(np.abs(got.T @ got - want.T @ want)) <= 1e-10


@pytest.mark.parametrize("tilt, qrs", [(1e-8, 1), (0.5, 0)])
def test_an_extend_below_the_qr_bound_takes_the_qr(monkeypatch, tilt, qrs):
    # the block's second row lies off span(onb) by tilt, its kept singular
    # value: eps |block| / tilt is far above _NO_QR_TOL at 1e-8 and far below
    # it at 0.5.  An empty basis takes a block as it is.
    Q = orthonormal_rows(12, 3)
    onb, block = Q[:6], np.stack([Q[6], np.sqrt(1 - tilt**2) * Q[0] + tilt * Q[7]])
    assert opalg._extend_onb(onb[:0], block) is block
    calls, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: calls.append(1) or qr(*args, **kwargs))
    got = opalg._extend_onb(onb, block)
    assert len(calls) == qrs and len(got) == 8
    assert np.max(np.abs(got @ got.T - np.eye(8))) <= 1e-12
    want = reference_extend_onb(onb, block)
    assert np.max(np.abs(got.T @ got - want.T @ want)) <= 1e-10


def test_a_fill_the_cholesky_declines_falls_back_to_the_svd(monkeypatch):
    # at q-Fock (2, 5), q = 0.9, the four fills have sigma_c / |A|_F of 3.6e-7
    # (mod_alt), 9.7e-5 (mod_nc, mod_word) and 2.6e-5 (alg_word), all below
    # sqrt(_FILL_TAU): each Cholesky declines, the complement QR and SVD
    # certify the fill, and every span is the one recorded before the Cholesky
    recorded = {
        "mod_alt": (2, 2, 10, 10, 42, 42, 170, 170, 682, 682, 682, 682),
        "alg_alt": (0, 4, 4, 20, 20, 84, 84, 340, 340, 341, 341, 341),
        "mod_nc": (2, 2, 18, 18, 114, 114, 340, 340, 682, 682, 682, 682),
        "alg_nc": (0, 4, 4, 36, 36, 169, 169, 341, 341, 341, 341, 341),
        "mod_word": (2, 2, 18, 18, 114, 114, 342, 342, 682, 682, 682, 682),
        "alg_word": (0, 8, 8, 56, 56, 253, 253, 685, 685, 1365, 1365, 1365),
    }
    space, verdicts, fills = q_fock_space(2, 5, 0.9), [], []
    cholesky, fill = opalg._fills_by_cholesky, opalg._fill
    monkeypatch.setattr(opalg, "_fills_by_cholesky", lambda *args: verdicts.append(cholesky(*args)) or verdicts[-1])
    monkeypatch.setattr(opalg, "_fill", lambda *args: fills.append(fill(*args)) or fills[-1])
    for which, history in recorded.items():
        span = span_build(space, which)
        assert (span.rank, span.rank_history, span.stabilized) == (history[-1], history, True), which
    assert verdicts == [False] * 4 and sum(bool(certified) for _, certified in fills) == 4


@pytest.mark.parametrize("ratio", [0.999, 1.0])
def test_a_fill_just_under_the_weyl_bound_is_never_certified(ratio):
    # candidates whose sigma_c on the complement sits at or just under
    # 2 SPAN_TOL |A|_F: the Cholesky declines (sigma_c^2 is far below its
    # shift) and so does the SVD, on a full support and on a reach
    Q, rng = orthonormal_rows(40, 4), np.random.default_rng(5)
    onb = Q[:24]
    sv = np.append(np.linspace(1.0, 0.1, 15), 0.0)
    sv[-1] = ratio * 2 * SPAN_TOL * np.linalg.norm(sv)
    U, V = np.linalg.qr(rng.standard_normal((20, 16)))[0], orthonormal_rows(16, 6)
    cands = (U * sv) @ V @ Q[24:]
    assert not opalg._fills_by_cholesky(onb, cands, slice(0, 40))
    assert not opalg._fill(onb, cands, slice(0, 40), onb[:0])[1]
    # the same on a reach: the basis holds the first 10 coordinates
    onb = np.concatenate([np.eye(40)[:10], np.concatenate([np.zeros((14, 10)), orthonormal_rows(30, 7)[:14]], 1)])
    comp = np.linalg.qr(onb.T, mode="complete")[0][:, 24:].T
    cands = ((U * sv) @ V @ comp)[:, 10:]
    assert np.max(np.abs(comp[:, :10])) <= 1e-15
    assert not opalg._fills_by_cholesky(onb, cands, slice(10, 40))
    assert not opalg._fill(onb, cands, slice(10, 40), onb[:0])[1]
    # lifted well above the bound, both certify
    cands = ((U * np.linspace(1.0, 0.1, 16)) @ V @ comp)[:, 10:]  # sigma_c / |A|_F = 0.04
    assert opalg._fills_by_cholesky(onb, cands, slice(10, 40)) and opalg._fill(onb, cands, slice(10, 40), onb[:0])[1]


# spaces on which theory forces the word spans: the creators of a built space
# span every level n >= 1, so sum_i a*(e_i) a(e_i) has kernel exactly C Omega,
# the vacuum projection is a polynomial in it, and the words w P_Omega w'*
# give every matrix unit: the word *-algebra is all of B(F_N), and the words
# of a degree span its whole support
THEOREM_SPACES = {
    "q23@0.5": lambda: q_fock_space(2, 3),
    "q33@-1": lambda: q_fock_space(3, 3, -1),
    "q24@1": lambda: q_fock_space(2, 4, 1),
    "monotone33": lambda: build(discrete_monotone(TruncatedFockSpace(d=3, N=3))),
    "poi23": lambda: build(random_poi_family(2, 3, seed=1)),
    "pair3": lambda: PAIR,
    "symmetric24": lambda: pi_space(symmetric_projections(2, 4))[0],
}


@pytest.mark.parametrize("name", THEOREM_SPACES)
def test_the_word_spans_of_a_built_space_are_full(name):
    # a failure here is a span_build bug, not a property of the space
    space = THEOREM_SPACES[name]()
    for which in ("alg_word", "mod_word"):
        span = span_build(space, which)
        assert span.rank == opalg._support_size(space.ranks, span.degree) and span.stabilized, which
        assert span.full and span._coords is None, which  # stored as the flag, no coordinate matrix


def test_a_full_span_is_a_flag():
    space = q_fock_space(2, 3)
    for which, degree, size in (("mod_all", 1, 42), ("alg_all", 0, 85)):
        span = span_build(space, which)
        assert (span.full, span.rank, span.degree, span._coords) == (True, size, degree, None)
        # coords is the identity, formed on each read and read-only
        assert np.array_equal(span.coords, np.eye(size)) and not span.coords.flags.writeable
        assert span.coords is not span.coords and span.coords.dtype == np.float64
    # full coordinates given are checked, then dropped; partial ones are kept
    rows = orthonormal_rows(10, 8)
    full = OperatorSpan(coords=rows, ranks=(1, 2, 4), degree=1)
    assert full.full and full._coords is None and full.rank == 10
    assert not OperatorSpan(coords=rows[:9], ranks=(1, 2, 4), degree=1).full
    with pytest.raises(ValueError, match="not Frobenius-orthonormal"):
        OperatorSpan(coords=2 * rows, ranks=(1, 2, 4), degree=1)
    # with no coordinates the span is full, of the dtype given
    whole = OperatorSpan(ranks=(1, 2, 4), degree=0, dtype=complex)
    assert whole.full and whole.rank == 21 and whole.coords.dtype == np.complex128


def test_a_cross_degree_inclusion_is_exactly_one_without_arithmetic(monkeypatch):
    space = q_fock_space(2, 3)
    spans = {which: span_build(space, which) for which in SPAN_KINDS}
    want = {(a, b): spans[b].residuals(spans[a].coords, degree=spans[a].degree).max()
            for a in spans for b in spans if spans[a].degree != spans[b].degree}
    assert set(want.values()) == {1.0}
    monkeypatch.setattr(OperatorSpan, "residuals", lambda *args, **kwargs: pytest.fail("residuals was called"))
    monkeypatch.setattr(OperatorSpan, "coords", property(lambda span: pytest.fail("coords were read")))
    for (a, b), value in want.items():
        got = spans[b].contains_span(spans[a])
        assert type(got) is float and got == value == 1.0, (a, b)
    # an empty span is contained in any
    empty = OperatorSpan(coords=np.zeros((0, 42)), ranks=space.ranks, degree=1)
    assert spans["alg_alt"].contains_span(empty) == 0.0


def test_an_ambient_span_forms_no_matrix():
    # eye(820) alone would take 5.4 MB
    space = q_fock_space(3, 3)
    span, peak = traced_peak(span_build, space, "alg_all")
    assert span.rank == 820 and span.full
    assert peak <= 2**20


def full_module_action_rank(acting, module):
    """stacked_action_rank for a module that fills its support, formed one acting
    operator at a time and kept on that support: a product of a degree 0
    operator and the module has the module's degree, so the entries dropped are
    exact zeros and the singular values stay."""
    dense = dense_basis(module)
    support = np.any(dense != 0, axis=0)
    prods = np.concatenate([(a @ dense)[:, support] for a in dense_basis(acting)])
    svals = np.linalg.svd(prods, compute_uv=False)
    return int((svals > SPAN_TOL * svals[0]).sum()) if svals.size and svals[0] > 0 else 0


@pytest.mark.parametrize("name", REACH_SPACES)
def test_a_degree_zero_span_acts_on_a_full_module_without_products(monkeypatch, name):
    space = REACH_SPACES[name]()
    spans = {which: span_build(space, which) for which in SPAN_KINDS}
    pairs = [(a, m) for a in SPAN_KINDS for m in SPAN_KINDS
             if spans[a].degree == 0 and spans[m].degree == 1 and spans[m].rank == spans[m].coords.shape[1]]
    with monkeypatch.context() as patch:
        patch.setattr(opalg, "_times", refuse_products)
        got = {(a, m): check_left_action(spans[a], spans[m]) for a, m in pairs}
    for (a, m), res in got.items():
        acting, module = spans[a], spans[m]
        # a full acting span holds the identity, so its products span the module
        want = module.rank if acting.rank == acting.coords.shape[1] else full_module_action_rank(acting, module)
        assert res == {"invariant": 0.0, "action_rank": want, "nondegenerate": want == module.rank}, (a, m)
    assert any(spans[a].rank < spans[a].coords.shape[1] for a, _ in pairs)


def test_the_action_rank_cut_is_relative_to_the_levels_the_module_uses():
    # the acting operator is 1 on the vacuum and 1e-11 on level 1: a module of
    # degree +1 meets level 1 and above only, so every product is 1e-11 times
    # a unit operator and none falls under the relative cut
    space = q_fock_space(2, 3)
    module = span_build(space, "mod_all")
    coords = np.concatenate([np.eye(r).ravel() * scale for r, scale in zip(space.ranks, (1.0, 1e-11, 0.0, 0.0))])
    acting = OperatorSpan(coords=(coords / np.linalg.norm(coords))[None], ranks=space.ranks, which="vacuum")
    res = check_left_action(acting, module)
    assert res["action_rank"] == full_module_action_rank(acting, module) == space.ranks[0] * space.ranks[1]
    assert res["invariant"] == 0.0 and not res["nondegenerate"]


def test_the_action_rank_counts_the_ranges_of_the_acting_blocks():
    # E_00 and E_01 on level 1 map everything to e_0: their row [E_00 E_01] has
    # rank 1, while the stack [E_00; E_01] has rank 2 (no common kernel), so
    # the products E X over the module's block (1, 0) span r_0 = 1 operator
    space = q_fock_space(2, 3)
    module = span_build(space, "mod_all")
    level1 = opalg._blocks(space.ranks, 0)[1][3]
    coords = np.zeros((2, opalg._support_size(space.ranks, 0)))
    coords[0, level1.start], coords[1, level1.start + 1] = 1.0, 1.0
    acting = OperatorSpan(coords=coords, ranks=space.ranks, which="row")
    res = check_left_action(acting, module)
    assert res == {"invariant": 0.0, "action_rank": 1, "nondegenerate": False}
    assert full_module_action_rank(acting, module) == 1
