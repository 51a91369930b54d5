"""Real families stay real: float64 from the named constructors to the word spans.

Each real family is checked against its complex twin, the complex128 copy of
the same levels (or range bases), which the program runs on the complex
path.  Integers (ranks, kernel dimensions, verdicts, span ranks) must be
equal; floats agree within 1e-12 relative to max(1, |value|).  Quotient
coordinates are sector-major, so the twins' sectors are equal array for
array, and so are the numbers of kept eigenvectors in each sector.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fockbench import opalg
from fockbench.boundedness import creator_map_constant, level_constants, pair_collapse_family
from fockbench.deformations import DeformationFamily, discrete_monotone, q_fock_recursive, validate
from fockbench.interacting import build, random_poi_family, squeezing_of, verify_space
from fockbench.subproduct import (
    ProjectionFamily,
    certify,
    pi_space,
    random_adjacent_family,
    symmetric_projections,
    two_sided_test,
)
from fockbench.tensor_core import TruncatedFockSpace

TOL = 1e-12
REAL_FAMILIES = {
    "q=0.5 (2, 6)": lambda: q_fock_recursive(TruncatedFockSpace(2, 6), 0.5),
    "q=-0.5 (3, 4)": lambda: q_fock_recursive(TruncatedFockSpace(3, 4), -0.5),
    "q=-1 (3, 3)": lambda: q_fock_recursive(TruncatedFockSpace(3, 3), -1.0),
    "monotone (4, 4)": lambda: discrete_monotone(TruncatedFockSpace(4, 4)),
    "pair collapse 3": lambda: pair_collapse_family(3),
}


def close(got, want):
    assert_allclose(np.asarray(got, dtype=float), np.asarray(want, dtype=float), rtol=TOL, atol=TOL)


def complex_twin(family):
    return DeformationFamily(family.space, tuple(L.astype(complex) for L in family.L))


def sector_counts(space):
    return [None if s is None else np.bincount(s).tolist() for s in space.sectors]


def unit_probe(d):
    x = np.arange(1, d + 1) * (1 + 0.5j)
    return x / np.linalg.norm(x)


def compare_spaces(real, twin):
    assert (real.dtype, twin.dtype) == (float, complex)
    assert real.ranks == twin.ranks and sector_counts(real) == sector_counts(twin)
    close(real.kappa_norms, twin.kappa_norms)
    x = unit_probe(real.space.d)
    close(level_constants(real, x, False).creator_norms, level_constants(twin, x, False).creator_norms)
    for n in range(real.space.N):
        close(creator_map_constant(real, n), creator_map_constant(twin, n))
    got, want = two_sided_test(real), two_sided_test(twin)
    assert got.keys() == want.keys() and got["exists"] == want["exists"]
    for key in set(got) - {"exists"}:
        close(got[key], want[key])
    got, want = verify_space(real), verify_space(twin)
    close([got[k] for k in sorted(got)], [want[k] for k in sorted(want)])


@pytest.mark.parametrize("d, N", [(2, 6), (2, 8), (3, 4), (3, 5)])
def test_the_quotient_order_is_the_same_in_real_and_complex_arithmetic(d, N):
    family = q_fock_recursive(TruncatedFockSpace(d, N), 0.5)
    real, twin = build(family), build(complex_twin(family))
    assert (real.dtype, twin.dtype) == (float, complex)
    for got, want in zip(real.sectors, twin.sectors, strict=True):
        assert np.array_equal(got, want)
    assert sector_counts(real) == sector_counts(twin)


@pytest.mark.parametrize("name", list(REAL_FAMILIES))
def test_a_real_family_equals_its_complex_twin(name):
    family = REAL_FAMILIES[name]()
    twin = complex_twin(family)
    assert family.dtype is float and all(L.dtype == np.float64 for L in family.L)
    got, want = validate(family).to_dict(), validate(twin).to_dict()
    assert got["kernel_dims"] == want["kernel_dims"]
    assert [got[k] for k in ("psd_ok", "kernel_ok", "ok")] == [want[k] for k in ("psd_ok", "kernel_ok", "ok")]
    for key in ("min_eigs", "max_eigs", "kernel_violations"):
        close(got[key], want[key])
    compare_spaces(build(family), build(twin))


def test_the_symmetric_family_equals_its_complex_twin():
    family = symmetric_projections(3, 4)
    ranges = [F.T.astype(complex) for F in family.factors]
    twin = ProjectionFamily.from_ranges(family.space, ranges)
    assert family.dtype is float and twin.dtype is complex
    assert family.ranks == twin.ranks
    got, want = certify(family).to_dict(), certify(twin).to_dict()
    assert [got[k] for k in ("ok", "theorem_confirmed")] == [want[k] for k in ("ok", "theorem_confirmed")]
    for key in ("squeezing_side", "kernel_side", "coisometry", "associativity"):
        close(got[key], want[key])
    close(list(got["pairwise"].values()), list(want["pairwise"].values()))
    (real, _, dev_real), (cplx, _, dev_cplx) = pi_space(family), pi_space(twin)
    close(dev_real, dev_cplx)
    compare_spaces(real, cplx)


def test_word_spans_of_a_real_space_equal_those_of_its_complex_twin():
    family = q_fock_recursive(TruncatedFockSpace(2, 3), 0.5)
    real, twin = build(family), build(complex_twin(family))
    for which in opalg.SPAN_KINDS:
        got, want = opalg.span_build(real, which), opalg.span_build(twin, which)
        assert got.coords.dtype == np.float64 and want.coords.dtype == np.complex128
        assert (got.rank, got.rank_history, got.stabilized) == (want.rank, want.rank_history, want.stabilized)


def test_a_q_fock_space_is_real_and_the_random_families_complex():
    space = build(q_fock_recursive(TruncatedFockSpace(3, 3), 0.5))
    assert all(xi.dtype == np.float64 for xi in space.xi)
    assert all(space.stack(n).dtype == np.float64 for n in range(3))
    assert space.creator_x(1, [0.6, 0.8, 0.0]).dtype == np.float64
    assert space.creator_x(1, [0.6, 0.8j, 0.0]).dtype == np.complex128
    assert opalg.span_build(space, "alg_alt").coords.dtype == np.float64
    poi = random_poi_family(2, 4, seed=3)
    adjacent = random_adjacent_family(2, 4, seed=3)
    for family in (poi, adjacent):
        assert family.dtype is complex and all(F.dtype == np.complex128 for F in family.factors)
        built = build(family)
        assert all(built.stack(n).dtype == np.complex128 for n in range(4))


def test_a_real_space_upcasts_nothing_it_holds():
    # a stray dtype=complex would copy the embeddings and double every later product
    space = build(q_fock_recursive(TruncatedFockSpace(2, 4), 0.5))
    for n, (X, C, Y) in enumerate(squeezing_of(space).triples, start=1):
        assert np.shares_memory(X, space.xi[n]) and np.shares_memory(Y, space.xi[n - 1])
        assert C.dtype == np.float64
    for which in ("mod_alt", "alg_word"):
        opalg.span_build(space, which)
    assert len(space._words) > 3
    assert all(entry.dtype == np.float64 for entry in space._words.values())
