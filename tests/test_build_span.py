"""``build``'s spanning check: the bound from the level spectra decides each
transition it can, the SVD of the creator stacks the rest, and the verdicts,
refusals, creator blocks and kappa_norms are those of a build that takes the
SVD on every transition (``oracles.reference_build``)."""

import numpy as np
import pytest

from fockbench import _linalg, cli, interacting
from fockbench.boundedness import pair_collapse_family
from fockbench.deformations import (
    DeformationFamily,
    discrete_monotone,
    identity_family,
    q_fock_recursive,
    validate,
)
from fockbench.interacting import build, random_poi_family
from fockbench.subproduct import symmetric_projections
from fockbench.tensor_core import TruncatedFockSpace
from oracles import bits, reference_build


def _no_span():
    # level 1 is 0, level 2 keeps 1e-18 on the word 00: the kernel residual
    # is 1e-9 against max(1, ||Lambda_2||) = 1, so validate passes it, but no
    # creator reaches level 2
    L2 = np.zeros((4, 4))
    L2[0, 0] = 1e-18
    return DeformationFamily(TruncatedFockSpace(d=2, N=2), [np.ones((1, 1)), np.zeros((2, 2)), L2])


def _fallback():
    # every creator is an isometry, but sqrt(mu_min(2)) / sqrt(mu_max(1)) is
    # 2 rank_tol times sqrt(mu_max(2) / mu_min(1)) exactly: the bound declines
    return DeformationFamily(TruncatedFockSpace(d=2, N=2),
                             [np.ones((1, 1)), np.diag([1.0, 2e-10]), np.diag([1.0, 2e-10, 1.0, 2e-10])])


SPANNING_FAMILIES = {
    "q=0.5": lambda: q_fock_recursive(TruncatedFockSpace(d=2, N=5), 0.5),
    "q=-0.5": lambda: q_fock_recursive(TruncatedFockSpace(d=3, N=3), -0.5),
    # the tightest bound: 2.2e-10 against 2e-10 at the top transition
    "q=0.95": lambda: q_fock_recursive(TruncatedFockSpace(d=2, N=8), 0.95),
    "q=1": lambda: q_fock_recursive(TruncatedFockSpace(d=3, N=4), 1.0),
    "q=-1": lambda: q_fock_recursive(TruncatedFockSpace(d=3, N=4), -1.0),
    "monotone": lambda: discrete_monotone(TruncatedFockSpace(d=3, N=4)),
    "symmetric": lambda: symmetric_projections(3, 4),
    "identity": lambda: identity_family(TruncatedFockSpace(d=2, N=3)),
    "random_poi": lambda: random_poi_family(2, 4, seed=1),
    "pair_collapse": lambda: pair_collapse_family(3),
}
ORACLE_FAMILIES = {**SPANNING_FAMILIES, "no_span": _no_span, "fallback": _fallback}


def _built(family):
    space = build(family)
    return space.ranks, space.blocks, space.kappa_norms


def _outcome(make, family):
    """(ranks, blocks as bytes, kappa_norms) of the space made, or the refusal."""
    try:
        ranks, blocks, kappa_norms = make(family)
    except ValueError as exc:
        return str(exc)
    return ranks, bits(blocks), kappa_norms


@pytest.mark.parametrize("name", list(ORACLE_FAMILIES))
def test_build_agrees_with_the_svd_on_every_transition(name):
    assert _outcome(_built, ORACLE_FAMILIES[name]()) == _outcome(reference_build, ORACLE_FAMILIES[name]())


@pytest.mark.parametrize("name", list(SPANNING_FAMILIES))
def test_where_the_bound_holds_build_decomposes_only_the_level_spectra(name, decompositions, monkeypatch):
    formed = []
    stacks = interacting.creator_stacks
    monkeypatch.setattr(interacting, "creator_stacks", lambda *args: formed.append(args) or stacks(*args))
    family, twin = SPANNING_FAMILIES[name](), SPANNING_FAMILIES[name]()
    decompositions.clear()
    space = build(family)
    during_build = list(decompositions)
    decompositions.clear()
    for n in twin.space.levels():
        twin.parts(n)
    assert during_build == decompositions and not formed
    space.blocks
    assert len(formed) == space.space.N  # formed when read


def test_creators_that_fail_to_span_are_refused(tmp_path, capsys):
    family = _no_span()
    report = validate(family)
    assert report.ok and report.kernel_violations[0] == 0.0
    assert report.kernel_violations[1] == pytest.approx(1e-9, rel=1e-12)
    parts = [family.parts(n).cut(_linalg.RANK_TOL) for n in family.space.levels()]
    assert [p.rank for p in parts] == [1, 0, 1]
    assert not interacting._spans(parts[1], parts[2], report.kernel_violations[1], 2, 4, _linalg.RANK_TOL)
    with pytest.raises(ValueError, match="^creators fail to span level 2$"):
        build(family)
    fam, space = tmp_path / "no-span.json", tmp_path / "space.json"
    cli.write_text_atomic(fam, cli.dump_json(cli.family_to_json(family)))
    capsys.readouterr()
    assert cli.main(["build", str(fam), "--out", str(space)]) == 1
    assert "creators fail to span level 2" in capsys.readouterr().err
    assert not space.exists()


def test_a_transition_the_bound_declines_takes_the_svd(decompositions):
    family = _fallback()
    report = validate(family)
    parts = [family.parts(n).cut(_linalg.RANK_TOL) for n in family.space.levels()]
    spans = [interacting._spans(parts[n], parts[n + 1], report.kernel_violations[n], 2, 2 ** (n + 1),
                                _linalg.RANK_TOL) for n in range(2)]
    assert spans == [True, False]
    decompositions.clear()
    space = build(family)  # the level spectra are the family's, cached by validate
    during_build = list(decompositions)
    decompositions.clear()
    s = _linalg.singular_values(space.blocks[1])
    assert during_build == decompositions and all(name == "svd" for name, _ in during_build)
    assert space.ranks == (1, 2, 4) and np.count_nonzero(_linalg.kept_mask(s)) == 4
