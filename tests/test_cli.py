import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fockbench import cli, deformations, interacting, subproduct
from fockbench.tensor_core import TruncatedFockSpace


def run(*argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "fockbench" in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    assert run() == 2


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    assert run("--help") == 0
    assert cli._parser() is cli._parser()

    def forbidden():
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli, "build_parser", forbidden)
    # a valid call after a usage error (exit 2) and after --help (exit 0) keeps its
    # exit code, its stdout and the bytes of its file; defaults do not leak between calls
    valid = ["subproduct", "build", "--builtin", "symmetric"]
    outputs = []
    for before, code in ((None, None), (["subproduct", "build", "--builtin", "nested-point", "-d", "4", "-N", "4",
                                         "--rank-tol", "2"], 2), (["subproduct", "--help"], 0), (None, None)):
        if before is not None:
            assert run(*before) == code
        capsys.readouterr()
        path = tmp_path / f"{len(outputs)}.json"
        assert run(*valid) == 0
        assert run(*valid, "--out", str(path)) == 0
        outputs.append((capsys.readouterr(), path.read_bytes()))
    assert all(out == outputs[0] for out in outputs)
    (stdout, stderr), data = outputs[0]
    assert stdout.encode() == data and stderr == ""
    assert read_json(path)["d"] == 2 and read_json(path)["N"] == 3


def test_a_handler_wrapped_after_the_first_call_is_called(monkeypatch, capsys):
    assert run("onemode", "--moments", "1,0,1") == 0
    calls = []
    handler = cli._cmd_onemode
    monkeypatch.setattr(cli, "_cmd_onemode", lambda args: calls.append(args.moments) or handler(args))
    assert run("onemode", "--moments", "1,0,2") == 0
    assert calls == ["1,0,2"]


def test_deform_validate_build_verify_roundtrip(tmp_path):
    fam = tmp_path / "fam.json"
    space = tmp_path / "space.json"
    assert run("deform", "--kind", "q", "--q", "0.4", "-d", "2", "-N", "3", "--out", str(fam)) == 0
    assert run("validate", str(fam), "--report", str(tmp_path / "v.json")) == 0
    assert run("build", str(fam), "--out", str(space)) == 0
    report = tmp_path / "verify.json"
    assert run("verify", str(space), "--report", str(report)) == 0
    doc = read_json(report)
    assert doc["ok"]
    assert set(doc) == {"residuals", "tolerance", "ok"}
    assert set(doc["residuals"]) == {"gram", "isometry", "kernel"}
    assert max(doc["residuals"].values()) <= 1e-8


@pytest.mark.parametrize("q,tol", [(0.5, 0.0), (0.3, 1e-12)])
def test_deform_q_matches_naive_enumeration(tmp_path, q, tol):
    # the CLI uses the recursive construction; the naive permutation sum is the oracle
    fam = tmp_path / "fam.json"
    assert run("deform", "--kind", "q", "--q", str(q), "-d", "2", "-N", "5", "--out", str(fam)) == 0
    got = cli.family_from_json(read_json(fam))
    naive = deformations.q_fock(TruncatedFockSpace(d=2, N=5), q)
    for n in range(6):
        assert np.max(np.abs(got.level(n) - naive.level(n))) <= tol


@pytest.mark.parametrize("kind", ["identity", "monotone"])
def test_deform_kinds_build(tmp_path, kind):
    fam = tmp_path / "fam.json"
    assert run("deform", "--kind", kind, "-d", "2", "-N", "2", "--out", str(fam)) == 0
    assert run("build", str(fam), "--out", str(tmp_path / "s.json")) == 0


def test_build_is_byte_deterministic(tmp_path):
    fam = tmp_path / "fam.json"
    run("deform", "--kind", "q", "--q", "-0.7", "-d", "2", "-N", "3", "--out", str(fam))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("build", str(fam), "--out", str(a)) == 0
    assert run("build", str(fam), "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_validate_flags_indefinite_family(tmp_path):
    fam = deformations.identity_family(TruncatedFockSpace(2, 2))
    L = list(fam.L)
    bad = np.eye(4, dtype=complex)
    bad[3, 3] = -1.0
    L[2] = bad
    doc = cli.family_to_json(deformations.DeformationFamily(fam.space, tuple(L)))
    path = tmp_path / "indef.json"
    path.write_text(cli.dump_json(doc))
    report = tmp_path / "r.json"
    assert run("validate", str(path), "--report", str(report)) == 1
    assert read_json(report)["psd_ok"] is False
    assert run("build", str(path), "--out", str(tmp_path / "s.json")) == 1


def test_verify_rejects_tampered_space(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    space = tmp_path / "space.json"
    # an L-form space file, built from the library's identity family
    fam.write_text(cli.dump_json(cli.family_to_json(deformations.identity_family(TruncatedFockSpace(2, 2)))))
    assert run("build", str(fam), "--out", str(space)) == 0
    raised_rank = read_json(space)
    raised_rank["ranks"][2] += 1
    # L_1 = diag(1, 0) while L_2 = id: e_0 (x) e_1 must die in L_2 but does not
    broken_kernel = read_json(space)
    broken_kernel["L"]["1"]["re"][1][1] = 0.0
    # a recipe space file: q = 0.5 builds ranks (1, 2, 4), q = -1 rebuilds (1, 2, 1)
    assert run("deform", "--kind", "q", "--q", "0.5", "-d", "2", "-N", "2", "--out", str(fam)) == 0
    assert run("build", str(fam), "--out", str(space)) == 0
    recipe_raised_rank = read_json(space)
    recipe_raised_rank["ranks"][2] += 1
    recipe_other_q = read_json(space)
    recipe_other_q["meta"]["q"] = -1.0
    for doc in (raised_rank, broken_kernel, recipe_raised_rank, recipe_other_q):
        space.write_text(cli.dump_json(doc))
        assert run("verify", str(space), "--report", str(tmp_path / "r.json")) == 1
        assert "fockbench:" in capsys.readouterr().err
        assert run("bounds", str(space), "--x", "1,0") == 2
        assert "fockbench:" in capsys.readouterr().err


NAMED_FAMILIES = {
    "q=0.5": (("--kind", "q", "--q", "0.5"), lambda sp: deformations.q_fock_recursive(sp, 0.5)),
    "q=-0.5": (("--kind", "q", "--q", "-0.5"), lambda sp: deformations.q_fock_recursive(sp, -0.5)),
    "q=1": (("--kind", "q", "--q", "1"), lambda sp: deformations.q_fock_recursive(sp, 1.0)),
    "q=-1": (("--kind", "q", "--q", "-1"), lambda sp: deformations.q_fock_recursive(sp, -1.0)),
    "monotone": (("--kind", "monotone"), deformations.discrete_monotone),
    "identity": (("--kind", "identity"), deformations.identity_family),
}


def _named_twins(tmp_path, name, d, N):
    """A family file from ``deform`` and its L-form twin, the dense levels of the same family."""
    kind, make = NAMED_FAMILIES[name]
    recipe, dense = tmp_path / "recipe.json", tmp_path / "dense.json"
    assert run("deform", *kind, "-d", str(d), "-N", str(N), "--out", str(recipe)) == 0
    dense.write_text(cli.dump_json(cli.family_to_json(make(TruncatedFockSpace(d, N)))))
    return recipe, dense


@pytest.mark.parametrize("name", list(NAMED_FAMILIES))
def test_a_recipe_rebuilds_the_levels_of_its_L_form_twin_bit_for_bit(tmp_path, name):
    for d, N in ((2, 5), (3, 3)):
        recipe, dense = _named_twins(tmp_path, name, d, N)
        doc = read_json(recipe)
        assert set(doc) == {"kind", "d", "N", "meta"} and len(recipe.read_bytes()) < 200
        got, want = cli.family_from_json(doc), cli.family_from_json(read_json(dense))
        for n in range(N + 1):
            assert got.level(n).tobytes() == want.level(n).tobytes()


@pytest.mark.parametrize("name, d, N", [("q=0.5", 2, 4), ("q=-0.5", 3, 3), ("q=-1", 3, 3), ("monotone", 3, 3),
                                        ("identity", 2, 3)])
def test_a_recipe_and_its_L_form_twin_give_byte_identical_reports(tmp_path, name, d, N):
    x = ",".join(["1", "0.5j", "-0.25"][:d])
    reports = []
    for family in _named_twins(tmp_path, name, d, N):
        space, out = tmp_path / f"{family.stem}-space.json", tmp_path / family.stem
        out.mkdir()
        assert run("validate", str(family), "--report", str(out / "validate.json")) == 0
        assert run("build", str(family), "--out", str(space)) == 0
        assert run("verify", str(space), "--report", str(out / "verify.json")) == 0
        assert run("bounds", str(space), "--x", x, "--report", str(out / "bounds.json")) == 0
        reports.append([(out / f).read_bytes() for f in ("validate.json", "verify.json", "bounds.json")])
        # build writes its space file in the form of its input
        assert set(read_json(space)) - set(read_json(family)) == {"rank_tol", "ranks"}
    assert reports[0] == reports[1]


def test_an_old_L_file_with_meta_builds_an_L_form_space_file(tmp_path):
    # the matrices govern and meta is provenance only: not checked, not copied
    doc = cli.family_to_json(deformations.q_fock_recursive(TruncatedFockSpace(2, 3), 0.5))
    fam, space = tmp_path / "fam.json", tmp_path / "space.json"
    for meta in ({"kind": "q", "q": 0.5}, {"kind": "q", "q": -1.0}, {"kind": "nope"}):
        fam.write_text(cli.dump_json({**doc, "meta": meta}))
        assert run("build", str(fam), "--out", str(space)) == 0
        out = read_json(space)
        assert set(out) == {"kind", "d", "N", "L", "rank_tol", "ranks"}
        assert out["L"] == doc["L"] and out["ranks"] == [1, 2, 4, 8]
        assert run("verify", str(space), "--report", str(tmp_path / "v.json")) == 0


HAND_EDITED_RECIPES = {
    "unknown kind": {"kind": "deformation_family", "d": 2, "N": 2, "meta": {"kind": "nope"}},
    "q missing": {"kind": "deformation_family", "d": 2, "N": 2, "meta": {"kind": "q"}},
    "q nan": {"kind": "deformation_family", "d": 2, "N": 2, "meta": {"kind": "q", "q": float("nan")}},
    "q above 1": {"kind": "deformation_family", "d": 2, "N": 2, "meta": {"kind": "q", "q": 1.5}},
    "q below -1": {"kind": "deformation_family", "d": 2, "N": 2, "meta": {"kind": "q", "q": -2}},
    "q a string": {"kind": "deformation_family", "d": 2, "N": 2, "meta": {"kind": "q", "q": "0.5"}},
    "q a boolean": {"kind": "deformation_family", "d": 2, "N": 2, "meta": {"kind": "q", "q": True}},
    "N missing": {"kind": "deformation_family", "d": 2, "meta": {"kind": "identity"}},
    "no L, factors or meta": {"kind": "deformation_family", "d": 2, "N": 2},
    "meta not an object": {"kind": "deformation_family", "d": 2, "N": 2, "meta": "identity"},
    "stray key": {"kind": "deformation_family", "d": 2, "N": 2, "meta": {"kind": "identity", "q": 0.5}},
    "too large": {"kind": "deformation_family", "d": 2, "N": 17, "meta": {"kind": "identity"}},
    "symmetric stray key": {"kind": "deformation_family", "d": 2, "N": 2, "meta": {"kind": "symmetric", "q": 0}},
    "nested-point d below N": {"kind": "deformation_family", "d": 2, "N": 3, "meta": {"kind": "nested-point"}},
}


@pytest.mark.parametrize("why", list(HAND_EDITED_RECIPES))
def test_a_hand_edited_recipe_is_a_usage_error(tmp_path, capsys, why):
    path = tmp_path / "bad.json"
    family = HAND_EDITED_RECIPES[why]
    space = {**family, "kind": "interacting_space", "rank_tol": 1e-10, "ranks": [1, 2, 4]}
    for doc, argv in ((family, ["validate"]), (family, ["build"]), (space, ["verify"]),
                      (space, ["bounds", "--x", "1,0"])):
        path.write_text(json.dumps(doc))
        assert run(argv[0], str(path), *argv[1:]) == 2, argv
        assert capsys.readouterr().err.startswith("fockbench: "), argv


def test_deform_refuses_a_dense_family_too_large_to_form(tmp_path, capsys):
    # d=2, N=13 (a 1 GiB top level) is within the cap: its recipe is written
    # at once, as nothing is formed; d=2, N=14 and d=2, N=17 are refused
    fam = tmp_path / "fam.json"
    assert run("deform", "--kind", "q", "--q", "0.5", "-d", "2", "-N", "13", "--out", str(fam)) == 0
    assert read_json(fam) == {"kind": "deformation_family", "d": 2, "N": 13, "meta": {"kind": "q", "q": 0.5}}
    for kind in ("q", "monotone", "identity"):
        for N in ("14", "17"):
            assert run("deform", "--kind", kind, "-d", "2", "-N", N, "--out", str(tmp_path / "big.json")) == 2
            assert capsys.readouterr().err.startswith("fockbench: the dense top level")
    assert not (tmp_path / "big.json").exists()


_sp = TruncatedFockSpace
ROUNDTRIP_SPACES = {
    "q_fock_recursive q=0.5": lambda: interacting.build(deformations.q_fock_recursive(_sp(2, 7), 0.5)),
    "naive q_fock q=0.3": lambda: interacting.build(deformations.q_fock(_sp(2, 5), 0.3)),
    "q_fock_recursive q=-0.7": lambda: interacting.build(deformations.q_fock_recursive(_sp(2, 3), -0.7)),
    "random_poi_family": lambda: interacting.build(interacting.random_poi_family(3, 5, seed=0)),
    "pi_space symmetric": lambda: subproduct.pi_space(subproduct.symmetric_projections(3, 5))[0],
    "pi_space random adjacent": lambda: subproduct.pi_space(subproduct.random_adjacent_family(2, 6))[0],
    "discrete_monotone": lambda: interacting.build(deformations.discrete_monotone(_sp(4, 4))),
}


@pytest.mark.parametrize("name", list(ROUNDTRIP_SPACES))
def test_space_file_rebuilds_the_written_space(name):
    space = ROUNDTRIP_SPACES[name]()
    doc = json.loads(cli.dump_json(cli.space_to_json(space)))
    # a factored family stores its quotient maps in place of L
    levels = "L" if space.family.factors is None else "factors"
    assert set(doc) == {"kind", "d", "N", levels, "rank_tol", "ranks"}
    back = cli.space_from_json(doc)
    assert back.ranks == space.ranks
    assert back.residuals == space.residuals
    for field in ("xi", "sqrt_mu", "lam"):
        for a, b in zip(getattr(back, field), getattr(space, field), strict=True):
            assert np.array_equal(a, b)
    for n in range(space.space.N):
        assert np.array_equal(back.stack(n), space.stack(n))


def test_subproduct_build_records_its_rank_tol(tmp_path):
    space = tmp_path / "space.json"
    assert run("subproduct", "build", "--builtin", "symmetric", "-d", "2", "-N", "3",
               "--rank-tol", "1e-6", "--out", str(space)) == 0
    assert read_json(space)["rank_tol"] == 1e-6


def test_family_file_with_a_non_default_eps_psd_is_refused(tmp_path, capsys):
    # older files recorded a family's own PSD slack; every family is now judged
    # with the one constant slack, so such a file is refused, not re-judged
    fam = deformations.identity_family(TruncatedFockSpace(2, 2))
    doc = json.loads(cli.dump_json(cli.space_to_json(interacting.build(fam))))
    assert "eps_psd" not in doc
    doc["eps_psd"] = deformations.EPS_PSD
    assert cli.space_from_json(doc).ranks == (1, 2, 4)
    doc["eps_psd"] = 1e-6
    with pytest.raises(ValueError, match="eps_psd"):
        cli.family_from_json(doc)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("validate", "build", "verify"):
        assert run(command, str(path)) == 2
        assert capsys.readouterr().err.startswith("fockbench: family file records eps_psd")


def test_rank_tol_only_where_it_is_read(tmp_path, capsys):
    fam, space = tmp_path / "fam.json", tmp_path / "space.json"
    assert run("deform", "--kind", "identity", "-d", "2", "-N", "2", "--out", str(fam)) == 0
    assert run("build", str(fam), "--rank-tol", "0.5", "--out", str(space)) == 0
    assert read_json(space)["rank_tol"] == 0.5
    assert run("validate", str(fam), "--rank-tol", "0.5", "--report", str(tmp_path / "v.json")) == 0
    for argv in (
        ["bounds", str(space), "--x", "1,0"],
        ["deform", "--kind", "identity", "-d", "2", "-N", "2"],
        ["verify", str(space)],
        ["onemode", "--moments", "1,0,1"],
        ["opalg", str(space)],
        ["demo", "grid"],
    ):
        assert run(*argv, "--rank-tol", "0.5") == 2, argv[0]
        assert "--rank-tol" in capsys.readouterr().err



def test_residual_tol_only_where_it_is_read(tmp_path, capsys):
    fam, space = tmp_path / "fam.json", tmp_path / "space.json"
    assert run("deform", "--kind", "identity", "-d", "2", "-N", "2", "--out", str(fam)) == 0
    assert run("build", str(fam), "--residual-tol", "1e-6", "--out", str(space)) == 0
    for argv in (
        ["verify", str(space), "--report", str(tmp_path / "v.json")],
        ["bounds", str(space), "--x", "1,0", "--report", str(tmp_path / "b.json")],
        ["opalg", str(space), "--which", "mod_alt", "--report", str(tmp_path / "o.json")],
    ):
        assert run(*argv, "--residual-tol", "1e-6") == 0, argv[0]
    for argv in (
        ["deform", "--kind", "identity", "-d", "2", "-N", "2"],
        ["validate", str(fam)],
        ["onemode", "--moments", "1,0,1"],
        ["demo", "grid"],
        ["subproduct", "certify", "--builtin", "symmetric", "-d", "2", "-N", "3"],
    ):
        assert run(*argv, "--residual-tol", "1e-6") == 2, argv[0]
        assert "--residual-tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, owner", [
    (["subproduct", "certify", "--builtin", "symmetric", "-d", "2", "-N", "3", "--out"], "--out", "subproduct build"),
    (["subproduct", "build", "--builtin", "symmetric", "-d", "2", "-N", "3", "--report"], "--report",
     "subproduct certify"),
    (["demo", "blocks", "--K", "5", "--csv"], "--csv", "demo grid"),
    (["demo", "rescaling", "--basis", "5", "--csv"], "--csv", "demo grid"),
])
def test_an_output_flag_the_command_does_not_write_is_a_usage_error(argv, flag, owner, tmp_path, capsys):
    # each used to exit 0, writing its output to stdout and no file
    out = tmp_path / "out"
    assert run(*argv, str(out)) == 2
    err = capsys.readouterr().err
    if argv[0] == "demo":  # each demo's parser holds only its own flags; the owner's holds this one
        assert f"fockbench: error: unrecognized arguments: {flag} {out}" in err
    else:
        assert err.startswith("fockbench: ") and flag in err and owner in err
    assert not out.exists()


def test_onemode_gaussian_recovers_linear_weights(tmp_path):
    report = tmp_path / "r.json"
    code = run("onemode", "--moments", "1,0,1,0,3,0,15,0,105", "--report", str(report))
    assert code == 0
    doc = read_json(report)
    assert_allclose(doc["k"], [1.0, 2.0, 3.0, 4.0], atol=1e-8)
    assert doc["round_trip_residual"] <= 1e-9


def test_onemode_rejects_non_moment_sequence():
    # Hankel [[1,0],[0,-1]]-style failure: m_2 < 0
    assert run("onemode", "--moments", "1,0,-1") == 1


def test_bounds_identity_constants_are_one(tmp_path):
    fam = tmp_path / "fam.json"
    space = tmp_path / "space.json"
    run("deform", "--kind", "identity", "-d", "2", "-N", "3", "--out", str(fam))
    run("build", str(fam), "--out", str(space))
    report = tmp_path / "b.json"
    assert run("bounds", str(space), "--x", "1,0", "--report", str(report)) == 0
    doc = read_json(report)
    assert_allclose(doc["creator_norms"], np.ones(3), atol=1e-10)
    assert "minimal_constants" not in doc  # the creator norms are the minimal constants


def test_bounds_probe_of_wrong_length_is_usage_error(tmp_path, capsys):
    fam, space = tmp_path / "fam.json", tmp_path / "space.json"
    run("deform", "--kind", "identity", "-d", "2", "-N", "2", "--out", str(fam))
    run("build", str(fam), "--out", str(space))
    assert run("bounds", str(space), "--x", "1,0,0") == 2
    assert "probe vector has length 3, want 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("build", "fam.json", "--rank-tol", "0"), "argument --rank-tol: must be positive"),
        (("verify", "space.json", "--residual-tol", "-1"), "argument --residual-tol: must be positive"),
        (("build", "fam.json", "--residual-tol", "nan"), "argument --residual-tol: must be positive"),
        (("build", "fam.json", "--rank-tol", "2"), "argument --rank-tol: must be positive and below 1"),
        (("validate", "fam.json", "--rank-tol", "1"), "argument --rank-tol: must be positive and below 1"),
        (("validate", "fam.json", "--rank-tol", "nan"), "argument --rank-tol: must be positive and below 1"),
        (("subproduct", "build", "--builtin", "symmetric", "--rank-tol", "2"),
         "argument --rank-tol: must be positive and below 1"),
        # every violation is at most 1, so a tolerance of 2 would pass a failing family
        (("subproduct", "certify", "--builtin", "nested-point", "-d", "3", "-N", "3", "--rank-tol", "2"),
         "argument --rank-tol: must be positive and below 1"),
    ],
)
def test_out_of_range_tolerances_are_usage_errors(argv, message, capsys):
    assert run(*argv) == 2
    assert message in capsys.readouterr().err



def test_bounds_reports_the_creator_map_bracket(tmp_path):
    fam, space, report = tmp_path / "fam.json", tmp_path / "space.json", tmp_path / "b.json"
    run("deform", "--kind", "identity", "-d", "2", "-N", "3", "--out", str(fam))
    run("build", str(fam), "--out", str(space))
    assert run("bounds", str(space), "--x", "1,0", "--report", str(report)) == 0
    doc = read_json(report)
    assert_allclose(doc["creator_map"], np.ones(3), rtol=1e-12)
    assert_allclose(doc["creator_map_upper"], np.ones(3), rtol=1e-12)
    assert doc["creator_map_exact"] is True


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, fockbench, fockbench.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_demo_rescaling_certificate(tmp_path):
    report = tmp_path / "r.json"
    assert run("demo", "rescaling", "--basis", "50", "--seed", "1", "--report", str(report)) == 0
    doc = read_json(report)
    assert set(doc) == {"basis", "certified_bound", "norm", "ok"}
    assert doc["certified_bound"] <= 1 / 3
    assert 0 < doc["norm"] <= doc["certified_bound"]
    assert doc["ok"]
    # the exact rescaled norm of the F that --seed 1 draws
    F = np.random.default_rng(1).uniform(0.0, 100.0, size=(50, 50))
    c = 2.0 ** np.arange(1, 51) * np.array([max(1.0, F[: n + 1, : n + 1].max()) for n in range(50)])
    oracle = np.linalg.norm(F / np.outer(c, c))
    assert abs(doc["norm"] - oracle) <= 1e-14 * oracle


@pytest.mark.parametrize(
    "argv", [("--basis", "300"), ("--basis", "1100"), ("--basis", "5", "--max-entry", "1e308")]
)
def test_demo_rescaling_does_not_overflow(argv, tmp_path):
    report = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("demo", "rescaling", *argv, "--report", str(report)) == 0
    doc = read_json(report)
    assert 0 < doc["norm"] <= doc["certified_bound"] and doc["ok"]


def test_demo_grid_csv_ratios(tmp_path):
    out = tmp_path / "grid.csv"
    assert run("demo", "grid", "--grids", "4,8,40", "--csv", str(out)) == 0
    with open(out) as fh:
        rows = list(csv_rows(fh))
    ms = [int(r["m"]) for r in rows]
    assert ms == [4, 8, 40]
    for r in rows:
        assert_allclose(float(r["ratio"]), np.sqrt(2 * int(r["m"])), rtol=1e-12)
        assert float(r["L_max_eig"]) <= 1 + 1e-12

    # --csv combined with --report keeps both outputs
    rep = tmp_path / "grid.json"
    assert run("demo", "grid", "--grids", "4,8", "--csv", str(out),
               "--report", str(rep)) == 0
    doc = read_json(rep)
    assert doc["ok"] and len(doc["rows"]) == 2


def csv_rows(fh):
    import csv

    return csv.DictReader(fh)


def test_demo_blocks_and_squeezing(tmp_path):
    r1 = tmp_path / "blocks.json"
    assert run("demo", "blocks", "--K", "12", "--probes", "6", "--report", str(r1)) == 0
    doc = read_json(r1)
    assert doc["max_ratio"] <= 1 + 1e-10
    assert_allclose(doc["L2_norm"], 12.0, rtol=1e-12)

    r2 = tmp_path / "sq.json"
    assert run("demo", "squeezing", "-N", "60", "--report", str(r2)) == 0
    doc = read_json(r2)
    ratios = doc["ratios"]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_subproduct_certify_exit_codes(tmp_path):
    assert run("subproduct", "certify", "--builtin", "symmetric", "-d", "2", "-N", "3",
               "--report", str(tmp_path / "sym.json")) == 0
    # nested point projections satisfy only the squeezing-side chain
    report = tmp_path / "np.json"
    assert run("subproduct", "certify", "--builtin", "nested-point", "-d", "3", "-N", "3",
               "--report", str(report)) == 1
    doc = read_json(report)
    assert max(doc["squeezing_side"]) <= 1e-10
    assert max(doc["kernel_side"]) >= 0.9


def test_subproduct_random_refuses_a_negative_rank(capsys):
    # the message names the level, where numpy's shape error would name none
    assert run("subproduct", "certify", "--random", "-d", "2", "-N", "3", "--ranks", "1,2,-1,0") == 2
    assert "requested rank -1 at level 2 is negative" in capsys.readouterr().err


@pytest.mark.parametrize("sources", [("FILE", "--random"), ("FILE", "--builtin", "symmetric"),
                                     ("--random", "--builtin", "symmetric"),
                                     ("FILE", "--random", "--builtin", "identity")])
def test_subproduct_refuses_two_sources(tmp_path, capsys, sources):
    saved = tmp_path / "fam.json"
    assert run("subproduct", "certify", "--random", "-d", "2", "-N", "3", "--save-family", str(saved),
               "--report", str(tmp_path / "r.json")) == 0
    capsys.readouterr()
    argv = [str(saved) if a == "FILE" else a for a in sources]
    for action in ("certify", "build"):
        out = tmp_path / f"{action}.json"
        assert run("subproduct", action, *argv, "-d", "2", "-N", "3", "--report", str(out), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("fockbench: ") and "one projection source" in err
        assert not out.exists()


def test_subproduct_random_family_roundtrip(tmp_path):
    saved = tmp_path / "fam.json"
    report = tmp_path / "cert.json"
    assert run("subproduct", "certify", "--random", "-d", "2", "-N", "4", "--seed", "11",
               "--save-family", str(saved), "--report", str(report)) == 0
    doc = read_json(report)
    assert doc["ok"] and doc["theorem_confirmed"]
    # the saved family certifies identically when read back from disk
    report2 = tmp_path / "cert2.json"
    assert run("subproduct", "certify", str(saved), "--report", str(report2)) == 0
    assert report.read_bytes() == report2.read_bytes()


def test_subproduct_build_space_verifies(tmp_path):
    space = tmp_path / "space.json"
    assert run("subproduct", "build", "--builtin", "nested-point", "-d", "3", "-N", "3",
               "--out", str(space)) == 0
    doc = read_json(space)
    assert doc["pi_deviation"] <= 1e-10
    assert run("verify", str(space)) == 0


def test_opalg_report(tmp_path):
    fam = tmp_path / "fam.json"
    space = tmp_path / "space.json"
    run("deform", "--kind", "identity", "-d", "1", "-N", "3", "--out", str(fam))
    run("build", str(fam), "--out", str(space))
    report = tmp_path / "spans.json"
    assert run("opalg", str(space), "--which", "alg_alt,mod_alt,alg_word,mod_word",
               "--report", str(report)) == 0
    doc = read_json(report)
    # single mode, undeformed: every alternating word collapses to one operator
    assert doc["ranks"]["alg_alt"] == 1
    assert doc["ranks"]["mod_alt"] == 1
    assert doc["ranks"]["alg_word"] == 4
    assert doc["ranks"]["mod_word"] == 3
    assert all(doc["stabilized"].values())
    assert doc["inclusion_residuals"]["alg_alt in alg_word"] <= 1e-10
    assert doc["left_actions"]["alg_word on mod_word"]["nondegenerate"]


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "does-not-exist.json"),
        ("opalg", "does-not-exist.json"),
        ("deform", "--kind", "q", "--q", "2.0", "-d", "2", "-N", "2"),
        ("deform", "--kind", "q", "--q", "nan", "-d", "2", "-N", "2"),
        ("deform", "--kind", "q", "--q", "-inf", "-d", "2", "-N", "2"),
        ("subproduct", "certify", "--builtin", "nested-point", "-d", "2", "-N", "3"),
        ("subproduct", "certify"),
        ("onemode", "--moments", "1,0,abc"),
        ("demo", "grid", "--grids", ""),
        ("demo", "rescaling", "--basis", "0"),
        # there is no --samples option (the norm is exact): argparse refuses it
        ("demo", "rescaling", "--samples", "0"),
        ("demo", "rescaling", "--samples", "-5"),
        ("demo", "blocks", "--probes", "-1"),
        ("subproduct", "certify", "--random", "-d", "2", "-N", "3", "--ranks", "3,4"),
        ("onemode", "--moments", "1,0,nan,0,3"),
        ("onemode", "--moments", "1,0,inf,0,3"),
        ("demo", "rescaling", "--max-entry", "nan"),
        ("demo", "rescaling", "--max-entry", "inf"),
        ("demo", "rescaling", "--max-entry", "-1"),
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    assert run(*argv) == 2


@pytest.mark.parametrize("x", ["inf,0", "1,nan", "1,-inf", "1,1+nanj"])
def test_non_finite_probe_is_a_usage_error(x, tmp_path, capsys):
    fam, space = tmp_path / "fam.json", tmp_path / "space.json"
    assert run("deform", "--kind", "identity", "-d", "2", "-N", "2", "--out", str(fam)) == 0
    assert run("build", str(fam), "--out", str(space)) == 0
    capsys.readouterr()
    assert run("bounds", str(space), "--x", x) == 2
    assert capsys.readouterr().err.startswith("fockbench: ")


def test_ranks_take_the_full_profile(tmp_path, capsys):
    assert run("subproduct", "--help") == 0
    assert "full rank profile 1,d,r2,..,rN" in " ".join(capsys.readouterr().out.split())
    report = tmp_path / "r.json"
    assert run("subproduct", "certify", "--random", "-d", "2", "-N", "3", "--ranks", "1,2,3,4",
               "--report", str(report)) == 0
    assert read_json(report)["ok"]


# dump_json must match the json module's own indented rendering byte for byte
_json_floats = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16]),
    st.floats().map(np.float64),
)
_json_keys = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u00e9", "\u2603", "\U0001f600", ""]))
_json_scalars = st.one_of(
    _json_floats, st.integers(), st.integers(2**63, 2**80), st.booleans(), st.none(), st.text(),
)
_json_docs = st.recursive(
    _json_scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_json_keys, kids, max_size=4),
        st.lists(_json_floats, max_size=6),
        st.lists(st.one_of(_json_floats, st.integers(), st.booleans()), max_size=6),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(doc=st.dictionaries(_json_keys, _json_docs, max_size=5))
def test_dump_json_matches_json_dumps(doc):
    assert cli.dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _library_space_file(path, family):
    """The space file of ``subproduct build`` on ``family`` in matrix form
    (``factors`` or ``L``), as the library writes it for any family."""
    space, _, deviation = subproduct.pi_space(family)
    doc = cli.space_to_json(space)
    doc["pi_deviation"] = float(deviation)
    cli.write_text_atomic(path, cli.dump_json(doc))
    return doc


def test_symmetric_files_hold_factors_and_ranges(tmp_path):
    space, saved = tmp_path / "space.json", tmp_path / "sym.json"
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    argv = ("--builtin", "symmetric", "-d", "3", "-N", "4")
    assert run("subproduct", "build", *argv, "--out", str(space)) == 0
    assert read_json(space)["meta"] == {"kind": "symmetric"}
    assert run("verify", str(space), "--report", str(tmp_path / "v.json")) == 0
    # the matrix form of the same space stores its quotient maps as factors
    factored = tmp_path / "factored.json"
    _library_space_file(factored, subproduct.symmetric_projections(3, 4))
    doc = read_json(factored)
    assert "factors" in doc and "L" not in doc
    assert [doc["factors"][str(n)]["rows"] for n in range(5)] == [1, 3, 6, 10, 15]
    assert run("verify", str(factored), "--report", str(tmp_path / "vf.json")) == 0
    assert (tmp_path / "v.json").read_bytes() == (tmp_path / "vf.json").read_bytes()
    assert run("subproduct", "certify", *argv, "--save-family", str(saved), "--report", str(c1)) == 0
    doc = read_json(saved)
    assert "ranges" in doc and "pi" not in doc
    assert [doc["ranges"][str(n)]["cols"] for n in range(5)] == [1, 3, 6, 10, 15]
    assert run("subproduct", "certify", str(saved), "--report", str(c2)) == 0
    assert c1.read_bytes() == c2.read_bytes()


BUILTIN_SPACES = {"symmetric": (3, 4, "0.6,0.8,0"), "identity": (2, 3, "0.6,0.8"), "nested-point": (3, 3, "0.6,0.8,0")}


@pytest.mark.parametrize("builtin", list(BUILTIN_SPACES))
def test_a_builtin_space_file_is_its_recipe(tmp_path, monkeypatch, builtin):
    d, N, x = BUILTIN_SPACES[builtin]
    recipe, matrices = tmp_path / "recipe.json", tmp_path / "matrices.json"
    assert run("subproduct", "build", "--builtin", builtin, "-d", str(d), "-N", str(N), "--out", str(recipe)) == 0
    doc = read_json(recipe)
    assert recipe.stat().st_size < 1024 and not {"L", "factors"} & set(doc)
    assert doc["meta"] == {"kind": builtin}
    family = getattr(subproduct, cli.BUILTINS[builtin])(d, N)
    old = _library_space_file(matrices, family)
    assert {k: doc[k] for k in ("rank_tol", "ranks", "pi_deviation")} == {
        k: old[k] for k in ("rank_tol", "ranks", "pi_deviation")}
    # the recipe rebuilds the builtin's levels bit for bit
    rebuilt = cli.family_from_json(doc)
    for n in range(N + 1):
        a, b = rebuilt.level(n), family.level(n)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for argv in (["verify"], ["bounds", "--x", x], ["opalg", "--which", "mod_alt,alg_alt,alg_word", "--horizon", "4"]):
        reports = []
        for path in (recipe, matrices):
            out = tmp_path / f"{argv[0]}-{path.stem}.json"
            assert run(argv[0], str(path), *argv[1:], "--report", str(out)) == 0, argv
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], argv
    # the recipe's constructor is looked up when the file is read
    calls = []
    owner, name = (deformations, "identity_family") if builtin == "identity" else (subproduct, cli.BUILTINS[builtin])
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or original(*a))
    assert run("verify", str(recipe), "--report", str(tmp_path / "v.json")) == 0
    assert len(calls) == 1


def test_dense_projection_builtins_are_refused_before_a_level_is_formed(monkeypatch, tmp_path, capsys):
    # the cap lowered to the dense top level of d=2, N=3: d=2, N=4 and d=3, N=3 exceed it
    monkeypatch.setattr(deformations, "DENSE_LEVEL_BYTES", 16 * 2**6)
    assert subproduct.identity_projections(2, 3).ranks == (1, 2, 4, 8)

    def forbidden(*args, **kwargs):
        raise AssertionError("a level was formed")

    with monkeypatch.context() as m:
        for name in ("eye", "zeros", "kron"):
            m.setattr(np, name, forbidden)
        for make, d, N in ((subproduct.identity_projections, 2, 4), (subproduct.nested_point_projections, 3, 3)):
            with pytest.raises(ValueError, match="dense top level"):
                make(d, N)
    for argv in (("identity", "-d", "2", "-N", "4"), ("nested-point", "-d", "3", "-N", "3")):
        for action in ("certify", "build"):
            out = tmp_path / "out.json"
            assert run("subproduct", action, "--builtin", *argv, "--report", str(out), "--out", str(out)) == 2
            assert capsys.readouterr().err.startswith("fockbench: the dense top level")
            assert not out.exists()


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"broken": ')
    assert run("validate", str(bad)) == 2
    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"d": 2, "N": 2}')
    assert run("build", str(truncated)) == 2


@pytest.mark.parametrize("argv", [["verify"], ["bounds", "--x", "1,0"], ["opalg"]])
def test_a_family_file_given_for_a_space_file_is_named(tmp_path, capsys, argv):
    # it used to exit 2 with "malformed input: KeyError('rank_tol')"
    fam = tmp_path / "fam.json"
    assert run("deform", "--kind", "q", "--q", "0.5", "-d", "2", "-N", "2", "--out", str(fam)) == 0
    capsys.readouterr()
    assert run(argv[0], str(fam), *argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fockbench: ") and "family file" in err and "rank_tol" in err and "fockbench build" in err
    assert "KeyError" not in err


def test_opalg_unknown_kind_exits_two(tmp_path):
    fam = tmp_path / "fam.json"
    space = tmp_path / "space.json"
    run("deform", "--kind", "identity", "-d", "1", "-N", "2", "--out", str(fam))
    run("build", str(fam), "--out", str(space))
    assert run("opalg", str(space), "--which", "alg_alt,XYZ") == 2


def test_opalg_refuses_an_empty_kind_list_before_reading_the_space(tmp_path, capsys):
    # it used to exit 0 with a report of empty maps and the horizon as given
    report = tmp_path / "o.json"
    for which in (",", "", " , "):
        assert run("opalg", "does-not-exist.json", "--which", which, "--horizon", "-5", "--report", str(report)) == 2
        err = capsys.readouterr().err
        assert err.startswith("fockbench: ") and "--which" in err
    assert not report.exists()


def test_deform_refuses_q_for_a_kind_that_takes_none(tmp_path, capsys):
    # each used to exit 0, writing a recipe without q and dropping the flag
    out = tmp_path / "fam.json"
    for kind, q in (("monotone", "0.7"), ("monotone", "0.5"), ("identity", "0.3")):
        assert run("deform", "--kind", kind, "--q", q, "-d", "2", "-N", "2", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("fockbench: ") and "--q" in err and "deform --kind q" in err
        assert not out.exists()
    # --kind q without --q keeps q = 0
    assert run("deform", "--kind", "q", "-d", "2", "-N", "2", "--out", str(out)) == 0
    assert read_json(out)["meta"] == {"kind": "q", "q": 0.0}


def test_deform_writes_q_minus_zero_as_zero(tmp_path):
    # --q -0.0 used to write the recipe "q": -0.0, a second file for the family of --q 0
    minus, plus = tmp_path / "minus.json", tmp_path / "plus.json"
    assert run("deform", "--kind", "q", "--q", "-0.0", "-d", "2", "-N", "2", "--out", str(minus)) == 0
    assert run("deform", "--kind", "q", "--q", "0", "-d", "2", "-N", "2", "--out", str(plus)) == 0
    assert minus.read_bytes() == plus.read_bytes()
    assert "-0.0" not in minus.read_text()


def test_stdout_report_when_no_path(capsys):
    assert run("onemode", "--moments", "1,0,2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert_allclose(doc["k"], [2.0], atol=1e-12)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    b = cli.matrix_from_json(cli.matrix_to_json(a))
    assert_allclose(b, a, atol=0)
    with pytest.raises(ValueError, match="header"):
        cli.matrix_from_json({"rows": 2, "cols": 2, "re": [[1.0]], "im": [[0.0]]})


def test_a_matrix_whose_imaginary_parts_are_zero_reads_as_real():
    real = cli.matrix_from_json(cli.matrix_to_json(np.array([[1.0, -0.5], [0.0, 2.0]])))
    assert real.dtype == np.float64 and real.tolist() == [[1.0, -0.5], [0.0, 2.0]]
    assert cli.matrix_from_json(cli.matrix_to_json(np.array([[1.0, 0.5j]]))).dtype == np.complex128
    assert cli.matrix_from_json({"rows": 0, "cols": 3, "re": [], "im": []}).dtype == np.float64
    # the file of a real family still carries its im lists of zeros
    assert cli.matrix_to_json(np.eye(2))["im"] == [[0.0, 0.0], [0.0, 0.0]]


def test_graded_json_requires_contiguous_keys():
    good = {"0": cli.matrix_to_json(np.eye(1)), "1": cli.matrix_to_json(np.eye(2))}
    assert len(cli.graded_from_json(good)) == 2
    with pytest.raises(ValueError, match="keyed"):
        cli.graded_from_json({"0": cli.matrix_to_json(np.eye(1)), "2": cli.matrix_to_json(np.eye(2))})


def test_factored_family_file_validates_builds_and_verifies(tmp_path):
    fam, space = tmp_path / "fam.json", tmp_path / "space.json"
    doc = cli.family_to_json(interacting.random_poi_family(2, 4, seed=1, ranks=(1, 2, 3, 4, 5)))
    assert "factors" in doc and "L" not in doc
    fam.write_text(cli.dump_json(doc))
    assert run("validate", str(fam), "--report", str(tmp_path / "v.json")) == 0
    assert run("build", str(fam), "--out", str(space)) == 0
    assert read_json(space)["factors"] == doc["factors"]
    assert run("verify", str(space), "--report", str(tmp_path / "r.json")) == 0


def test_subproduct_random_build_writes_a_factored_space(tmp_path):
    space = tmp_path / "space.json"
    assert run("subproduct", "build", "--random", "-d", "2", "-N", "4", "--seed", "3", "--out", str(space)) == 0
    assert "factors" in read_json(space) and "L" not in read_json(space)
    assert run("verify", str(space), "--report", str(tmp_path / "r.json")) == 0
    assert read_json(tmp_path / "r.json")["ok"] is True


def _with_level(doc, key, n, matrix):
    doc = json.loads(json.dumps(doc))
    doc[key][str(n)] = cli.matrix_to_json(matrix)
    return doc


def test_bad_factors_and_ranges_are_usage_errors(tmp_path, capsys):
    fam = interacting.random_poi_family(2, 2, seed=1)
    family_doc = cli.family_to_json(fam)
    space_doc = cli.space_to_json(interacting.build(fam))
    rows = len(fam.factors[1])
    bad_factors = {
        "wrong shape": ("factors", 1, np.ones((rows, 3))),
        "factors[0] != [[1]]": ("factors", 0, -np.ones((1, 1))),
    }
    path = tmp_path / "bad.json"
    for why, (key, n, matrix) in bad_factors.items():
        for doc, argv in ((family_doc, ["validate"]), (family_doc, ["build"]), (space_doc, ["verify"]),
                          (space_doc, ["bounds", "--x", "1,0"])):
            path.write_text(cli.dump_json(_with_level(doc, key, n, matrix)))
            assert run(*argv[:1], str(path), *argv[1:]) == 2, (why, argv)
            assert capsys.readouterr().err.startswith("fockbench: "), (why, argv)
    proj_doc = cli.projections_to_json(subproduct.random_adjacent_family(2, 3, seed=1))
    assert "ranges" in proj_doc and "pi" not in proj_doc
    bad_ranges = {
        "ranges[1] not orthonormal": (1, 2 * np.eye(2)),
        "wrong shape": (2, np.eye(3)),
        "ranges[0] != [[1]]": (0, -np.ones((1, 1))),
    }
    for why, (n, matrix) in bad_ranges.items():
        path.write_text(cli.dump_json(_with_level(proj_doc, "ranges", n, matrix)))
        for action in ("certify", "build"):
            assert run("subproduct", action, str(path)) == 2, (why, action)
            assert capsys.readouterr().err.startswith("fockbench: "), (why, action)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_entries_are_usage_errors(tmp_path, capsys, value):
    fam = interacting.random_poi_family(2, 2, seed=1)
    dense = deformations.identity_family(TruncatedFockSpace(d=2, N=2))
    bad = np.ones((2, 2))
    bad[0, 0] = value
    path = tmp_path / "bad.json"
    for doc, key, argv in (
        (cli.family_to_json(dense), "L", ["validate"]),
        (cli.family_to_json(dense), "L", ["build"]),
        (cli.family_to_json(fam), "factors", ["validate"]),
        (cli.space_to_json(interacting.build(dense)), "L", ["verify"]),
        (cli.space_to_json(interacting.build(fam)), "factors", ["bounds", "--x", "1,0"]),
        (cli.projections_to_json(subproduct.identity_projections(2, 2)), "pi", ["subproduct", "certify"]),
        (cli.projections_to_json(subproduct.symmetric_projections(2, 2)), "ranges", ["subproduct", "build"]),
    ):
        rows = doc[key]["1"]["rows"]
        path.write_text(cli.dump_json(_with_level(doc, key, 1, bad[:rows])))
        assert run(*argv, str(path)) == 2, (key, argv)
        assert "matrix entries must be finite" in capsys.readouterr().err, (key, argv)


def test_files_write_no_negative_zero(tmp_path):
    # the factors of a real range basis are its conjugate transpose, whose zero
    # imaginary parts carry the sign -0.0; files write them as 0.0
    assert str(cli.matrix_to_json(np.array([[1.0 - 0.0j]]))["im"]) == "[[0.0]]"
    space = tmp_path / "ss.json"
    argv = ("subproduct", "build", "--builtin", "symmetric", "-d", "3", "-N", "4", "--out", str(space))
    assert run(*argv) == 0
    assert run("validate", str(space), "--report", str(tmp_path / "v.json")) == 0
    # the builtin's space file is its recipe; its matrix form holds the factors
    factored = tmp_path / "factored.json"
    _library_space_file(factored, subproduct.symmetric_projections(3, 4))
    assert not re.search(r"-0\.0(,|$)", factored.read_text(), flags=re.MULTILINE)
    assert run("validate", str(factored), "--report", str(tmp_path / "vf.json")) == 0
    assert (tmp_path / "v.json").read_bytes() == (tmp_path / "vf.json").read_bytes()
