import json
import os
import subprocess
import sys

import numpy as np
import pytest
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
    run("deform", "--kind", "identity", "-d", "2", "-N", "2", "--out", str(fam))
    run("build", str(fam), "--out", str(space))
    raised_rank = read_json(space)
    raised_rank["ranks"][2] += 1
    # L_1 = diag(1, 0) while L_2 = id: e_0 (x) e_1 must die in L_2 but does not
    broken_kernel = read_json(space)
    broken_kernel["L"]["1"]["re"][1][1] = 0.0
    for doc in (raised_rank, broken_kernel):
        space.write_text(cli.dump_json(doc))
        assert run("verify", str(space), "--report", str(tmp_path / "r.json")) == 1
        assert "fockbench:" in capsys.readouterr().err
        assert run("bounds", str(space), "--x", "1,0") == 2
        assert "fockbench:" in capsys.readouterr().err


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
    assert set(doc) == {"kind", "d", "N", "L", "rank_tol", "ranks"}
    back = cli.space_from_json(doc)
    assert back.ranks == space.ranks
    assert back.residuals == space.residuals
    for field in ("xi", "sqrt_mu", "Lambda", "lam"):
        for a, b in zip(getattr(back, field), getattr(space, field), strict=True):
            assert np.array_equal(a, b)
    for a, b in zip(back.creators, space.creators, strict=True):
        for x, y in zip(a, b, strict=True):
            assert np.array_equal(x, y)


def test_subproduct_build_records_its_rank_tol(tmp_path):
    space = tmp_path / "space.json"
    assert run("subproduct", "build", "--builtin", "symmetric", "-d", "2", "-N", "3",
               "--rank-tol", "1e-6", "--out", str(space)) == 0
    assert read_json(space)["rank_tol"] == 1e-6


def test_space_file_keeps_a_non_default_eps_psd():
    # L_2 has the eigenvalue -1e-8, which only eps_psd = 1e-6 accepts as PSD
    fam = deformations.identity_family(TruncatedFockSpace(2, 2))
    L2 = np.eye(4, dtype=complex)
    L2[3, 3] = -1e-8
    family = deformations.DeformationFamily(fam.space, (*fam.L[:2], L2), eps_psd=1e-6)
    space = interacting.build(family)
    assert tuple(space.ranks) == (1, 2, 3)
    doc = json.loads(cli.dump_json(cli.space_to_json(space)))
    assert doc["eps_psd"] == 1e-6
    assert cli.family_from_json(doc).eps_psd == 1e-6
    assert cli.space_from_json(doc).ranks == space.ranks


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
    assert_allclose(doc["minimal_constants"], np.ones(len(doc["minimal_constants"])), atol=1e-10)



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
    assert run("demo", "rescaling", "--basis", "50", "--seed", "1", "--samples", "400",
               "--report", str(report)) == 0
    doc = read_json(report)
    assert doc["certified_bound"] <= 1 / 3
    assert doc["empirical_max"] <= doc["certified_bound"]
    assert doc["entrywise_ok"] and doc["ok"]


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
        ("subproduct", "certify", "--builtin", "nested-point", "-d", "2", "-N", "3"),
        ("subproduct", "certify"),
        ("onemode", "--moments", "1,0,abc"),
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    assert run(*argv) == 2


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"broken": ')
    assert run("validate", str(bad)) == 2
    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"d": 2, "N": 2}')
    assert run("build", str(truncated)) == 2


def test_opalg_unknown_kind_exits_two(tmp_path):
    fam = tmp_path / "fam.json"
    space = tmp_path / "space.json"
    run("deform", "--kind", "identity", "-d", "1", "-N", "2", "--out", str(fam))
    run("build", str(fam), "--out", str(space))
    assert run("opalg", str(space), "--which", "alg_alt,XYZ") == 2


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


def test_graded_json_requires_contiguous_keys():
    good = {"0": cli.matrix_to_json(np.eye(1)), "1": cli.matrix_to_json(np.eye(2))}
    assert len(cli.graded_from_json(good)) == 2
    with pytest.raises(ValueError, match="keyed"):
        cli.graded_from_json({"0": cli.matrix_to_json(np.eye(1)), "2": cli.matrix_to_json(np.eye(2))})
