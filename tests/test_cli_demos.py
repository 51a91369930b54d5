"""The demo and ``onemode`` checks of the README CLI chain, run through
``cli.main`` in a temporary directory: the demos at their defaults, the grid
CSV header, the Gaussian Jacobi weights read exactly, and the flags a demo
or a ``subproduct`` source would ignore, which exit 2 and write nothing."""

import json

import pytest

from fockbench import cli


@pytest.fixture
def run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return lambda *argv: cli.main([str(a) for a in argv])


def load(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ("blocks", "squeezing"))
def test_a_demo_passes_at_its_defaults(run, capsys, name):
    assert run("demo", name) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_the_grid_csv_header_at_the_default_grids(run, tmp_path):
    assert run("demo", "grid", "--csv", "grid.csv", "--report", "grid.json") == 0
    with open(tmp_path / "grid.csv", newline="") as fh:
        assert fh.readline().rstrip("\r\n") == "m,ratio,L_max_eig"
    assert load(tmp_path / "grid.json")["ok"]


def test_the_gaussian_moments_give_the_weights_exactly(run, tmp_path):
    assert run("onemode", "--moments", "1,0,1,0,3,0,15,0,105", "--report", "om.json") == 0
    assert load(tmp_path / "om.json")["k"] == [1, 2, 3, 4]


@pytest.mark.parametrize("argv, flags", [
    (("demo", "grid", "--K", 5, "--probes", 3, "--basis", 7, "--seed", 9), "--K 5 --probes 3 --basis 7 --seed 9"),
    (("demo", "squeezing", "--seed", 9), "--seed 9"),
    (("demo", "blocks", "-N", 9), "-N 9"),
    (("demo", "rescaling", "--grids", "4,8"), "--grids 4,8"),
], ids=("grid", "squeezing", "blocks", "rescaling"))
def test_a_demo_refuses_the_flags_of_another(run, tmp_path, capsys, argv, flags):
    # each used to exit 0 with the bytes of the run without them
    assert run(*argv, "--report", "r.json") == 2
    assert f"fockbench demo {argv[1]}: error: unrecognized arguments: {flags}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("source, given, message", [
    (("--builtin", "symmetric", "-d", 2, "-N", 3), ("--ranks", "1,2,9", "--seed", 5),
     "--ranks is for subproduct --random, not --builtin"),
    (("--builtin", "symmetric"), ("--seed", 5), "--seed is for subproduct --random, not --builtin"),
    (("r.json",), ("-d", 4, "-N", 5, "--ranks", "1,4"),
     "-d is for subproduct --random and --builtin, not a projection file"),
    (("r.json",), ("-N", 5), "-N is for subproduct --random and --builtin, not a projection file"),
    (("r.json",), ("--seed", 5), "--seed is for subproduct --random, not a projection file"),
], ids=("builtin-ranks-seed", "builtin-seed", "file-d-N-ranks", "file-N", "file-seed"))
@pytest.mark.parametrize("action, output", [("certify", "--report"), ("build", "--out")])
def test_a_subproduct_source_refuses_the_flags_it_would_ignore(run, tmp_path, capsys, source, given, message,
                                                             action, output):
    # each used to exit 0 with the bytes of the run without the flags it ignored
    assert run("subproduct", "certify", "--random", "-d", 2, "-N", 4, "--seed", 3, "--save-family", "r.json") == 0
    capsys.readouterr()
    assert run("subproduct", action, *source, *given, "--save-family", "saved.json", output, "out.json") == 2
    assert capsys.readouterr().err == f"fockbench: {message}\n"
    assert not (tmp_path / "saved.json").exists() and not (tmp_path / "out.json").exists()


def test_random_and_builtin_keep_their_defaults(run, tmp_path):
    for source, defaults in ((("--random",), ("-d", 2, "-N", 3, "--seed", 0)),
                             (("--builtin", "symmetric"), ("-d", 2, "-N", 3))):
        assert run("subproduct", "certify", *source, "--report", "a.json") == 0
        assert run("subproduct", "certify", *source, *defaults, "--report", "b.json") == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
