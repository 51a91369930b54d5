"""The ``subproduct`` checks of the README CLI chain, run through ``cli.main``
in a temporary directory: certificates that rerun byte for byte from their
saved families, built spaces that verify with ``pi_deviation`` at most 1e-10,
the small recipe file of the symmetric space and the factored file of the
same space written from Python, and the usage errors that exit 2 and write
nothing."""

import json
import os
import re

import pytest

from fockbench import cli, subproduct


def run(*argv):
    return cli.main([str(a) for a in argv])


def load(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("source", [("--random", "-d", 2, "-N", 4, "--seed", 3),
                                    ("--builtin", "symmetric", "-d", 3, "-N", 4)], ids=("random", "symmetric"))
def test_certify_reruns_byte_for_byte_from_its_saved_family(tmp_path, source):
    fam, first, second = tmp_path / "fam.json", tmp_path / "a.json", tmp_path / "b.json"
    assert run("subproduct", "certify", *source, "--save-family", fam, "--report", first) == 0
    assert run("subproduct", "certify", fam, "--report", second) == 0
    assert first.read_bytes() == second.read_bytes()


def test_certify_identity_passes():
    assert run("subproduct", "certify", "--builtin", "identity", "-d", 2, "-N", 3) == 0


@pytest.mark.parametrize("source", [("--random", "-d", 2, "-N", 4, "--seed", 3),
                                    ("--builtin", "symmetric", "-d", 3, "-N", 4),
                                    ("--builtin", "identity", "-d", 2, "-N", 3),
                                    ("--builtin", "nested-point", "-d", 3, "-N", 3)],
                         ids=("random", "symmetric", "identity", "nested-point"))
def test_built_spaces_verify(tmp_path, source):
    space = tmp_path / "space.json"
    assert run("subproduct", "build", *source, "--out", space) == 0
    assert run("verify", space) == 0
    assert load(space)["pi_deviation"] <= 1e-10


def test_symmetric_space_file_is_its_recipe(tmp_path):
    space = tmp_path / "ss.json"
    assert run("subproduct", "build", "--builtin", "symmetric", "-d", 3, "-N", 4, "--out", space) == 0
    assert run("validate", space) == 0
    assert "factors" not in load(space) and os.path.getsize(space) < 1024


def test_symmetric_space_written_from_python_holds_factors(tmp_path):
    space = tmp_path / "ssf.json"
    cli.write_text_atomic(space, cli.dump_json(cli.space_to_json(
        subproduct.pi_space(subproduct.symmetric_projections(3, 4))[0])))
    assert "factors" in load(space)
    assert run("validate", space) == 0
    assert run("verify", space) == 0
    assert not re.search(r"-0\.0(,|$)", space.read_text(), re.M)


@pytest.mark.parametrize("argv, unwritten", [
    (("certify", "--builtin", "nested-point", "-d", 3, "-N", 3, "--rank-tol", 2), None),
    (("certify", "r.json", "--random", "-d", 2, "-N", 4), None),
    (("build", "--random", "--builtin", "symmetric", "-d", 2, "-N", 3, "--out", "two.json"), "two.json"),
    (("certify", "--builtin", "symmetric", "-d", 2, "-N", 3, "--out", "cert-out.json"), "cert-out.json"),
    (("build", "--builtin", "symmetric", "-d", 2, "-N", 3, "--report", "build-report.json"), "build-report.json"),
], ids=("rank-tol", "file-and-random", "random-and-builtin", "certify-out", "build-report"))
def test_usage_errors_exit_2_and_write_nothing(tmp_path, monkeypatch, argv, unwritten):
    monkeypatch.chdir(tmp_path)
    assert run("subproduct", "certify", "--random", "-d", 2, "-N", 4, "--seed", 3, "--save-family", "r.json") == 0
    assert run("subproduct", *argv) == 2
    if unwritten:
        assert not os.path.exists(unwritten)
