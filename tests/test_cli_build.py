"""The ``deform``/``validate``/``build``/``verify``/``bounds`` checks of the
README CLI chain, run through ``cli.main`` in a temporary directory: the
q-Fock, monotone and ``q = -1`` chains, recipes written byte for byte alike,
the identity and pair-collapse ``L`` files that rebuild byte for byte from
their space files, and the usage errors of ``build``."""

import json

import pytest

from fockbench import cli, deformations
from fockbench.boundedness import pair_collapse_family
from fockbench.tensor_core import TruncatedFockSpace


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def call(*argv):
        rc = cli.main([str(a) for a in argv])
        capsys.readouterr()
        return rc

    return call


def load(path):
    with open(path) as fh:
        return json.load(fh)


def test_q_fock_chain_from_a_small_recipe(run, tmp_path):
    assert run("deform", "--kind", "q", "--q", 0.5, "-d", 2, "-N", 4, "--out", "fam.json") == 0
    assert "L" not in load("fam.json") and (tmp_path / "fam.json").stat().st_size < 1024
    assert run("validate", "fam.json") == 0
    assert run("build", "fam.json", "--out", "space.json") == 0
    assert run("verify", "space.json") == 0
    assert run("bounds", "space.json", "--x", "1,0") == 0
    assert run("build", "fam.json", "--rank-tol", 2) == 2


@pytest.mark.parametrize("kind", [("q", "--q", 0.5, "-d", 2, "-N", 6), ("monotone", "-d", 3, "-N", 3)],
                         ids=("q", "monotone"))
def test_a_recipe_is_written_byte_for_byte_alike(run, tmp_path, kind):
    assert run("deform", "--kind", *kind, "--out", "a.json") == 0
    assert run("deform", "--kind", *kind, "--out", "b.json") == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_monotone_chain(run):
    assert run("deform", "--kind", "monotone", "-d", 3, "-N", 3, "--out", "mono.json") == 0
    assert run("validate", "mono.json") == 0
    assert run("build", "mono.json", "--out", "mono-space.json") == 0
    assert run("verify", "mono-space.json") == 0


def test_antisymmetric_chain_keeps_the_exterior_ranks(run):
    assert run("deform", "--kind", "q", "--q", -1, "-d", 3, "-N", 3, "--out", "anti.json") == 0
    assert run("build", "anti.json", "--out", "anti-space.json") == 0
    assert run("verify", "anti-space.json") == 0
    assert load("anti-space.json")["ranks"] == [1, 3, 3, 1]


def test_q_fock_chain_at_d3_N7(run):
    assert run("deform", "--kind", "q", "--q", 0.5, "-d", 3, "-N", 7, "--out", "q37.json") == 0
    assert run("validate", "q37.json") == 0
    assert run("build", "q37.json", "--out", "q37-space.json") == 0
    assert run("verify", "q37-space.json") == 0
    assert run("bounds", "q37-space.json", "--x", "1,0,0", "--no-creator-map") == 0


def test_a_family_of_an_unknown_kind_is_a_usage_error(run, tmp_path):
    (tmp_path / "nope.json").write_text('{"kind": "deformation_family", "d": 2, "N": 2, "meta": {"kind": "nope"}}\n')
    assert run("validate", "nope.json") == 2
    assert run("build", "nope.json") == 2


@pytest.mark.parametrize("make", [lambda: deformations.identity_family(TruncatedFockSpace(2, 3)),
                                  lambda: pair_collapse_family(3)], ids=("identity", "pair_collapse"))
def test_an_L_file_space_rebuilds_byte_for_byte(run, tmp_path, make):
    cli.write_text_atomic("fam.json", cli.dump_json(cli.family_to_json(make())))
    assert "L" in load("fam.json")
    assert run("build", "fam.json", "--out", "space.json") == 0
    assert "L" in load("space.json")
    assert run("verify", "space.json") == 0
    assert run("build", "space.json", "--out", "space2.json") == 0
    assert (tmp_path / "space.json").read_bytes() == (tmp_path / "space2.json").read_bytes()
