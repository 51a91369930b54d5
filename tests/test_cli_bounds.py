"""The ``bounds`` checks of the README CLI chain, run through ``cli.main`` in a
temporary directory: the q-Fock creator norms sqrt([n+1]_q) for a real and a
complex probe, the torus probe giving the real and the complex probe the same
norms, the norms 1 at q = -0.5, and the creator-map bracket closing on the
pair collapse space.  The wrong probe length exiting 2 is in ``test_cli.py``."""

import json
import math

import pytest

from fockbench import boundedness, cli

Q_NORMS = [math.sqrt(sum(0.5**k for k in range(n + 1))) for n in range(4)]  # sqrt([n+1]_q) at q = 0.5


def run(*argv):
    return cli.main([str(a) for a in argv])


def creator_norms(space, tmp_path, *argv):
    report = tmp_path / "bounds.json"
    assert run("bounds", space, *argv, "--report", report) == 0
    with open(report) as fh:
        return json.load(fh)["creator_norms"]


@pytest.fixture(scope="module")
def q_fock_34(tmp_path_factory):
    """``deform --kind q -d 3 -N 4`` and ``build`` at q = 0.5 and q = -0.5: the space files by q."""
    out, spaces = tmp_path_factory.mktemp("q34"), {}
    for q in (0.5, -0.5):
        fam, spaces[q] = out / f"q{q}.json", out / f"q{q}-space.json"
        assert run("deform", "--kind", "q", "--q", q, "-d", 3, "-N", 4, "--out", fam) == 0
        assert run("build", fam, "--out", spaces[q]) == 0
    return spaces


@pytest.mark.parametrize("q, argv, want", [
    (0.5, ("--x", "1,0,0"), Q_NORMS),
    (0.5, ("--x", "0.6,0.8j,0"), Q_NORMS),
    (-0.5, ("--x", "0.6,0.8j,0", "--no-creator-map"), [1.0] * 4),
], ids=("q-real", "q-complex", "qneg-complex"))
def test_q_fock_34_creator_norms(q_fock_34, tmp_path, q, argv, want):
    got = creator_norms(q_fock_34[q], tmp_path, *argv)
    assert len(got) == 4 and max(abs(g - w) for g, w in zip(got, want)) <= 1e-12


def test_the_torus_gives_a_real_and_a_complex_probe_the_same_norms(q_fock_34, tmp_path):
    c = creator_norms(q_fock_34[0.5], tmp_path, "--x", "0.6,0.8j,0", "--no-creator-map")
    r = creator_norms(q_fock_34[0.5], tmp_path, "--x", "0.6,0.8,0", "--no-creator-map")
    assert len(c) == 4 and c == r


def test_pair_collapse_creator_map_is_exact(tmp_path):
    fam, space, report = tmp_path / "pc.json", tmp_path / "pc-space.json", tmp_path / "pc-bounds.json"
    cli.write_text_atomic(fam, cli.dump_json(cli.family_to_json(boundedness.pair_collapse_family(3))))
    assert run("build", fam, "--out", space) == 0
    assert run("bounds", space, "--x", "1,0,0", "--report", report) == 0
    with open(report) as fh:
        assert json.load(fh)["creator_map_exact"] is True
