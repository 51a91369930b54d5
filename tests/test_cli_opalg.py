"""The ``opalg`` checks of the README CLI chain, run through ``cli.main`` in a
temporary directory: span ranks and left actions of q-Fock spaces, a
byte-identical rerun on the pair collapse space, and the same report
whichever order ``--which`` lists the kinds in."""

import json

from fockbench import boundedness, cli

KINDS = ("mod_alt", "alg_alt", "mod_nc", "alg_nc", "mod_word", "alg_word", "mod_all", "alg_all")
FORWARD, REVERSE = ",".join(KINDS), ",".join(reversed(KINDS))


def run(*argv):
    return cli.main([str(a) for a in argv])


def load(path):
    with open(path) as fh:
        return json.load(fh)


def space_file(tmp_path, name, *deform):
    """``fockbench deform ... --out name.json`` then ``build`` it to name-space.json."""
    fam, space = tmp_path / f"{name}.json", tmp_path / f"{name}-space.json"
    assert run("deform", *deform, "--out", fam) == 0
    assert run("build", fam, "--out", space) == 0
    return space


def test_monotone_and_anti_fock_spans_in_either_kind_order(tmp_path):
    spaces = {"mono": space_file(tmp_path, "mono", "--kind", "monotone", "-d", 3, "-N", 3),
              "anti": space_file(tmp_path, "anti", "--kind", "q", "--q", -1, "-d", 3, "-N", 3)}
    for f, space in spaces.items():
        assert run("opalg", space, "--which", FORWARD, "--report", tmp_path / f"{f}-fwd.json") == 0
        assert run("opalg", space, "--which", REVERSE, "--report", tmp_path / f"{f}-rev.json") == 0
    want = {"mono": (6, 3, 6, 3, 15, 20, 15, 20), "anti": (15, 19, 15, 19, 15, 20, 15, 20)}
    got = {f: [load(tmp_path / f"{f}-{o}.json") for o in ("fwd", "rev")] for f in want}
    assert not (any(r["ranks"] != dict(zip(KINDS, want[f])) for f in want for r in got[f])
                or any(fwd[k] != rev[k] for fwd, rev in got.values() for k in ("inclusion_residuals", "left_actions")))
    for f in want:
        assert (tmp_path / f"{f}-fwd.json").read_bytes() == (tmp_path / f"{f}-rev.json").read_bytes()


def test_q_fock_32_ranks_and_invariant_actions(tmp_path):
    space = space_file(tmp_path, "q32", "--kind", "q", "--q", 0.5, "-d", 3, "-N", 2)
    assert run("opalg", space, "--which", ",") == 2
    assert run("opalg", space, "--which", "mod_alt,alg_alt,alg_word,mod_all", "--report", tmp_path / "o.json") == 0
    r = load(tmp_path / "o.json")
    assert not (r["ranks"] != {"mod_alt": 30, "alg_alt": 10, "alg_word": 91, "mod_all": 30}
                or not all(a["invariant"] <= 1e-10 for a in r["left_actions"].values()))


def test_q_fock_33_ranks_and_actions(tmp_path):
    space = space_file(tmp_path, "q33", "--kind", "q", "--q", 0.5, "-d", 3, "-N", 3)
    assert run("opalg", space, "--report", tmp_path / "q33-o.json") == 0
    r = load(tmp_path / "q33-o.json")
    a = r["left_actions"]
    assert not (r["ranks"] != {"mod_alt": 273, "alg_alt": 91, "mod_word": 273, "alg_word": 820, "mod_all": 273,
                               "alg_all": 820}
                or len(a) != 9
                or any(v["action_rank"] != (30 if k.startswith("alg_alt on ") else 273) or not v["invariant"] <= 1e-10
                       for k, v in a.items()))
    # the kinds in reverse order give the same report, byte for byte
    assert run("opalg", space, "--which", FORWARD, "--report", tmp_path / "q33-fwd.json") == 0
    assert run("opalg", space, "--which", REVERSE, "--report", tmp_path / "q33-rev.json") == 0
    assert (tmp_path / "q33-fwd.json").read_bytes() == (tmp_path / "q33-rev.json").read_bytes()


def test_pair_collapse_opalg_reruns_byte_identical(tmp_path):
    fam, space = tmp_path / "pc.json", tmp_path / "pc-space.json"
    cli.write_text_atomic(fam, cli.dump_json(cli.family_to_json(boundedness.pair_collapse_family(3))))
    assert run("build", fam, "--out", space) == 0
    assert run("opalg", space, "--report", tmp_path / "pc-o1.json") == 0
    assert run("opalg", space, "--report", tmp_path / "pc-o2.json") == 0
    assert (tmp_path / "pc-o1.json").read_bytes() == (tmp_path / "pc-o2.json").read_bytes()


def test_q_fock_23_spans_in_either_kind_order(tmp_path):
    space = space_file(tmp_path, "q23", "--kind", "q", "--q", 0.5, "-d", 2, "-N", 3)
    assert run("opalg", space, "--which", FORWARD, "--report", tmp_path / "q23-fwd.json") == 0
    assert run("opalg", space, "--which", REVERSE, "--report", tmp_path / "q23-rev.json") == 0
    fwd, rev = (load(tmp_path / f) for f in ("q23-fwd.json", "q23-rev.json"))
    want = {"mod_alt": 42, "alg_alt": 21, "mod_nc": 42, "alg_nc": 21, "mod_word": 42, "alg_word": 85, "mod_all": 42,
            "alg_all": 85}
    assert not (fwd["ranks"] != want or rev["ranks"] != want
                or any(fwd[k].keys() != rev[k].keys() or any(fwd[k][a] != rev[k][a] for a in fwd[k])
                       for k in ("inclusion_residuals", "left_actions"))
                or fwd["left_actions"]["alg_word on mod_all"] != {"invariant": 0.0, "action_rank": 42,
                                                                   "nondegenerate": True})
    assert (tmp_path / "q23-fwd.json").read_bytes() == (tmp_path / "q23-rev.json").read_bytes()
