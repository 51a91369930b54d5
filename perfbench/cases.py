"""The four fockbench workloads: their cases and pinned expectations.

A case runs one step a user takes (a CLI command, or one family's trip
through the library pipeline) and returns its outcome; ``expect`` lists every
way the outcome differs from what the theory, or a value recorded from the
program, says it must be.  Everything random comes from the workload seed:
the program only ever sees the generated seeds, rank profiles and probe
vectors.

Imported only after ``run.py`` has put the checkout's ``src`` first on
``sys.path`` and pinned the BLAS thread count.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fockbench import boundedness, cli, deformations, interacting, opalg, subproduct
from fockbench.tensor_core import TruncatedFockSpace

RESIDUAL_TOL = 1e-8  # the CLI's default residual tolerance
ORACLE_TOL = 1e-8  # agreement with closed-form values


@dataclass(frozen=True)
class Case:
    """One step of a workload.

    ``run(ctx)`` calls the program and returns the outcome; ``ctx`` carries
    values between the cases of one pass.  ``expect(outcome)`` returns the
    list of mismatches against the pinned expectations.  ``levels`` lists the
    ``(d, N)`` of every family whose levels the case processes; it is the
    denominator of ``linalg.decomps_per_level``.  ``defect(outcome)`` is set
    on cases that record a known defect: it recognises the defect's recorded
    signature, so a fix (outcome matches theory) and a new wrong answer
    (neither) are both told apart from it.
    """

    name: str
    run: Callable[[dict], dict]
    expect: Callable[[dict], list]
    levels: tuple = ()
    defect: Callable[[dict], bool] | None = None


# ---------------------------------------------------------------------------
# closed-form values


def q_number(m: int, q: float) -> float:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    return sum(q**k for k in range(m))


def qfock_creator_norms(q: float, d: int, N: int) -> list:
    """||a*(x)|| on level n for a unit x, n = 0..N-1.

    For 0 <= q < 1 it is sqrt([n+1]_q).  For -1 < q < 0 and d >= 2 it is 1:
    a(x)a*(x) = 1 + q a*(x)a(x) is at most 1, with equality on y^(x)n, y
    orthogonal to x.
    """
    if q >= 0:
        return [math.sqrt(q_number(n + 1, q)) for n in range(N)]
    if d < 2:
        raise ValueError("closed form for q < 0 needs d >= 2")
    return [1.0] * N


def monotone_creator_norms(x, N: int) -> list:
    """||a*(x)|| on level n of the discrete-monotone family.

    Level n keeps the strictly decreasing tuples; e_i (x) v survives only for
    i above v's first index, which is at least n - 1.  The norm is the tail
    norm sqrt(sum_{i >= n} |x_i|^2).
    """
    w = np.abs(np.asarray(x)) ** 2
    return [math.sqrt(float(w[n:].sum())) for n in range(N)]


def unit_probe(rng, d: int) -> np.ndarray:
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return x / np.linalg.norm(x)


def cli_vector(x) -> str:
    return ",".join(f"{complex(v).real!r}{complex(v).imag:+.17g}j" for v in x)


def mismatch(label, got, want, tol=ORACLE_TOL) -> list:
    """[] when got equals want entrywise within tol (relative to max(1, |want|))."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, want {len(want)}"]
    worst = max((abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want)), default=0.0)
    return [] if worst <= tol else [f"{label}: {got} != {want} (worst {worst:.3e})"]


def verify_problems(checks: dict) -> list:
    bad = [k for k, v in checks.items() if not isinstance(v, bool) and v > RESIDUAL_TOL]
    bad += [k for k, v in checks.items() if isinstance(v, bool) and not v]
    return [f"verify_space fails {bad}: {checks}"] if bad else []


# ---------------------------------------------------------------------------
# cli_quickstart


def _cli_cases(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    x7, x2 = unit_probe(rng, 2), unit_probe(rng, 2)
    blocks_seed, rescale_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
    q = 0.5

    def path(name):
        return os.path.join(workdir, name)

    def command(argv, report=None):
        def run(ctx):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                out = {"rc": cli.main(argv), "stderr": err.getvalue()}
            if report is not None and out["rc"] in (0, 1):
                with open(path(report)) as fh:
                    out["doc"] = json.load(fh)
            return out

        return run

    def exit_code(want, more=None):
        def expect(o):
            if o["rc"] != want:
                return [f"exit code {o['rc']}, want {want}: {o['stderr'].strip()}"]
            if want == 2 and not o["stderr"].startswith("fockbench: "):
                return [f"usage error without a message: {o['stderr']!r}"]
            return more(o.get("doc")) if more else []

        return expect

    def report_ok(doc):
        return [] if doc.get("ok") is True else [f"verdict not ok: {doc}"]

    def full_rank(doc):
        return report_ok(doc) + mismatch("kernel_dims", doc["kernel_dims"], [0] * 8, tol=0)

    def norms(want):
        return lambda doc: mismatch("creator_norms", doc["creator_norms"], want)

    def creator_map(doc):
        out = mismatch("creator_map", doc["creator_map"], qfock_creator_norms(q, 2, 2))
        return out + ([] if doc["creator_map_exact"] else ["creator_map_exact is false"])

    # mod_* fill the degree +1 blocks (sum r_n r_{n+1}), alg_word and alg_all
    # the degree 0 blocks (sum r_n^2); alg_alt's rank is recorded at seed.
    span_ranks = {"mod_alt": 10, "alg_alt": 5, "mod_word": 10, "alg_word": 21, "mod_all": 10, "alg_all": 21}

    def opalg_ranks(doc):
        return [] if doc["ranks"] == span_ranks else [f"span ranks {doc['ranks']}, want {span_ranks}"]

    def nested_point(doc):
        if doc["ok"] is not False or max(doc["squeezing_side"]) > 1e-10:
            return [f"want squeezing side to pass and the certificate to fail: {doc}"]
        return [] if max(doc["kernel_side"]) > 1e-10 else ["kernel side passes"]

    def jacobi(want):
        return lambda doc: report_ok(doc) + mismatch("k", doc["k"], want, tol=1e-9)

    def harmonic(doc):
        k = np.arange(1, 501, dtype=float)
        want = (1 / k).sum() / math.sqrt((1 / k**2).sum())
        return report_ok(doc) + mismatch("final_ratio", [doc["final_ratio"]], [want], tol=1e-12)

    def rescaling(doc):
        want = (1 - 4.0**-50) / 3
        return report_ok(doc) + mismatch("certified_bound", [doc["certified_bound"]], [want], tol=1e-15)

    fam7, space7, fam2, space2 = path("fam7.json"), path("space7.json"), path("fam2.json"), path("space2.json")
    q_args = ["--kind", "q", "--q", str(q), "-d", "2"]
    steps = [
        ("deform_q_d2_N7", ["deform", *q_args, "-N", "7", "--out", fam7], None, exit_code(0), ((2, 7),)),
        ("validate_d2_N7", ["validate", fam7, "--report", path("validate.json")], "validate.json",
         exit_code(0, full_rank), ((2, 7),)),
        ("build_d2_N7", ["build", fam7, "--out", space7], None, exit_code(0), ((2, 7),)),
        ("verify_d2_N7", ["verify", space7, "--report", path("verify.json")], "verify.json",
         exit_code(0, report_ok), ((2, 7),)),
        ("bounds_d2_N7", ["bounds", space7, f"--x={cli_vector(x7)}", "--no-creator-map",
                          "--report", path("bounds7.json")], "bounds7.json",
         exit_code(0, norms(qfock_creator_norms(q, 2, 7))), ((2, 7),)),
        ("deform_q_d2_N2", ["deform", *q_args, "-N", "2", "--out", fam2], None, exit_code(0), ((2, 2),)),
        ("build_d2_N2", ["build", fam2, "--out", space2], None, exit_code(0), ((2, 2),)),
        ("bounds_creator_map_d2_N2", ["bounds", space2, f"--x={cli_vector(x2)}",
                                      "--report", path("bounds2.json")], "bounds2.json",
         exit_code(0, creator_map), ((2, 2),)),
        ("opalg_d2_N2", ["opalg", space2, "--report", path("opalg.json")], "opalg.json",
         exit_code(0, opalg_ranks), ((2, 2),)),
        ("subproduct_certify_symmetric_d3_N5",
         ["subproduct", "certify", "--builtin", "symmetric", "-d", "3", "-N", "5",
          "--report", path("certify.json")], "certify.json", exit_code(0, report_ok), ((3, 5),)),
        ("subproduct_build_symmetric_d3_N5",
         ["subproduct", "build", "--builtin", "symmetric", "-d", "3", "-N", "5",
          "--out", path("sym.json")], None, exit_code(0), ((3, 5),)),
        ("verify_symmetric_d3_N5", ["verify", path("sym.json"), "--report", path("verify_sym.json")],
         "verify_sym.json", exit_code(0, report_ok), ((3, 5),)),
        ("subproduct_certify_nested_point_d3_N3",
         ["subproduct", "certify", "--builtin", "nested-point", "-d", "3", "-N", "3",
          "--report", path("nested.json")], "nested.json", exit_code(1, nested_point), ((3, 3),)),
        ("onemode_gaussian", ["onemode", "--moments", "1,0,1,0,3,0,15,0,105",
                              "--report", path("gauss.json")], "gauss.json", exit_code(0, jacobi([1, 2, 3, 4])), ()),
        ("onemode_semicircle", ["onemode", "--moments", "1,0,1,0,2,0,5,0,14",
                                "--report", path("semi.json")], "semi.json", exit_code(0, jacobi([1, 1, 1, 1])), ()),
        ("demo_blocks", ["demo", "blocks", "--seed", str(blocks_seed), "--report", path("blocks.json")],
         "blocks.json", exit_code(0, report_ok), ()),
        ("demo_squeezing", ["demo", "squeezing", "--report", path("squeezing.json")], "squeezing.json",
         exit_code(0, harmonic), ()),
        ("demo_rescaling", ["demo", "rescaling", "--basis", "50", "--seed", str(rescale_seed),
                            "--report", path("rescaling.json")], "rescaling.json", exit_code(0, rescaling), ()),
        ("usage_missing_file", ["validate", path("absent.json"), "--report", path("absent_report.json")],
         None, exit_code(2), ()),
        ("usage_q_out_of_range", ["deform", "--kind", "q", "--q", "1.5", "-d", "2", "-N", "2",
                                  "--out", path("bad.json")], None, exit_code(2), ()),
    ]
    return [Case(name, command(argv, report), expect, levels) for name, argv, report, expect, levels in steps]


# ---------------------------------------------------------------------------
# dense_levels


def _pipeline_case(name, make_family, d, N, want_ranks, want_norms, x):
    """validate -> build -> squeezing_of -> verify_space -> level_constants -> two_sided_test."""

    def run(ctx):
        family = make_family()
        report = deformations.validate(family)
        space = interacting.build(family)
        interacting.squeezing_of(space)
        bounds = boundedness.level_constants(space, x, with_creator_map=False)
        return {
            "validate_ok": report.ok,
            "ranks": space.ranks,
            "verify": interacting.verify_space(space),
            "creator_norms": bounds.creator_norms,
            "two_sided": subproduct.two_sided_test(space)["exists"],
        }

    def expect(o):
        out = [] if o["validate_ok"] else ["validate rejects the family"]
        out += mismatch("ranks", o["ranks"], want_ranks, tol=0)
        out += verify_problems(o["verify"])
        out += mismatch("creator_norms", o["creator_norms"], want_norms)
        return out + ([] if o["two_sided"] else ["two-sided test fails"])

    return Case(name, run, expect, ((d, N),))


def _qfock_defect_case(name, q, N, defect):
    """q-Fock at |q| < 1 is strictly positive (Bozejko-Speicher 1991): rank 2^n."""
    space = TruncatedFockSpace(d=2, N=N)

    def run(ctx):
        family = deformations.q_fock_recursive(space, q)
        try:
            built = interacting.build(family)
        except ValueError as exc:
            return {"build_error": str(exc)}
        return {"ranks": built.ranks, "verify": interacting.verify_space(built)}

    def expect(o):
        if "build_error" in o:
            return [f"build rejects a positive family: {o['build_error']}"]
        return mismatch("ranks", o["ranks"], [2**n for n in range(N + 1)], tol=0) + verify_problems(o["verify"])

    return Case(name, run, expect, ((2, N),), defect)


def _truncated_but_verified(o):
    """Recorded at seed: top rank 231 of 256, and verify_space passes it."""
    return "ranks" in o and o["ranks"][-1] < 2 ** (len(o["ranks"]) - 1) and not verify_problems(o["verify"])


def _false_kernel_rejection(o):
    """Recorded at seed: build raises 'kernel condition violated' (residual 1.9e-6)."""
    return "kernel condition violated" in o.get("build_error", "")


def _symmetric_case(d, N):
    ranks = [math.comb(n + d - 1, n) for n in range(N + 1)]

    def run(ctx):
        family = subproduct.symmetric_projections(d, N)
        cert = subproduct.certify(family)
        space, _, deviation = subproduct.pi_space(family)
        return {"cert": cert.to_dict(), "family_ranks": family.ranks, "ranks": space.ranks,
                "deviation": deviation}

    def expect(o):
        c = o["cert"]
        out = [] if c["ok"] else [f"certificate fails: {c}"]
        out += mismatch("coisometry/associativity", [c["coisometry"], c["associativity"]], [0, 0], tol=1e-9)
        out += mismatch("projection ranks", o["family_ranks"], ranks, tol=0)
        out += mismatch("space ranks", o["ranks"], ranks, tol=0)
        return out + mismatch("pi deviation", [o["deviation"]], [0], tol=1e-9)

    return Case(f"symmetric_d{d}_N{N}", run, expect, ((d, N),))


def _dense_cases(seed: int) -> list:
    rng = np.random.default_rng(seed)
    x2, x3, x4 = unit_probe(rng, 2), unit_probe(rng, 3), unit_probe(rng, 4)

    def qfock(d, N, q):
        return lambda: deformations.q_fock_recursive(TruncatedFockSpace(d=d, N=N), q)

    def monotone():
        return deformations.discrete_monotone(TruncatedFockSpace(d=4, N=4))

    return [
        _pipeline_case("qfock_q0.5_d2_N8", qfock(2, 8, 0.5), 2, 8, [2**n for n in range(9)],
                       qfock_creator_norms(0.5, 2, 8), x2),
        _pipeline_case("qfock_q-0.5_d3_N5", qfock(3, 5, -0.5), 3, 5, [3**n for n in range(6)],
                       qfock_creator_norms(-0.5, 3, 5), x3),
        _pipeline_case("monotone_d4_N4", monotone, 4, 4, [math.comb(4, n) for n in range(5)],
                       monotone_creator_norms(x4, 4), x4),
        _symmetric_case(3, 5),
        _qfock_defect_case("known_defect_qfock_q0.95_d2_N8", 0.95, 8, _truncated_but_verified),
        _qfock_defect_case("known_defect_qfock_q0.97_d2_N8", 0.97, 8, _false_kernel_rejection),
    ]


# ---------------------------------------------------------------------------
# random_levels


def _poi_case(d, N, ranks, seed):
    def run(ctx):
        family = interacting.random_poi_family(d, N, seed=seed, ranks=ranks)
        space = interacting.build(family)
        kappa = interacting.squeezing_of(space)
        ok, worst, _ = interacting.is_squeezing(kappa)
        back = interacting.space_from_squeezing(kappa)
        drift = max(float(np.linalg.norm(a - b)) for a, b in zip(back.lam, space.lam))
        return {"ranks": space.ranks, "squeezing_ok": ok, "vanishing": worst, "back_ranks": back.ranks,
                "lam_drift": drift, "verify": interacting.verify_space(back)}

    def expect(o):
        out = mismatch("ranks", o["ranks"], ranks, tol=0) + mismatch("round-trip ranks", o["back_ranks"], ranks, tol=0)
        out += [] if o["squeezing_ok"] else [f"squeezing axioms fail ({o['vanishing']:.3e})"]
        out += mismatch("round-trip lambda drift", [o["lam_drift"]], [0], tol=RESIDUAL_TOL)
        return out + verify_problems(o["verify"])

    return Case(f"poi_d{d}_N{N}", run, expect, ((d, N),) * 2)


def _adjacent_case(d, N, ranks, seed):
    def run(ctx):
        family = subproduct.random_adjacent_family(d, N, ranks=ranks, seed=seed)
        cert = subproduct.certify(family)
        space, _, deviation = subproduct.pi_space(family)
        return {"cert": cert.to_dict(), "ranks": space.ranks, "deviation": deviation}

    def expect(o):
        c = o["cert"]
        out = [] if c["ok"] else [f"certificate fails: {c}"]
        out += mismatch("coisometry/associativity", [c["coisometry"], c["associativity"]], [0, 0], tol=1e-9)
        out += mismatch("space ranks", o["ranks"], ranks, tol=0)
        return out + mismatch("pi deviation", [o["deviation"]], [0], tol=1e-9)

    return Case(f"adjacent_d{d}_N{N}", run, expect, ((d, N),))


def _random_cases(seed: int) -> list:
    s1, s2, s3 = (int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=3))
    # explicit, feasible rank profiles with r_n << d^n: the work per pass
    # does not depend on the seed, only the matrix entries do
    return [
        _poi_case(3, 5, (1, 3, 6, 10, 15, 21), s1),
        _poi_case(2, 8, tuple(range(1, 10)), s2),
        _adjacent_case(2, 8, tuple(range(1, 10)), s3),
    ]


# ---------------------------------------------------------------------------
# word_spans

# Span ranks of q-Fock spaces at q = 0.5.  mod_* fill the degree +1 block
# space (sum r_n r_{n+1}); alg_word and alg_all the degree 0 one (sum r_n^2);
# alg_alt and alg_nc are recorded at seed.
SPAN_RANKS = {
    (2, 3): {"mod_alt": 42, "alg_alt": 21, "mod_nc": 42, "alg_nc": 21,
             "mod_word": 42, "alg_word": 85, "mod_all": 42, "alg_all": 85},
    (3, 2): {"mod_alt": 30, "alg_alt": 10, "mod_nc": 30, "alg_nc": 10,
             "mod_word": 30, "alg_word": 91, "mod_all": 30, "alg_all": 91},
}
# the left actions checked: the alternating algebra and the word algebra on
# the alternating module and on the whole degree +1 block space
ACTIONS = [(b, e) for b in ("alg_alt", "alg_word") for e in ("mod_alt", "mod_all")]
# alternating words never dip below their start, so alt <= nc <= word <= all
CHAINS = [(f"{k}_{a}", f"{k}_{b}") for k in ("mod", "alg") for a, b in (("alt", "nc"), ("nc", "word"), ("word", "all"))]


def _span_cases(d, N, ternary):
    """One space's steps: build and span_build, inclusions, left actions, ternary checks."""
    space_shape, name = TruncatedFockSpace(d=d, N=N), f"spans_d{d}_N{N}"

    def spans(ctx):
        space = interacting.build(deformations.q_fock_recursive(space_shape, 0.5))
        ctx[name] = {w: opalg.span_build(space, w) for w in opalg.SPAN_KINDS}
        return {"ranks": {w: s.rank for w, s in ctx[name].items()},
                "stabilized": all(s.stabilized for s in ctx[name].values())}

    def spans_expect(o):
        want = SPAN_RANKS[(d, N)]
        out = [] if o["ranks"] == want else [f"span ranks {o['ranks']}, want {want}"]
        return out + ([] if o["stabilized"] else ["a span did not stabilize"])

    def inclusions(ctx):
        s = ctx[name]
        return {(a, b): s[b].contains_span(s[a]) for a in s for b in s if a != b}

    def inclusions_expect(o):
        return [f"{a} not in {b}: {o[(a, b)]:.3e}" for a, b in CHAINS if o[(a, b)] > 1e-9]

    def actions(ctx):
        return {(b, e): opalg.check_left_action(ctx[name][b], ctx[name][e]) for b, e in ACTIONS}

    def actions_expect(o):
        # degree 0 times degree +1 stays in degree +1, which mod_all fills;
        # alg_word holds every degree 0 block, the identity among them
        out = [f"{b} on {e} not invariant: {r}" for (b, e), r in o.items()
               if e == "mod_all" and r["invariant"] > 1e-9]
        return out + ([] if o[("alg_word", "mod_all")]["nondegenerate"] else ["alg_word acts degenerately"])

    def ternaries(ctx):
        return {w: opalg.check_ternary(ctx[name][w]) for w in ternary}

    def ternaries_expect(o):
        # mod_alt fills the degree +1 block space, which x y* z never leaves
        return [f"{w} not ternary closed: {v:.3e}" for w, v in o.items() if v > 1e-9]

    steps = [("spans", spans, spans_expect), ("inclusions", inclusions, inclusions_expect),
             ("left_actions", actions, actions_expect)]
    if ternary:
        steps.append(("ternary", ternaries, ternaries_expect))
    levels = ((d, N),)
    return [Case(f"{name}.{step}", run, expect, levels if step == "spans" else ()) for step, run, expect in steps]


def _word_cases(seed: int) -> list:
    # q-Fock spaces are fixed; the seed has nothing to vary here
    return _span_cases(2, 3, ()) + _span_cases(3, 2, ("mod_alt",))


def build(workload: str, seed: int, workdir: str) -> list:
    """The cases of one pass of ``workload``, generated from ``seed``."""
    if workload == "cli_quickstart":
        return _cli_cases(seed, workdir)
    return {"dense_levels": _dense_cases, "random_levels": _random_cases, "word_spans": _word_cases}[workload](seed)
