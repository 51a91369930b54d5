"""Smoke test of the benchmark itself (about two minutes on two cores).

    python3 perfbench/smoke.py

Runs every workload for the shortest run, one pass per mode, in both modes
and checks that the output keeps the contract of ``BENCHMARK.json``; checks
that every exact count repeats across two seeds; breaks one program function
per workload in-process and checks that the pinned expectations catch it;
and checks that the benchmark refuses to run without the program's sources.
Exits 0 when everything holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins the BLAS threads before numpy loads)

# counts that must repeat across seeds; the bytes written depend on how many
# digits the seeded probe vectors print with, so they repeat only per seed
SEED_FREE_UNITS = ("count", "ratio", "flop")


def bench(workload, seed, trace, cwd=ROOT, root=ROOT):
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout


def check_contract(failures):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    counts = {}
    for w in (w["name"] for w in spec["workloads"]):
        for trace, seed in ((0, 1), (1, 1), (1, 2)):
            rc, out = bench(w, seed, trace)
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append(f"{w} trace {trace}: no JSON result (exit {rc})")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if rc != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{w} trace {trace}: exit {rc}, keys {sorted(result)}")
            if got != names[trace]:
                failures.append(f"{w} trace {trace}: metrics {got} differ from BENCHMARK.json {names[trace]}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{w} trace {trace}: correct {result['correct']}, failed {result['failed']}")
            if trace:
                counts[(w, seed)] = {k: v["value"] for k, v in result["metrics"].items()
                                     if v["unit"] in SEED_FREE_UNITS}
        if counts.get((w, 1)) != counts.get((w, 2)):
            a, b = counts.get((w, 1), {}), counts.get((w, 2), {})
            failures.append(f"{w}: counts differ across seeds: "
                            f"{ {k: (a.get(k), b.get(k)) for k in set(a) | set(b) if a.get(k) != b.get(k)} }")


def check_expectations(failures):
    """Each mutation makes one program function give a wrong answer."""
    run.setup("dense_levels", 1, "")  # imports the program from src/
    from fockbench import cli, deformations, interacting, opalg

    def shifted_q(space, q):
        return original(space, q + 0.01)

    mutations = [
        ("cli_quickstart", cli, "_cmd_validate", lambda args: 1),
        ("dense_levels", deformations, "q_fock_recursive", shifted_q),
        ("random_levels", interacting, "random_poi_family",
         lambda d, N, seed, ranks=None: original(d, N, seed, None)),
        ("word_spans", opalg, "check_ternary", lambda span: 1.0),
    ]
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_out"))
    try:
        for workload, module, name, replacement in mutations:
            cases, clock = run.setup(workload, 1, workdir)
            original = getattr(module, name)
            setattr(module, name, replacement)
            try:
                _, _, results = run.run_pass(cases, clock)
            finally:
                setattr(module, name, original)
            if not any(status == "failed" for status, _, _ in results):
                failures.append(f"{workload}: breaking {module.__name__}.{name} went unnoticed")
            _, _, results = run.run_pass(cases, clock)
            bad = [(c.name, r[:2]) for c, r in zip(cases, results) if r[0] == "failed"]
            if bad:
                failures.append(f"{workload}: unbroken program fails {bad}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_refuses_without_sources(failures):
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        rc, out = bench("random_levels", 1, 0, cwd=bare, root=bare)
        if rc == 0 or out.strip():
            failures.append(f"without src/: exit {rc}, printed {out.strip()[-200:]!r}")


def main():
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    failures = []
    for check in (check_refuses_without_sources, check_expectations, check_contract):
        check(failures)
        print(f"{check.__name__}: {'ok' if not failures else 'FAILED'}", flush=True)
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
