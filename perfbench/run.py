"""fockbench benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload dense_levels --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  One
client in one process runs the workload's cases back to back (a closed loop),
pass after pass, for ``--seconds``; every outcome is checked against its
pinned expectation (``cases.py``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of several
fresh-process set-ups: imports, seeded inputs, BLAS warm-up), ``run_s``
(median seconds per pass) and ``peak_rss_mb``.  Both times are scaled to a
reference speed (``ReferenceClock``); the raw wall seconds are printed next to
them.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py``, plus the tracing overhead; it writes the
spans to ``.bench_out/spans-<workload>.jsonl``.  See NOTES.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, fixed before numpy loads: the count never exceeds nproc,
# and a single thread keeps the timings steady on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
WORKLOADS = ("cli_quickstart", "dense_levels", "random_levels", "word_spans")
REF_SECONDS = 0.004  # nominal time of one ReferenceClock.tick()


class ReferenceClock:
    """Scales wall seconds to a fixed reference speed.

    On a shared machine the same pass runs up to a third slower for minutes
    at a time, as neighbours load the cores.  A fixed routine made of the
    kinds of work the workloads do (an interpreter loop, a Python-level
    Gram-Schmidt on small vectors, a JSON round trip, a batched ``einsum``,
    a dense ``eigh`` and a thin ``svd``) slows with it.  ``scale`` divides the
    wall time of the work just done by the mean time of the routine right
    before and right after it, and multiplies by ``REF_SECONDS``: the figure
    reads as seconds on a machine that runs the routine in 4 ms.  The
    routine is benchmark code, so a faster program still shows in full.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        a = gaussian(64, 64)
        self.herm, self.wide = a + a.conj().T, gaussian(30, 225)
        self.vectors, self.small, self.batch = gaussian(20, 225), gaussian(15, 15), gaussian(40, 15, 15)
        self.doc = {"re": rng.standard_normal((24, 24)).tolist()}
        # bound now, so that tracing never wraps them
        self.eigh, self.svd, self.norm, self.einsum = np.linalg.eigh, np.linalg.svd, np.linalg.norm, np.einsum
        ticks = [self.tick() for _ in range(20)]  # also warms the BLAS up
        self.last = statistics.median(ticks[10:])

    def tick(self):
        start = time.perf_counter()
        s = 0
        for i in range(10000):
            s += i * i
        basis = []
        for v in self.vectors:
            for q in basis:
                v = v - (q.conj() @ v) * q
            basis.append(v / self.norm(v))
        json.loads(json.dumps(self.doc))
        self.einsum("ab,rbc->rac", self.small, self.batch)
        self.eigh(self.herm)
        self.svd(self.wide, full_matrices=False)
        return time.perf_counter() - start

    def scale(self, seconds):
        now = self.tick()
        scaled = seconds * REF_SECONDS / ((now + self.last) / 2)
        self.last = now
        return scaled


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready <reference tick>' and exit (times set-up in a fresh process)")
    return p.parse_args(argv)


def setup(workload, seed, workdir):
    """Imports, seeded inputs and a BLAS warm-up: everything before the first case."""
    if not os.path.isfile(os.path.join(SRC, "fockbench", "__init__.py")):
        raise SystemExit(f"perfbench: no fockbench sources under {SRC}")
    sys.path.insert(0, SRC)
    import fockbench

    if not os.path.abspath(fockbench.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported fockbench from {fockbench.__file__}, not {SRC}")
    import cases

    return cases.build(workload, seed, workdir), ReferenceClock()


def run_case(case, ctx):
    """'ok', 'known_defect' or 'failed', with the reasons."""
    try:
        outcome = case.run(ctx)
    except Exception as exc:  # a case that raises is a failed case, reported, not fatal
        return "failed", [f"raised {exc!r}"]
    problems = case.expect(outcome)
    if not problems:
        return "ok", []
    if case.defect is not None and case.defect(outcome):
        return "known_defect", problems
    return "failed", problems


def run_pass(workload_cases, clock, tracer=None):
    """One pass over the cases.

    Returns (wall seconds, seconds at reference speed, per-case (status,
    problems, wall seconds)); the reference routine runs between cases,
    outside the case timings and spans.
    """
    ctx, results, wall, scaled = {}, [], 0.0, 0.0
    for index, case in enumerate(workload_cases):
        t0 = time.perf_counter()
        if tracer is None:
            status, problems = run_case(case, ctx)
        else:
            with tracer.case_span(index, case.name):
                status, problems = run_case(case, ctx)
        seconds = time.perf_counter() - t0
        results.append((status, problems, seconds))
        wall += seconds
        scaled += clock.scale(seconds)
    return wall, scaled, results


def tail(samples):
    """The highest of p50..p99 with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def time_setups(args):
    """Seconds from spawning a fresh interpreter to its 'ready', median of SETUP_REPEATS.

    Returns (median at reference speed, raw wall samples); each child reports
    its reference tick, which scales its own sample.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline().split()
            raw.append(time.perf_counter() - t0)
            child.stdout.read()
            rc = child.wait(timeout=120)
        if rc != 0 or len(line) != 2 or line[0] != "ready":
            raise SystemExit(f"perfbench: set-up in a fresh process failed (exit {rc}, said {line!r})")
        scaled.append(raw[-1] * REF_SECONDS / float(line[1]))
    return statistics.median(scaled), raw


def report(args, workload_cases, passes, own_setup):
    """Human-readable lines: environment, per-case times and verdicts, error rate."""
    import numpy as np
    import scipy

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"env: nproc {len(os.sched_getaffinity(0))}  blas_threads {BLAS_THREADS}  numpy {np.__version__}  "
          f"scipy {scipy.__version__}  python {platform.python_version()}  {platform.machine()}")
    print(f"in-process set-up {own_setup:.3f} s wall  passes {len(passes)}")
    for index, case in enumerate(workload_cases):
        times = [p[2][index][2] for p in passes]
        statuses = sorted({p[2][index][0] for p in passes})
        print(f"  {case.name:42s} {statistics.median(times) * 1e3:10.1f} ms wall  {'/'.join(statuses)}")
        for status, problems, _ in {p[2][index][0]: p[2][index] for p in passes}.values():
            if status != "ok":
                print(f"    {status}: {'; '.join(problems)}")
    results = [r for p in passes for r in p[2]]
    failed = sum(r[0] == "failed" for r in results)
    defects = sum(r[0] == "known_defect" for r in results)
    print(f"error_rate {(failed + defects) / len(results):.4f}  ({failed} failed + {defects} known defect "
          f"of {len(results)} case runs)")
    return len(results), failed


def main(argv=None):
    args = parse_args(argv)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    workload_cases, clock = setup(args.workload, args.seed, workdir)
    own_setup = time.perf_counter() - T_START
    if args.setup_only:
        print(f"ready {clock.last!r}", flush=True)
        return 0
    import tracing

    os.makedirs(workdir, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, per_pass, coverage = [], [], [], []
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or not plain or (tracer and not traced):
            if tracer is not None and len(traced) < len(plain):
                first, tracer.contains_calls = len(tracer.spans), 0
                with tracer.installed():
                    traced.append(run_pass(workload_cases, clock, tracer))
                levels = [c.levels for c in workload_cases]
                per_pass.append(tracing.pass_metrics(tracer.spans, first, levels, tracer.contains_calls))
                coverage.append(tracing.case_coverage(tracer.spans, first))
            else:
                plain.append(run_pass(workload_cases, clock))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = report(args, workload_cases, plain + traced, own_setup)
    wall = [p[0] for p in plain]
    run_times = [p[1] for p in plain]
    tail_value = tail(run_times)
    print(f"run_s median {statistics.median(run_times):.4f} s at reference speed over n={len(run_times)} passes; "
          + (f"p{tail_value[0]} {tail_value[1]:.4f} s" if tail_value else "no percentile above the median "
             "has ten samples beyond it (n < 20)"))
    print(f"  wall seconds per pass: median {statistics.median(wall):.4f}, all {' '.join(f'{t:.3f}' for t in wall)}")
    correct = failed == 0
    if tracer is None:
        setup_s, raw = time_setups(args)
        print(f"setup_s median {setup_s:.4f} s at reference speed; wall {' '.join(f'{s:.3f}' for s in raw)}")
        print(f"peak_rss_mb {peak_rss_mb:.1f}")
        metrics = {"setup_s": (setup_s, "s"), "run_s": (statistics.median(run_times), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        layer, unsteady = tracing.summarize(per_pass)
        traced_s = statistics.median(p[1] for p in traced)
        overhead = traced_s - statistics.median(run_times)
        traced_wall = statistics.median(p[0] for p in traced)
        print(f"traced run_s {traced_s:.4f} s over n={len(traced)}; tracing overhead {overhead:+.4f} s")
        attributed = sum(v for k, v in layer.items()
                         if k.endswith("_s") and not k.startswith(("linalg.decomp_s.", "trace.")))
        print(f"layer self times {attributed:.4f} s + unattributed {layer['trace.unattributed_s']:.4f} s "
              f"of traced pass {traced_wall:.4f} s wall (medians over passes); per case, wall and the share "
              "the layers account for:")
        for index, case in enumerate(workload_cases):
            case_wall = statistics.median(c[index][0] for c in coverage)
            claimed = statistics.median(1 - c[index][1] / c[index][0] for c in coverage)
            print(f"  {case.name:42s} {case_wall * 1e3:10.1f} ms  {claimed:7.2%}")
        for name, unit in tracing.per_layer_metric_names():
            print(f"  {name:40s} {layer[name]!r} {unit}")
        if unsteady:
            print(f"counts differ between passes: {unsteady}")
            correct = False
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.jsonl"), [c.name for c in workload_cases])
        units = dict(tracing.per_layer_metric_names())
        metrics = {name: (layer[name], units[name]) for name in units}
        metrics["trace.overhead_s"] = (overhead, "s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
