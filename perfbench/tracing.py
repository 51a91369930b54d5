"""Per-layer tracing from outside the program.

``Tracer.installed()`` wraps the public functions of each fockbench module,
and the ``numpy.linalg`` decompositions they call, in every namespace that
binds them: ``interacting`` holds ``validate`` by from-import and ``cli``
calls its helpers by global name, so patching the defining module alone would
miss those calls.  Each call becomes a span ``{name, start, end, parent,
case}`` kept in memory; ``pass_metrics`` turns the spans of one pass into
self times (a span's duration minus its child spans) and exact counts.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

import numpy as np

from fockbench import opalg

# metric group -> (module, function) pairs whose calls it times
LAYERS = {
    "cli.encode": [("cli", f) for f in ("matrix_to_json", "graded_to_json", "family_to_json", "space_to_json",
                                        "projections_to_json", "dump_json", "emit", "write_text_atomic",
                                        "write_csv")],
    "cli.decode": [("cli", f) for f in ("load_json", "matrix_from_json", "graded_from_json", "family_from_json",
                                        "space_from_json", "projections_from_json")],
    "cli.dispatch": [("cli", "main")],
    "deformations.construct": [("deformations", f) for f in ("q_fock", "q_fock_recursive", "discrete_monotone",
                                                             "identity_family")],
    "deformations.validate": [("deformations", "validate")],
    "interacting.family": [("interacting", "random_poi_family")],
    "interacting.build": [("interacting", "build")],
    "interacting.squeezing": [("interacting", "squeezing_of"), ("interacting", "lambda_from_squeezing")],
    "interacting.verify": [("interacting", "verify_space")],
    "interacting.roundtrip": [("interacting", "is_squeezing"), ("interacting", "space_from_squeezing")],
    "boundedness.level_constants": [("boundedness", "level_constants")],
    "boundedness.creator_map": [("boundedness", "creator_map_constant")],
    "boundedness.demos": [("boundedness", f) for f in ("demo_bounded_L_unbounded_creators",
                                                       "demo_bounded_creators_unbounded_L",
                                                       "demo_unbounded_squeezing", "rescale_functional")],
    "subproduct.family": [("subproduct", f) for f in ("random_adjacent_family", "symmetric_projections",
                                                      "nested_point_projections", "identity_projections")],
    "subproduct.certify": [("subproduct", "certify"), ("subproduct", "product_maps")],
    "subproduct.pi_space": [("subproduct", "pi_space")],
    "subproduct.two_sided": [("subproduct", "two_sided_test")],
    "opalg.span_build": [("opalg", "span_build")],
    "opalg.ternary": [("opalg", "check_ternary")],
    "opalg.left_action": [("opalg", "check_left_action")],
    "opalg.inclusion": [("opalg", "OperatorSpan.contains_span")],
}
DECOMPOSITIONS = ("eigh", "eigvalsh", "svd", "pinv", "norm2")
SIZE_BUCKETS = (("lt32", 0, 32), ("32to127", 32, 128), ("ge128", 128, None))
LEVEL_MIN = 32  # smallest level dimension that counts for linalg.decomps_per_level
CASE = "case"  # root span of a case: benchmark glue plus program code no layer claims


def per_layer_metric_names() -> list:
    """Every metric ``pass_metrics`` reports, in output order, with its unit."""
    out = [(f"{g}_s", "s") for g in LAYERS]
    out += [("cli.bytes_written", "bytes"), ("boundedness.creator_map_norm_calls", "count"),
            ("opalg.contains_calls", "count")]
    for op in DECOMPOSITIONS:
        out.append((f"linalg.{op}_calls", "count"))
        out += [(f"linalg.{op}_calls.{b}", "count") for b, _, _ in SIZE_BUCKETS]
    out.append(("linalg.decomp_s", "s"))
    out += [(f"linalg.decomp_s.{b}", "s") for b, _, _ in SIZE_BUCKETS]
    out += [("linalg.decomps_per_level", "ratio"), ("linalg.flops_est", "flop"),
            ("trace.unattributed_s", "s")]
    return out


def bucket(side: int) -> str:
    for name, lo, hi in SIZE_BUCKETS:
        if side >= lo and (hi is None or side < hi):
            return name
    raise AssertionError(side)


def flops(op: str, shape, is_complex: bool, full: bool, uv: bool) -> float:
    """Golub-Van Loan operation counts from the input shape, complex x4.

    Computed, not measured: the count an LAPACK driver of that kind needs.
    """
    m, n = max(shape), min(shape)
    if op == "eigh":
        f = 9.0 * n**3
    elif op == "eigvalsh":
        f = 4.0 * n**3 / 3
    elif op == "norm2" or (op == "svd" and not uv):
        f = 4.0 * m * n**2 - 4.0 * n**3 / 3
    elif op == "svd" and full:
        f = 4.0 * m**2 * n + 8.0 * m * n**2 + 9.0 * n**3
    elif op == "svd":
        f = 14.0 * m * n**2 + 8.0 * n**3
    else:  # pinv: thin SVD, then the product V diag(1/s) U*
        f = 16.0 * m * n**2 + 8.0 * n**3
    return f * (4 if is_complex else 1)


class Tracer:
    """Spans of wrapped calls, recorded while ``installed()`` is active.

    A span is ``(name, start, end, parent, case, meta)``: ``parent`` is the
    index of the enclosing span (-1 for a case root), ``case`` the index of
    the case in its workload, ``meta`` the input shape of a decomposition or
    the length of a written text.
    """

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.case = -1
        self.contains_calls = 0

    def _open(self, name, meta, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (name, start, end, self.stack[-1], self.case, meta)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._open(name, None, fn, args, kwargs)

        return traced

    def _wrap_write(self, fn, name):
        @functools.wraps(fn)
        def traced(path, text):
            return self._open(name, len(text), fn, (path, text), {})

        return traced

    def _wrap_decomposition(self, fn, op):
        name = f"numpy.linalg.{fn.__name__}"

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            full = uv = True
            if op == "norm2":
                order = args[0] if args else kwargs.get("ord")
                if order != 2 or np.ndim(a) != 2:
                    return fn(a, *args, **kwargs)
            elif op == "svd":
                full = kwargs.get("full_matrices", args[0] if args else True)
                uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
            meta = (op, np.shape(a)[-2:], np.iscomplexobj(a), bool(full), bool(uv))
            return self._open(name, meta, fn, (a, *args), kwargs)

        return traced

    @contextlib.contextmanager
    def case_span(self, index, name):
        self.case = index
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (CASE, start, end, -1, index, name)
            self.case = -1

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of a traced function; restore them on exit."""
        modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                   if name.startswith("fockbench.") and mod is not None}
        wrappers, patched = {}, []
        for targets in LAYERS.values():
            for mod_name, fn_name in targets:
                owner_name, _, attr = fn_name.rpartition(".")
                owner = getattr(modules[mod_name], owner_name) if owner_name else modules[mod_name]
                original = getattr(owner, attr)
                make = self._wrap_write if attr == "write_text_atomic" else self._wrap
                wrapper = make(original, f"{mod_name}.{fn_name}")
                if owner_name:  # a method: every instance finds it on the class
                    patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                else:
                    wrappers[id(original)] = (original, wrapper)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])
        for op in DECOMPOSITIONS:
            attr = "norm" if op == "norm2" else op
            original = getattr(np.linalg, attr)
            patched.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._wrap_decomposition(original, op))
        contains = opalg.OperatorSpan.contains

        def counted(span, *args, **kwargs):
            self.contains_calls += 1
            return contains(span, *args, **kwargs)

        patched.append((opalg.OperatorSpan, "contains", contains))
        opalg.OperatorSpan.contains = counted
        try:
            yield self
        finally:
            for owner, attr, value in reversed(patched):
                setattr(owner, attr, value)

    def write(self, path, case_names):
        """Write the spans as JSON lines ``{name, start, end, parent, case}``."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, case, meta) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name if name != CASE else f"case:{meta}",
                                     "start": start, "end": end, "parent": parent,
                                     "case": case_names[case]}) + "\n")


def self_times(spans, first) -> dict:
    """Span index -> its duration minus the durations of its direct children."""
    own = {sid: spans[sid][2] - spans[sid][1] for sid in range(first, len(spans))}
    for sid in range(first, len(spans)):
        _, start, end, parent, _, _ = spans[sid]
        if parent >= 0:
            own[parent] -= end - start
    return own


def case_coverage(spans, first) -> dict:
    """Case index -> (wall seconds, seconds no layer claims) over ``spans[first:]``."""
    own = self_times(spans, first)
    return {spans[sid][4]: (spans[sid][2] - spans[sid][1], own[sid])
            for sid in range(first, len(spans)) if spans[sid][0] == CASE}


GROUP_OF = {f"{m}.{f}": g for g, targets in LAYERS.items() for m, f in targets}


def pass_metrics(spans, first, case_levels, contains_calls) -> dict:
    """Per-layer metrics of the spans ``spans[first:]`` (one pass).

    ``case_levels[i]`` is the ``levels`` tuple of case i.  A level of
    dimension d**n >= LEVEL_MIN counts as processed once per family listed;
    a decomposition is level-sized when its largest side is the dimension of
    such a level of its case.  Smaller levels (and the creator-map norms on
    them) are interpreter-bound and left out of the ratio.
    """
    out = {name: 0 for name, _ in per_layer_metric_names()}
    own = self_times(spans, first)
    dims = [[d**n for d, N in levels_i for n in range(1, N + 1) if d**n >= LEVEL_MIN] for levels_i in case_levels]
    sizes, levels, level_sized = [set(x) for x in dims], sum(map(len, dims)), 0
    for sid in range(first, len(spans)):
        name, start, end, parent, case, meta = spans[sid]
        self_time = own[sid]
        if name == CASE:
            out["trace.unattributed_s"] += self_time
        elif name.startswith("numpy.linalg."):
            op, shape, is_complex, full, uv = meta
            side = max(shape) if shape else 0
            b = bucket(side)
            out[f"linalg.{op}_calls"] += 1
            out[f"linalg.{op}_calls.{b}"] += 1
            out["linalg.decomp_s"] += self_time
            out[f"linalg.decomp_s.{b}"] += self_time
            out["linalg.flops_est"] += flops(op, shape, is_complex, full, uv)
            level_sized += side in sizes[case]
            if op == "norm2" and parent >= 0 and spans[parent][0] == "boundedness.creator_map_constant":
                out["boundedness.creator_map_norm_calls"] += 1
        else:
            group = GROUP_OF[name]
            out[f"{group}_s"] += self_time
            if meta is not None:
                out["cli.bytes_written"] += meta
    out["linalg.decomps_per_level"] = level_sized / levels if levels else 0.0
    out["linalg.flops_est"] = int(round(out["linalg.flops_est"]))
    out["opalg.contains_calls"] = contains_calls
    return out


def summarize(per_pass: list) -> tuple:
    """Median of each time over the passes; counts must agree exactly.

    Returns (metrics, names of counts that differ between passes).
    """
    units = dict(per_layer_metric_names())
    metrics, unsteady = {}, []
    for name, unit in units.items():
        values = [p[name] for p in per_pass]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    return metrics, unsteady
