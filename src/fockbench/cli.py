"""Command-line front end: build, validate, certify, demo, report.

JSON is the single interchange format; CSV is available for the growth
tables of the demos.  Matrices are serialized as
``{"rows": r, "cols": c, "re": [[..]], "im": [[..]]}`` and graded families
as objects keyed ``"0" .. "N"``; a family file also records ``eps_psd``
when the family's differs from the default.  A space file is the family
file of the space (``d``, ``N``, ``L``) plus the ``rank_tol`` its build used and the
``ranks`` it got; ``verify``, ``bounds`` and ``opalg`` rebuild the space from
it and refuse a file whose rebuild gives other ranks.  Reports are written
atomically (temp file plus rename) with sorted keys, so identical flags and
seeds give byte-identical files.

Exit codes: 0 every verdict passed; 1 a mathematical verdict failed (a
result, faithfully reported, e.g. a certification that comes out negative);
2 usage or IO error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import boundedness, deformations, interacting, onemode, opalg, subproduct
from .tensor_core import TruncatedFockSpace

DEFAULT_SEED = 0


# ---------------------------------------------------------------------------
# serialization helpers


def matrix_to_json(a) -> dict:
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        mat = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if mat.size == 0 and rows * cols == 0:
        return np.zeros((rows, cols), dtype=complex)
    mat = np.atleast_2d(mat)
    if mat.shape != (rows, cols):
        raise ValueError(f"matrix data is {mat.shape}, header says {(rows, cols)}")
    return mat


def graded_to_json(mats) -> dict:
    return {str(n): matrix_to_json(m) for n, m in enumerate(mats)}


def graded_from_json(obj) -> tuple:
    keys = sorted(int(k) for k in obj)
    if keys != list(range(len(keys))):
        raise ValueError(f"graded object must be keyed 0..N, got {sorted(obj)}")
    return tuple(matrix_from_json(obj[str(k)]) for k in keys)


# a family file records eps_psd only where it differs from the default, so
# files of default families keep their bytes
_DEFAULT_EPS_PSD = deformations.DeformationFamily.eps_psd


def family_to_json(family, meta=None) -> dict:
    doc = {
        "kind": "deformation_family",
        "d": family.space.d,
        "N": family.space.N,
        "L": graded_to_json(family.L),
    }
    if family.eps_psd != _DEFAULT_EPS_PSD:
        doc["eps_psd"] = float(family.eps_psd)
    if meta:
        doc["meta"] = meta
    return doc


def family_from_json(doc) -> deformations.DeformationFamily:
    space = TruncatedFockSpace(d=int(doc["d"]), N=int(doc["N"]))
    eps_psd = float(doc.get("eps_psd", _DEFAULT_EPS_PSD))
    return deformations.DeformationFamily(space, graded_from_json(doc["L"]), eps_psd=eps_psd)


class RebuildError(ValueError):
    """A well-formed space file whose family fails to rebuild to its recorded ranks."""


def space_to_json(space) -> dict:
    """The family file of the space plus the rank tolerance and the ranks of its build."""
    doc = family_to_json(space.family)
    doc.update(
        kind="interacting_space",
        rank_tol=float(space.rank_tol),
        ranks=[int(r) for r in space.ranks],
    )
    return doc


def space_from_json(doc, residual_tol=1e-8) -> interacting.InteractingSpace:
    """Rebuild a space file's space from its family; refuse other ranks than recorded."""
    family = family_from_json(doc)
    rank_tol, ranks = float(doc["rank_tol"]), [int(r) for r in doc["ranks"]]
    try:
        space = interacting.build(family, rank_tol=rank_tol, residual_tol=residual_tol)
    except ValueError as exc:
        raise RebuildError(str(exc)) from exc
    if list(space.ranks) != ranks:
        raise RebuildError(f"space file records ranks {ranks}, its family rebuilds to {list(space.ranks)}")
    return space


def projections_to_json(family) -> dict:
    return {
        "kind": "projection_family",
        "d": family.space.d,
        "N": family.space.N,
        "pi": graded_to_json(family.pi),
    }


def projections_from_json(doc) -> subproduct.ProjectionFamily:
    space = TruncatedFockSpace(d=int(doc["d"]), N=int(doc["N"]))
    return subproduct.ProjectionFamily(space, graded_from_json(doc["pi"]))


def dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_text_atomic(path, text) -> None:
    path = os.path.abspath(os.fspath(path))
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".fockbench-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def emit(doc, path=None) -> None:
    text = dump_json(doc)
    if path:
        write_text_atomic(path, text)
    else:
        sys.stdout.write(text)


def write_csv(path, fieldnames, rows) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    write_text_atomic(path, buf.getvalue())


def _err(msg) -> None:
    print(f"fockbench: {msg}", file=sys.stderr)


def parse_scalars(text) -> np.ndarray:
    """Comma-separated floats/complex ('1,0,0.5' or '1+2j,0')."""
    try:
        vals = [complex(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse number list {text!r}: {exc}") from exc
    if not vals:
        raise ValueError("empty number list")
    return np.array(vals, dtype=complex)


def parse_ints(text):
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Common knobs shared by the subcommands, with fixed defaults."""

    command: str
    d: int = 0
    N: int = 0
    q: float = 0.0
    seed: int = DEFAULT_SEED
    rank_tol: float = 1e-10
    residual_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_tol", "residual_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _config(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        d=getattr(args, "d", 0) or 0,
        N=getattr(args, "N", 0) or 0,
        q=getattr(args, "q", 0.0) or 0.0,
        seed=getattr(args, "seed", DEFAULT_SEED),
        rank_tol=getattr(args, "rank_tol", 1e-10),
        residual_tol=getattr(args, "residual_tol", 1e-8),
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_deform(args) -> int:
    cfg = _config(args)
    space = TruncatedFockSpace(d=cfg.d, N=cfg.N)
    if args.kind == "q":
        family = deformations.q_fock_recursive(space, cfg.q)
        meta = {"kind": "q", "q": float(cfg.q)}
    elif args.kind == "monotone":
        family = deformations.discrete_monotone(space)
        meta = {"kind": "monotone"}
    else:
        family = deformations.identity_family(space)
        meta = {"kind": "identity"}
    emit(family_to_json(family, meta), args.out)
    return 0


def _cmd_validate(args) -> int:
    cfg = _config(args)
    family = family_from_json(load_json(args.family))
    report = deformations.validate(family, rank_tol=cfg.rank_tol)
    emit(report.to_dict(), args.report)
    return 0 if report.ok else 1


def _cmd_build(args) -> int:
    cfg = _config(args)
    family = family_from_json(load_json(args.family))
    try:
        space = interacting.build(
            family, rank_tol=cfg.rank_tol, residual_tol=cfg.residual_tol
        )
    except ValueError as exc:
        _err(str(exc))
        return 1
    emit(space_to_json(space), args.out)
    return 0


def _cmd_verify(args) -> int:
    cfg = _config(args)
    try:
        space = space_from_json(load_json(args.space), cfg.residual_tol)
    except RebuildError as exc:
        _err(str(exc))
        return 1
    residuals = {k: float(v) for k, v in interacting.verify_space(space).items()}
    ok = all(v <= cfg.residual_tol for v in residuals.values())
    emit({"residuals": residuals, "tolerance": cfg.residual_tol, "ok": ok}, args.report)
    return 0 if ok else 1


def _cmd_onemode(args) -> int:
    raw = parse_scalars(args.moments)
    if np.abs(raw.imag).max() > 0:
        raise ValueError("moments must be real")
    moments = tuple(float(x) for x in raw.real)
    try:
        seq = onemode.MomentSequence(moments)
        k = onemode.jacobi_from_moments(moments)
    except ValueError as exc:
        _err(f"moment sequence rejected: {exc}")
        return 1
    recovered = onemode.vacuum_moments(k, len(moments) - 1)
    resid = float(max(abs(a - b) for a, b in zip(moments, recovered)))
    scale = max(1.0, max(abs(m) for m in moments))
    ok = resid <= 1e-9 * scale
    emit(
        {
            "order": seq.order,
            "k": [float(v) for v in k],
            "round_trip_residual": resid,
            "ok": ok,
        },
        args.report,
    )
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    space = space_from_json(load_json(args.space), _config(args).residual_tol)
    x = parse_scalars(args.x)
    try:
        report = boundedness.level_constants(
            space, x, with_creator_map=not args.no_creator_map
        )
    except ValueError as exc:
        _err(str(exc))
        return 1
    doc = report.to_dict()
    doc["x"] = [repr(complex(v)) for v in x]
    emit(doc, args.report)
    return 0


def _cmd_demo(args) -> int:
    cfg = _config(args)
    if args.name == "grid":
        rows = boundedness.demo_bounded_L_unbounded_creators(parse_ints(args.grids))
        if args.csv:
            write_csv(args.csv, ["m", "ratio", "L_max_eig"], rows)
        growth = rows[-1]["ratio"] / rows[0]["ratio"]
        ok = all(r["L_max_eig"] <= 1 + 1e-12 for r in rows)
        if args.report or not args.csv:
            emit({"rows": rows, "growth_factor": growth, "ok": ok}, args.report)
        return 0 if ok else 1
    if args.name == "blocks":
        doc = boundedness.demo_bounded_creators_unbounded_L(
            args.K, n_probes=args.probes, seed=cfg.seed
        )
        emit(doc, args.report)
        return 0 if doc["ok"] else 1
    if args.name == "squeezing":
        doc = boundedness.demo_unbounded_squeezing(cfg.N)
        doc["ok"] = (
            doc["creator_isometry_residual"] <= 1e-8
            and doc["dense_ratio_residual"] <= 1e-8
        )
        if args.csv:
            write_csv(
                args.csv,
                ["n", "ratio"],
                [{"n": i + 1, "ratio": r} for i, r in enumerate(doc["ratios"])],
            )
        if args.report or not args.csv:
            emit(doc, args.report)
        return 0 if doc["ok"] else 1
    # functional rescaling certificate
    rng = np.random.default_rng(cfg.seed)
    F = rng.uniform(0.0, args.max_entry, size=(args.basis, args.basis))
    res = boundedness.rescale_functional(F, n_samples=args.samples, seed=cfg.seed + 1)
    ok = res.entrywise_ok() and res.empirical_max <= res.certified_bound <= 1 / 3
    emit(
        {
            "basis": int(args.basis),
            "certified_bound": float(res.certified_bound),
            "empirical_max": float(res.empirical_max),
            "n_samples": int(res.n_samples),
            "entrywise_ok": res.entrywise_ok(),
            "ok": ok,
        },
        args.report,
    )
    return 0 if ok else 1


def _subproduct_source(args) -> subproduct.ProjectionFamily:
    cfg = _config(args)
    if args.projections:
        return projections_from_json(load_json(args.projections))
    if args.random:
        ranks = parse_ints(args.ranks) if args.ranks else None
        return subproduct.random_adjacent_family(cfg.d, cfg.N, ranks=ranks, seed=cfg.seed)
    if args.builtin == "identity":
        return subproduct.identity_projections(cfg.d, cfg.N)
    if args.builtin == "symmetric":
        return subproduct.symmetric_projections(cfg.d, cfg.N)
    if args.builtin == "nested-point":
        return subproduct.nested_point_projections(cfg.d, cfg.N)
    raise ValueError("no projection source: give a file, --random, or --builtin")


def _cmd_subproduct(args) -> int:
    cfg = _config(args)
    family = _subproduct_source(args)  # bad source = usage error, handled in main
    if args.save_family:
        write_text_atomic(args.save_family, dump_json(projections_to_json(family)))
    if args.action == "certify":
        cert = subproduct.certify(family, tol=cfg.rank_tol)
        emit(cert.to_dict(), args.report)
        return 0 if cert.ok else 1
    try:
        space, _, deviation = subproduct.pi_space(family, tol=cfg.rank_tol)
    except ValueError as exc:
        _err(str(exc))
        return 1
    doc = space_to_json(space)
    doc["pi_deviation"] = float(deviation)
    emit(doc, args.out)
    return 0


_DEGREE_ZERO = ("alg_alt", "alg_nc", "alg_word", "alg_all")


def _cmd_opalg(args) -> int:
    space = space_from_json(load_json(args.space), _config(args).residual_tol)
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    for w in which:
        if w not in opalg.SPAN_KINDS:
            raise ValueError(f"unknown span kind {w!r}; expected one of {opalg.SPAN_KINDS}")
    spans = {w: opalg.span_build(space, w, horizon=args.horizon) for w in which}
    inclusions = {}
    for a in which:
        for b in which:
            if a != b:
                inclusions[f"{a} in {b}"] = spans[b].contains_span(spans[a])
    actions = {}
    for b in which:
        if b not in _DEGREE_ZERO:
            continue
        for e in which:
            if e in _DEGREE_ZERO:
                continue
            res = opalg.check_left_action(spans[b], spans[e])
            actions[f"{b} on {e}"] = {
                "invariant": res["invariant"],
                "action_rank": res["action_rank"],
                "nondegenerate": res["nondegenerate"],
            }
    emit(
        {
            "horizon": spans[which[0]].horizon if which else args.horizon,
            "ranks": {w: spans[w].rank for w in which},
            "stabilized": {w: spans[w].stabilized for w in which},
            "rank_history": {w: list(spans[w].rank_history) for w in which},
            "inclusion_residuals": inclusions,
            "left_actions": actions,
        },
        args.report,
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockbench",
        description="Graded Fock-space quotients: build, certify, and probe.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, d=False, N=False, seed=False, rank_tol=False, residual_tol=False):
        if d:
            p.add_argument("-d", type=int, required=True, help="one-particle dimension")
        if N:
            p.add_argument("-N", type=int, required=True, help="truncation level")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if rank_tol:
            p.add_argument("--rank-tol", dest="rank_tol", type=float, default=1e-10)
        if residual_tol:
            p.add_argument("--residual-tol", dest="residual_tol", type=float, default=1e-8)

    p = sub.add_parser("deform", help="generate a deformation family")
    p.add_argument("--kind", choices=("q", "monotone", "identity"), required=True)
    p.add_argument("--q", type=float, default=0.0, help="deformation parameter for --kind q")
    p.add_argument("--out", help="output path (default: stdout)")
    common(p, d=True, N=True)
    p.set_defaults(func=_cmd_deform)

    p = sub.add_parser("validate", help="check a family file (PSD + kernel condition)")
    p.add_argument("family", help="family JSON file")
    p.add_argument("--report", help="report path (default: stdout)")
    common(p, rank_tol=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("build", help="build the quotient space of a family file")
    p.add_argument("family", help="family JSON file")
    p.add_argument("--out", help="space JSON path (default: stdout)")
    common(p, rank_tol=True, residual_tol=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="rebuild a space file; report its Gram, isometry and kernel residuals")
    p.add_argument("space", help="space JSON file")
    p.add_argument("--report", help="report path (default: stdout)")
    common(p, residual_tol=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("onemode", help="Jacobi weights from a symmetric moment sequence")
    p.add_argument("--moments", required=True, help="comma-separated moments, m0=1")
    p.add_argument("--report", help="report path (default: stdout)")
    p.set_defaults(func=_cmd_onemode)

    p = sub.add_parser("bounds", help="per-level creator norms and minimal constants")
    p.add_argument("space", help="space JSON file")
    p.add_argument("--x", required=True, help="one-particle vector, comma-separated")
    p.add_argument("--no-creator-map", action="store_true", help="skip the sup over unit x")
    p.add_argument("--report", help="report path (default: stdout)")
    common(p, residual_tol=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("demo", help="growth tables and certificates")
    p.add_argument(
        "name",
        choices=("grid", "blocks", "squeezing", "rescaling"),
        help="grid: bounded form, growing creator norm; blocks: bounded "
        "creators, growing form; squeezing: unbounded squeezing ratios; "
        "rescaling: certified 1/3 bound for a rescaled functional",
    )
    p.add_argument("--grids", default="4,8,40,100,400", help="grid sizes (demo grid)")
    p.add_argument("--K", type=int, default=40, help="number of blocks (demo blocks)")
    p.add_argument("--probes", type=int, default=20, help="random probes (demo blocks)")
    p.add_argument("-N", type=int, default=500, help="terms (demo squeezing)")
    p.add_argument("--basis", type=int, default=50, help="basis size (demo rescaling)")
    p.add_argument("--samples", type=int, default=1000, help="samples (demo rescaling)")
    p.add_argument("--max-entry", dest="max_entry", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--report", help="report path (default: stdout)")
    p.add_argument(
        "--csv",
        help="write a CSV growth table (grid, squeezing); combine with "
        "--report to also keep the JSON verdict",
    )
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("subproduct", help="certify projection families, build their spaces")
    p.add_argument("action", choices=("certify", "build"))
    p.add_argument("projections", nargs="?", help="projection-family JSON file")
    p.add_argument("--random", action="store_true", help="random adjacent-intersection family")
    p.add_argument("--builtin", choices=("identity", "symmetric", "nested-point"))
    p.add_argument("-d", type=int, default=2)
    p.add_argument("-N", type=int, default=3)
    p.add_argument("--ranks", help="rank profile r2,..,rN for --random")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--save-family", dest="save_family", help="also write the family JSON here")
    p.add_argument("--report", help="certificate path (default: stdout)")
    p.add_argument("--out", help="space path for build (default: stdout)")
    p.add_argument("--rank-tol", dest="rank_tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_subproduct)

    p = sub.add_parser("opalg", help="word-operator spans of a space file")
    p.add_argument("space", help="space JSON file")
    p.add_argument("--which", default="mod_alt,alg_alt,mod_word,alg_word,mod_all,alg_all",
                   help="comma-separated span kinds")
    p.add_argument("--horizon", type=int, default=None, help="max word length (default 2N+2)")
    p.add_argument("--report", help="report path (default: stdout)")
    common(p, residual_tol=True)
    p.set_defaults(func=_cmd_opalg)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return int(args.func(args))
    except FileNotFoundError as exc:
        _err(f"no such file: {exc.filename}")
        return 2
    except json.JSONDecodeError as exc:
        _err(f"malformed JSON: {exc}")
        return 2
    except (KeyError, TypeError) as exc:
        _err(f"malformed input: {exc!r}")
        return 2
    except ValueError as exc:
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
