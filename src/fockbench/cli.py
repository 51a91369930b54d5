"""Command-line front end: build, validate, certify, demo, report.

JSON is the single interchange format; CSV is available for the growth
tables of the demos.  Matrices are serialized as
``{"rows": r, "cols": c, "re": [[..]], "im": [[..]]}`` and graded families
as objects keyed ``"0" .. "N"``.  A named family (``deform``'s q-Fock,
monotone and identity kinds) is stored as its recipe and holds no matrix:
``{"kind": "deformation_family", "d", "N", "meta": {"kind", "q"?}}``, and
readers rebuild its levels with the constructor the recipe names
(``RECIPES``).  So is a builtin projection family (``subproduct build
--builtin``): its kind is the builtin's name, and ``symmetric`` and
``nested-point`` rebuild through ``subproduct``'s constructors, each a
deformation family L := pi, while ``identity`` is the identity recipe,
whose levels are the builtin's bit for bit.  Any other family stores its
levels as ``L``, or, when factored, its quotient maps as ``factors``
(``subproduct build --random`` or from a file, say); such a file is read
from its matrices, and a ``meta`` beside them is provenance only.  A projection
family made from range bases stores them as ``ranges`` in place of ``pi``.
Readers refuse a matrix entry that is not finite, and read a matrix whose
``im`` entries are all zero as real (float64), so a real family stays real;
a real matrix is still written with its ``im`` lists of zeros.  A zero
imaginary part is written as 0.0, never -0.0.  A space file is the family
file of the space (``d``, ``N``, and its recipe, ``L`` or ``factors``;
``build`` keeps the form of its input) plus the ``rank_tol`` its build used
and the ``ranks`` it got; ``verify``, ``bounds`` and ``opalg`` rebuild the
space from it and refuse a file whose rebuild gives other ranks.  Every
JSON file is rendered by ``dump_json``, byte for byte as
``json.dumps(doc, sort_keys=True, indent=2)`` would render it, but with
each list of floats (a matrix row) written in one join instead of one
encoder call per entry; files are written atomically (temp file plus
rename), so identical flags and seeds give byte-identical files.

``main`` builds its parser on its first call and reuses it for every later
call in the process; the handler of a command, ``_cmd_<command>``, is looked
up by name on each call, so a wrapper installed on it is seen.

Each demo takes only its own flags, and ``subproduct`` refuses a flag its
source would ignore (``--ranks`` and ``--seed`` but with ``--random``, ``-d``
and ``-N`` with a file): a flag that would change nothing is a usage error.

Exit codes: 0 every verdict passed; 1 a mathematical verdict failed (a
result, faithfully reported, e.g. a certification that comes out negative);
2 usage or IO error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import boundedness, deformations, interacting, onemode, opalg, subproduct
from ._linalg import RANK_TOL, dtype_of
from .tensor_core import TruncatedFockSpace

DEFAULT_SEED = 0


# ---------------------------------------------------------------------------
# serialization helpers


def matrix_to_json(a) -> dict:
    a = np.atleast_2d(np.asarray(a, dtype=dtype_of(a)))
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": (a.imag + 0.0).tolist(),  # -0.0 + 0.0 is 0.0: conjugation signs zero imaginary parts
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re, im = np.asarray(obj["re"], dtype=float), np.asarray(obj["im"], dtype=float)
        # re + im, not re: the real part of re + 1j * im, signed zeros included
        mat = re + 1j * im if im.any() else re + im
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    if mat.size == 0 and rows * cols == 0:
        return np.zeros((rows, cols), dtype=mat.dtype)
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


# meta kind of a named family -> (the meta keys it takes, its constructor
# applied to the space and their values); the lambdas look their constructor
# up when called, so a wrapper installed on the module is seen
RECIPES = {
    "q": (("q",), lambda space, q: deformations.q_fock_recursive(space, q)),
    "monotone": ((), lambda space: deformations.discrete_monotone(space)),
    "identity": ((), lambda space: deformations.identity_family(space)),
    # a projection family, the deformation family L := pi (``subproduct build --builtin``)
    "symmetric": ((), lambda space: subproduct.symmetric_projections(space.d, space.N)),
    "nested-point": ((), lambda space: subproduct.nested_point_projections(space.d, space.N)),
}
# ``--builtin`` name -> its constructor in ``subproduct``; each name is also
# the recipe kind that rebuilds it (``identity_projections`` and
# ``identity_family`` give the same levels bit for bit)
BUILTINS = {
    "identity": "identity_projections",
    "symmetric": "symmetric_projections",
    "nested-point": "nested_point_projections",
}


def family_to_json(family) -> dict:
    doc = {"kind": "deformation_family", "d": family.space.d, "N": family.space.N}
    if family.factors is None:
        doc["L"] = graded_to_json(family.L)
    else:
        doc["factors"] = graded_to_json(family.factors)
    return doc


def recipe_to_json(space, meta) -> dict:
    """The file of a named family: its space and its recipe ``meta``, no matrices."""
    return {"kind": "deformation_family", "d": space.d, "N": space.N, "meta": meta}


def recipe_of(doc):
    """The recipe of a family or space file that holds no matrices, else None."""
    return None if "L" in doc or "factors" in doc else doc.get("meta")


def family_from_json(doc) -> deformations.DeformationFamily:
    # every family is judged with the one PSD slack EPS_PSD: a file recording
    # another eps_psd (older files could) is refused, not judged without it
    if float(doc.get("eps_psd", deformations.EPS_PSD)) != deformations.EPS_PSD:
        raise ValueError(f"family file records eps_psd = {doc['eps_psd']}; only {deformations.EPS_PSD} is supported")
    space = TruncatedFockSpace(d=int(doc["d"]), N=int(doc["N"]))
    if "factors" in doc:
        return deformations.DeformationFamily.from_factors(space, graded_from_json(doc["factors"]))
    if "L" in doc:
        return deformations.DeformationFamily(space, graded_from_json(doc["L"]))
    meta = doc.get("meta")
    if not isinstance(meta, dict) or meta.get("kind") not in RECIPES:
        raise ValueError(f"family file holds no L, no factors and no recipe of a kind in {sorted(RECIPES)}")
    params, construct = RECIPES[meta["kind"]]
    if set(meta) != {"kind", *params}:
        raise ValueError(f"a {meta['kind']!r} recipe holds the keys {sorted(['kind', *params])}, not {sorted(meta)}")
    values = [meta[p] for p in params]
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise ValueError(f"a {meta['kind']!r} recipe takes numbers for {list(params)}, got {values}")
    return construct(space, *values)


class RebuildError(ValueError):
    """A well-formed space file whose family fails to rebuild to its recorded ranks."""


def space_to_json(space, recipe=None) -> dict:
    """The family file of the space, as its ``recipe`` when one is given, plus
    the rank tolerance and the ranks of its build."""
    doc = family_to_json(space.family) if recipe is None else recipe_to_json(space.family.space, recipe)
    doc.update(
        kind="interacting_space",
        rank_tol=float(space.rank_tol),
        ranks=[int(r) for r in space.ranks],
    )
    return doc


def space_from_json(doc, residual_tol=deformations.KERNEL_TOL) -> interacting.InteractingSpace:
    """Rebuild a space file's space from its family; refuse other ranks than recorded."""
    if "rank_tol" not in doc or "ranks" not in doc:
        raise ValueError("a family file (no rank_tol/ranks), not a space file: make one with `fockbench build`")
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
    doc = {"kind": "projection_family", "d": family.space.d, "N": family.space.N}
    if family.factors is None:
        doc["pi"] = graded_to_json(family.L)
    else:
        doc["ranges"] = graded_to_json(F.conj().T for F in family.factors)
    return doc


def projections_from_json(doc) -> subproduct.ProjectionFamily:
    space = TruncatedFockSpace(d=int(doc["d"]), N=int(doc["N"]))
    if "ranges" in doc:
        return subproduct.ProjectionFamily.from_ranges(space, graded_from_json(doc["ranges"]))
    return subproduct.ProjectionFamily(space, graded_from_json(doc["pi"]))


def dump_json(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    ``json`` drops to its pure-Python encoder whenever ``indent`` is set, so
    every matrix entry would cost an interpreter call; here a list of floats
    is rendered in one join of ``float.__repr__`` instead.
    """
    return _render(doc, "\n") + "\n"


def _render(obj, newline) -> str:
    """One JSON value of ``dump_json``; ``newline`` is a line break plus the
    current indent."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(json.dumps(key) + ": " + _render(value, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        try:
            body = ("," + inner).join(map(float.__repr__, obj))
        except TypeError:  # not a list of floats only
            body = ("," + inner).join(_render(v, inner) for v in obj)
        else:
            if "n" in body:  # repr spells nan, inf and -inf; json NaN, Infinity, -Infinity
                body = body.replace("nan", "NaN").replace("inf", "Infinity")
        return "[" + inner + body + newline + "]"
    return json.dumps(obj)


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
    """Comma-separated finite floats/complex ('1,0,0.5' or '1+2j,0')."""
    try:
        vals = [complex(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse number list {text!r}: {exc}") from exc
    if not vals:
        raise ValueError("empty number list")
    vals = np.array(vals, dtype=complex)
    if not np.isfinite(vals).all():
        raise ValueError(f"number list {text!r} holds a non-finite entry")
    return vals


def parse_ints(text):
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _positive_float(text) -> float:
    value = float(text)
    if not value > 0:  # refuses nan too
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _finite_nonnegative_float(text) -> float:
    value = float(text)
    if not 0 <= value < np.inf:  # refuses nan too
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text}")
    return value


def _unit_interval_float(text) -> float:
    value = float(text)
    if not 0 < value < 1:  # refuses nan too
        raise argparse.ArgumentTypeError(f"must be positive and below 1, got {text}")
    return value


# ---------------------------------------------------------------------------
# subcommands


def _cmd_deform(args) -> int:
    space = TruncatedFockSpace(d=args.d, N=args.N)
    meta = {"kind": args.kind}
    if args.kind == "q":
        meta["q"] = deformations._check_q(0.0 if args.q is None else args.q)
    elif args.q is not None:
        raise ValueError(f"--q is for deform --kind q, not deform --kind {args.kind}")
    deformations._check_dense(space)  # refused here, not by each reader of the recipe
    emit(recipe_to_json(space, meta), args.out)
    return 0


def _cmd_validate(args) -> int:
    family = family_from_json(load_json(args.family))
    report = deformations.validate(family, rank_tol=args.rank_tol)
    emit(report.to_dict(), args.report)
    return 0 if report.ok else 1


def _cmd_build(args) -> int:
    doc = load_json(args.family)
    family = family_from_json(doc)
    try:
        space = interacting.build(family, rank_tol=args.rank_tol, residual_tol=args.residual_tol)
    except ValueError as exc:
        _err(str(exc))
        return 1
    emit(space_to_json(space, recipe_of(doc)), args.out)
    return 0


def _cmd_verify(args) -> int:
    try:
        space = space_from_json(load_json(args.space), args.residual_tol)
    except RebuildError as exc:
        _err(str(exc))
        return 1
    residuals = {k: float(v) for k, v in interacting.verify_space(space).items()}
    ok = all(v <= args.residual_tol for v in residuals.values())
    emit({"residuals": residuals, "tolerance": args.residual_tol, "ok": ok}, args.report)
    return 0 if ok else 1


def _cmd_onemode(args) -> int:
    raw = parse_scalars(args.moments)
    if np.abs(raw.imag).max() > 0:
        raise ValueError("moments must be real")
    moments = tuple(float(x) for x in raw.real)
    try:
        seq = onemode.MomentSequence(moments)
    except ValueError as exc:
        _err(f"moment sequence rejected: {exc}")
        return 1
    k = onemode.jacobi_from_moments(seq)
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
    space = space_from_json(load_json(args.space), args.residual_tol)
    x = parse_scalars(args.x)
    probe = x if x.imag.any() else x.real  # a real probe takes the real path
    report = boundedness.level_constants(space, probe, with_creator_map=not args.no_creator_map)
    doc = report.to_dict()
    doc["x"] = [repr(complex(v)) for v in x]
    emit(doc, args.report)
    return 0


def _cmd_demo(args) -> int:
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
            args.K, n_probes=args.probes, seed=args.seed
        )
        emit(doc, args.report)
        return 0 if doc["ok"] else 1
    if args.name == "squeezing":
        doc = boundedness.demo_unbounded_squeezing(args.N)
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
    rng = np.random.default_rng(args.seed)
    F = rng.uniform(0.0, args.max_entry, size=(args.basis, args.basis))
    res = boundedness.rescale_functional(F)
    emit(
        {
            "basis": int(args.basis),
            "certified_bound": float(res.certified_bound),
            "norm": float(res.norm),
            "ok": res.ok,
        },
        args.report,
    )
    return 0 if res.ok else 1


def _subproduct_source(args) -> tuple:
    """The projection family the flags name, and its recipe when it is a
    builtin (its space file is then that recipe), else None.  The flags
    name one source: a file, ``--random`` or ``--builtin``; two of them are
    a usage error, not a silent choice, and so is a flag the source would
    ignore.  ``-d`` and ``-N`` default to 2 and 3."""
    given = [name for name, on in (("a projection file", args.projections), ("--random", args.random),
                                   ("--builtin", args.builtin)) if on]
    if len(given) > 1:
        raise ValueError(f"give one projection source, not {' and '.join(given)}")
    if not given:
        raise ValueError("no projection source: give a file, --random, or --builtin")
    for flag, owners in (("-d", "--random and --builtin"), ("-N", "--random and --builtin"),
                         ("--ranks", "--random"), ("--seed", "--random")):
        if getattr(args, flag.lstrip("-")) is not None and given[0] not in owners.split(" and "):
            raise ValueError(f"{flag} is for subproduct {owners}, not {given[0]}")
    if args.projections:
        return projections_from_json(load_json(args.projections)), None
    d, N = 2 if args.d is None else args.d, 3 if args.N is None else args.N
    if args.random:
        ranks = parse_ints(args.ranks) if args.ranks else None
        seed = DEFAULT_SEED if args.seed is None else args.seed
        return subproduct.random_adjacent_family(d, N, ranks=ranks, seed=seed), None
    # looked up when called, so a wrapper installed on the module is seen
    return getattr(subproduct, BUILTINS[args.builtin])(d, N), {"kind": args.builtin}


def _cmd_subproduct(args) -> int:
    family, recipe = _subproduct_source(args)  # bad source = usage error, handled in main
    flag, owner = ("--out", "build") if args.action == "certify" else ("--report", "certify")
    if getattr(args, flag[2:]):
        raise ValueError(f"{flag} is for subproduct {owner}, not subproduct {args.action}")
    if args.save_family:
        write_text_atomic(args.save_family, dump_json(projections_to_json(family)))
    if args.action == "certify":
        cert = subproduct.certify(family, tol=args.rank_tol)
        emit(cert.to_dict(), args.report)
        return 0 if cert.ok else 1
    try:
        space, _, deviation = subproduct.pi_space(family, tol=args.rank_tol)
    except ValueError as exc:
        _err(str(exc))
        return 1
    doc = space_to_json(space, recipe)
    doc["pi_deviation"] = float(deviation)
    emit(doc, args.out)
    return 0


def _cmd_opalg(args) -> int:
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    if not which:
        raise ValueError("--which names no span kind; give one or more of " + ",".join(opalg.SPAN_KINDS))
    space = space_from_json(load_json(args.space), args.residual_tol)
    spans = {w: opalg.span_build(space, w, horizon=args.horizon) for w in which}
    inclusions = {f"{a} in {b}": spans[b].contains_span(spans[a]) for a in which for b in which if a != b}
    # a span of degree 0 acts on each span of nonzero degree
    actions = {f"{b} on {e}": opalg.check_left_action(spans[b], spans[e])
               for b in which for e in which if spans[b].degree == 0 and spans[e].degree != 0}
    emit(
        {
            "horizon": spans[which[0]].horizon,
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

    def common(p, d=False, N=False, rank_tol=False, residual_tol=False):
        if d:
            p.add_argument("-d", type=int, required=True, help="one-particle dimension")
        if N:
            p.add_argument("-N", type=int, required=True, help="truncation level")
        if rank_tol:
            p.add_argument("--rank-tol", dest="rank_tol", type=_unit_interval_float, default=RANK_TOL)
        if residual_tol:
            p.add_argument("--residual-tol", dest="residual_tol", type=_positive_float,
                           default=deformations.KERNEL_TOL)

    p = sub.add_parser("deform", help="generate a deformation family")
    p.add_argument("--kind", choices=("q", "monotone", "identity"), required=True)
    p.add_argument("--q", type=float, help="deformation parameter for --kind q (default 0)")
    p.add_argument("--out", help="output path (default: stdout)")
    common(p, d=True, N=True)

    p = sub.add_parser("validate", help="check a family file (PSD + kernel condition)")
    p.add_argument("family", help="family JSON file")
    p.add_argument("--report", help="report path (default: stdout)")
    common(p, rank_tol=True)

    p = sub.add_parser("build", help="build the quotient space of a family file")
    p.add_argument("family", help="family JSON file")
    p.add_argument("--out", help="space JSON path (default: stdout)")
    common(p, rank_tol=True, residual_tol=True)

    p = sub.add_parser("verify", help="rebuild a space file; report its Gram, isometry and kernel residuals")
    p.add_argument("space", help="space JSON file")
    p.add_argument("--report", help="report path (default: stdout)")
    common(p, residual_tol=True)

    p = sub.add_parser("onemode", help="Jacobi weights from a symmetric moment sequence")
    p.add_argument("--moments", required=True, help="comma-separated moments, m0=1")
    p.add_argument("--report", help="report path (default: stdout)")

    p = sub.add_parser(
        "bounds", help="per-level creator norms (the minimal constants) and the creator-map bracket"
    )
    p.add_argument("space", help="space JSON file")
    p.add_argument("--x", required=True, help="one-particle vector, comma-separated")
    p.add_argument("--no-creator-map", action="store_true", help="skip the sup over unit x")
    p.add_argument("--report", help="report path (default: stdout)")
    common(p, residual_tol=True)

    p = sub.add_parser("demo", help="growth tables and certificates")
    demos = p.add_subparsers(dest="name", metavar="name", required=True)
    # each demo takes only its own flags: one it would ignore is a usage error
    csv_help = "write a CSV growth table; combine with --report to also keep the JSON verdict"
    q = demos.add_parser("grid", help="bounded form, growing creator norm")
    q.add_argument("--grids", default="4,8,40,100,400", help="grid sizes")
    q.add_argument("--csv", help=csv_help)
    q = demos.add_parser("blocks", help="bounded creators, growing form")
    q.add_argument("--K", type=int, default=40, help="number of blocks")
    q.add_argument("--probes", type=int, default=20, help="random probes")
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q = demos.add_parser("squeezing", help="unbounded squeezing ratios")
    q.add_argument("-N", type=int, default=500, help="terms")
    q.add_argument("--csv", help=csv_help)
    q = demos.add_parser("rescaling", help="certified 1/3 bound for a rescaled functional")
    q.add_argument("--basis", type=int, default=50, help="basis size")
    q.add_argument("--max-entry", dest="max_entry", type=_finite_nonnegative_float, default=100.0)
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    for q in demos.choices.values():
        q.add_argument("--report", help="report path (default: stdout)")
        q.set_defaults(subparser=q)

    p = sub.add_parser("subproduct", help="certify projection families, build their spaces")
    p.add_argument("action", choices=("certify", "build"))
    p.add_argument("projections", nargs="?", help="projection-family JSON file")
    p.add_argument("--random", action="store_true", help="random adjacent-intersection family")
    p.add_argument("--builtin", choices=tuple(BUILTINS))
    p.add_argument("-d", type=int, help="one-particle dimension for --random and --builtin (default 2)")
    p.add_argument("-N", type=int, help="truncation level for --random and --builtin (default 3)")
    p.add_argument("--ranks", help="full rank profile 1,d,r2,..,rN for --random")
    p.add_argument("--seed", type=int, help=f"seed for --random (default {DEFAULT_SEED})")
    p.add_argument("--save-family", dest="save_family", help="also write the family JSON here")
    p.add_argument("--report", help="certificate path (default: stdout)")
    p.add_argument("--out", help="space path for build (default: stdout)")
    common(p, rank_tol=True)

    p = sub.add_parser("opalg", help="word-operator spans of a space file")
    p.add_argument("space", help="space JSON file")
    p.add_argument("--which", default="mod_alt,alg_alt,mod_word,alg_word,mod_all,alg_all",
                   help="comma-separated span kinds")
    p.add_argument("--horizon", type=int, default=None, help="max word length (default 2N+2)")
    p.add_argument("--report", help="report path (default: stdout)")
    common(p, residual_tol=True)

    # the parser each command's arguments went through (a demo's own, which
    # overrides demo's), so that it reports what it does not know
    for p in sub.choices.values():
        p.set_defaults(subparser=p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``main`` call (not at import)
    and reused by every later call in the process; parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # refused with the usage line of the command that would ignore them
            getattr(args, "subparser", parser).error("unrecognized arguments: " + " ".join(unknown))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        # looked up when called, so a wrapper installed on a handler is seen
        return int(globals()[f"_cmd_{args.command}"](args))
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
