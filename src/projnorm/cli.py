"""Command line front end.

Subcommands:

* ``mesh``       build a partition and write it as JSON
* ``project``    project cellwise data given a mesh file, write a report
* ``norm``       exact operator norm, inverse bound and coupling bound
* ``reproduce``  parameter sweeps demonstrating the norm growth, as CSV

Exit codes: 0 success, 2 invalid parameters or malformed input, 3 solver
failure, 4 a reproduction run finished but its expected property failed.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np
import orjson

from . import counterexample as ce
from . import mesh as meshmod
from . import projection as proj
from .errors import ProjNormError, SolveFailure

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVE = 3
EXIT_CHECK_FAILED = 4

# Top-level keys of a project or norm report, in file order.
_REPORT_KEYS = ("mesh", "nodal_values", "sup_norm", "residual",
                "exact_operator_norm", "ainv_bound", "c0", "prop1_bound")


def _parse_int_list(text):
    """Accept '3', '1..8' (inclusive range, kept lazy) or '1,2,5'; never empty."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return range(lo, hi + 1)
    return _comma_list(text, int)


def _parse_float_list(text):
    """The comma-separated floats of text.  A plain JSON number list is read
    by orjson, which gives the doubles float() gives at a fraction of the
    cost; every other text goes through float().  So does a list with a JSON
    integer in it: orjson reads -0 as the int 0, where float() gives -0.0."""
    try:
        values = orjson.loads(f"[{text}]")
    except ValueError:
        values = []
    if {*map(type, values)} == {float}:
        return values
    return _comma_list(text, float)


def _parse_t_list(text):
    """Distinct values of t: a repeated t would make the limit check fail on
    equal errors, after every row was computed."""
    values = _parse_float_list(text)
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return values


def _comma_list(text, kind):
    """The comma-separated values of text read by kind; never empty."""
    values = [kind(p) for p in text.split(",") if p]
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return values


# A negative number or number list such as "-0.5,0.25".  No option of the
# parser looks like this, but argparse reads any word starting with "-" that
# is not a lone negative number as an option.
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv):
    """Rewrite "--opt -0.5,1" as "--opt=-0.5,1" so argparse takes the value."""
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NEGATIVE_VALUE.match(arg)):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _single(values, name):
    if len(values) != 1:
        raise ProjNormError(f"{name} takes a single value here, got {values}")
    return values[0]


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="projnorm",
        description="L2 projections onto linear splines and their sup-norm "
        "operator norms on simplicial partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="build a partition and write JSON")
    fam = p_mesh.add_subparsers(dest="family", required=True)

    p = fam.add_parser("counterexample2d", help="shrinking-square triangulation")
    p.add_argument("--J", type=int, required=True, help="number of rings")
    p.add_argument("--t", type=float, required=True, help="square shrink factor")
    p.add_argument("-o", "--output", required=True)

    p = fam.add_parser("pyramid", help="pyramid join of the shrinking squares")
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--d", type=int, required=True, help="ambient dimension >= 3")
    p.add_argument("-o", "--output", required=True)

    p = fam.add_parser("uniform", help="uniform n x n square grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = fam.add_parser("interval", help="1D partition from breakpoints")
    p.add_argument("--breakpoints", type=_parse_float_list, required=True,
                   help="comma-separated, strictly increasing")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("project", help="L2-project cellwise data on a mesh")
    p.add_argument("--mesh", required=True, help="mesh JSON file")
    data = p.add_mutually_exclusive_group(required=True)
    data.add_argument("--oscillating", action="store_true",
                      help="ring-alternating +-1 data (labeled meshes only)")
    data.add_argument("--values", type=_parse_float_list,
                      help="comma-separated value per simplex")
    p.add_argument("-o", "--output", required=True, help="report JSON file")

    p = sub.add_parser("norm", help="exact operator norm and bounds")
    p.add_argument("--mesh", required=True, help="mesh JSON file")
    p.add_argument("-o", "--output", help="optional report JSON file")

    p = sub.add_parser("reproduce", help="norm growth sweeps, written as CSV")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--theorem", action="store_true",
                      help="2D growth: sup norm >= 2J for each J")
    what.add_argument("--limit", action="store_true",
                      help="reduced solutions approach the limit solution")
    what.add_argument("--pyramid", action="store_true",
                      help="growth persists for the d >= 3 joins")
    p.add_argument("--J", type=_parse_int_list, required=True,
                   help="single value, range a..b, or comma list")
    p.add_argument("--t", type=_parse_t_list, required=True,
                   help="single value (sweeps) or comma list (--limit)")
    p.add_argument("--d", type=int, help="dimension for --pyramid (default 3)")
    p.add_argument("--with-norms", action="store_true",
                   help="also record exact operator norms and inverse bounds")
    p.add_argument("-o", "--output", required=True, help="CSV file")

    return parser


def _report_value(value):
    # orjson writes inf and nan as null, which marks a key left unset
    if isinstance(value, float) and not math.isfinite(value):
        return {"inf": b"Infinity", "-inf": b"-Infinity"}.get(str(value), b"NaN")
    return meshmod.to_json(value)


def _write_report(report, path):
    """One line per key of _REPORT_KEYS, null where unset, each value compact
    meshmod.to_json bytes: the mesh line is the mesh file, less its newline."""
    lines = (b'"%s":%s' % (key.encode(), _report_value(report.get(key))) for key in _REPORT_KEYS)
    with open(path, "wb") as fh:
        fh.write(b"{\n" + b",\n".join(lines) + b"\n}\n")


def cmd_mesh(args):
    if args.family == "counterexample2d":
        mesh = meshmod.build_counterexample_2d(args.J, args.t)
    elif args.family == "pyramid":
        mesh = meshmod.build_pyramid_partition(args.J, args.t, args.d)
    elif args.family == "uniform":
        mesh = meshmod.build_uniform_square(args.n)
    else:
        mesh = meshmod.build_interval_partition(args.breakpoints)
    meshmod.save_mesh(mesh, args.output)
    print(f"vertices: {mesh.n_vertices}  simplices: {mesh.n_simplices}  dim: {mesh.dim}")
    if mesh.dim == 2:
        amin, amax = meshmod.angle_stats(mesh)
        print(
            f"angles: min {amin:.6f} rad ({math.degrees(amin):.2f} deg)  "
            f"max {amax:.6f} rad ({math.degrees(amax):.2f} deg)"
        )
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_project(args):
    mesh = meshmod.load_mesh(args.mesh)
    if args.oscillating:
        f = ce.oscillating_data(mesh)
    else:
        f = proj.CellwiseConstant(np.asarray(args.values))
    x, residual = proj.solve_with_load(mesh, proj.assemble_load(mesh, f))
    sup = float(np.abs(x).max())
    report = {"mesh": mesh, "nodal_values": x,
              "sup_norm": sup, "residual": residual}
    _write_report(report, args.output)
    print(f"sup_norm: {sup:.12g}  residual: {residual:.3e}")
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_norm(args):
    mesh = meshmod.load_mesh(args.mesh)
    result = proj.exact_operator_norm(mesh)
    norm, witness, bound, c0 = result
    prop1_bound = result.prop1_bound
    print(f"exact_operator_norm: {norm:.12g}  (witness vertex {witness})")
    print(f"ainv_bound: {bound:.12g}")
    print(f"exact <= bound: {norm <= bound + 1e-9}")
    if c0 is not None:
        print(f"c0: {c0:.12g}  prop1_bound: {prop1_bound:.12g}  "
              f"satisfied: {norm <= prop1_bound + 1e-8}")
    if args.output:
        report = {"mesh": mesh, "exact_operator_norm": norm,
                  "ainv_bound": bound, "c0": c0, "prop1_bound": prop1_bound}
        _write_report(report, args.output)
        print(f"wrote {args.output}")
    return EXIT_OK


def cmd_reproduce(args):
    # an option the mode ignores would leave a sweep that looks as asked for
    if args.limit and args.with_norms:
        build_parser().error("--with-norms applies to --theorem and --pyramid, not --limit")
    if args.d is not None and not args.pyramid:
        build_parser().error("--d applies only to --pyramid")
    if args.theorem:
        t = _single(args.t, "--t")
        records = ce.growth_sweep(args.J, t, d=2, with_norms=args.with_norms)
        _write_csv(records, args.output)
        bad = [r for r in records if r.sup_norm < 2 * r.J]
        for r in records:
            print(f"J={r.J}  sup_norm={r.sup_norm:.6f}  (needs >= {2 * r.J})")
        if bad:
            print(f"FAILED: sup norm below 2J for J in {[r.J for r in bad]}",
                  file=sys.stderr)
            return EXIT_CHECK_FAILED
        return EXIT_OK

    if args.limit:
        J = _single(args.J, "--J")
        ts = sorted(args.t, reverse=True)
        records = ce.convergence_study(J, ts)
        _write_csv(records, args.output)
        errs = [r.limit_error for r in records]
        for r in records:
            print(f"t={r.t:g}  sup_norm={r.sup_norm:.6f}  limit_error={r.limit_error:.3e}")
        if any(b >= a for a, b in zip(errs, errs[1:])):
            print("FAILED: limit_error is not strictly decreasing as t decreases",
                  file=sys.stderr)
            return EXIT_CHECK_FAILED
        return EXIT_OK

    # --pyramid
    d = 3 if args.d is None else args.d
    meshmod.check_integer(d, 3, f"pyramid partitions need d >= 3, got {d!r}")
    t = _single(args.t, "--t")
    records = ce.growth_sweep(args.J, t, d=d, with_norms=args.with_norms)
    _write_csv(records, args.output)
    js = np.array([r.J for r in records], dtype=float)
    sups = np.array([r.sup_norm for r in records])
    for r in records:
        print(f"J={r.J}  sup_norm={r.sup_norm:.6f}")
    if len(records) < 2:
        print("FAILED: need at least two J values to measure growth", file=sys.stderr)
        return EXIT_CHECK_FAILED
    slope = float(np.polyfit(js, sups, 1)[0])
    print(f"growth slope: {slope:.6f}")
    if slope <= 0:
        print("FAILED: sup norms do not grow with J", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _write_csv(records, path):
    with open(path, "w") as fh:
        fh.write(ce.sweep_to_csv(records))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(argv))
    handlers = {
        "mesh": cmd_mesh,
        "project": cmd_project,
        "norm": cmd_norm,
        "reproduce": cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except SolveFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    except (ProjNormError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
