"""Command-line interface.

Subcommands share one family spec grammar (families.Spec), e.g. A1:9,8,2
F3:5,8,4  TR:2,6  TA:5,7,4,3  AR:2,2@full  AAR:3,3@full.

Exit codes: 0 pass, 1 verification failure, 2 usage or input error (any
CrossdimerError) or an unreadable file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CrossdimerError
from .families import (
    FAMILY_HEADS, GRID_B, Spec, InvalidParams, assign_cross_weights, grids,
    weight_point,
)
from .harness import (
    SuiteConfig, run_suite, render_svg, conjecture_probe, ConjectureExponents,
)
from .matchcount import count_matchings
from .formulas import factor_small


def _load_config(path):
    if not path:
        return SuiteConfig()
    try:
        with open(path) as fh:
            return SuiteConfig(**json.load(fh))
    except (ValueError, TypeError, InvalidParams) as exc:
        raise InvalidParams(f"{path}: {exc}") from None


def _graph(args):
    """The graph that args.spec names, with the cross weights that
    --weights x,y,z gives, if set."""
    g = Spec.parse(args.spec).graph()
    if args.weights is None:
        return g
    try:
        x, y, z = args.weights.split(",")
        w = weight_point(x, y, z)
    except (ValueError, ZeroDivisionError):
        raise InvalidParams(f"--weights {args.weights}: expected three "
                            f"fractions, as in --weights x,y,z") from None
    return assign_cross_weights(g, w)


def cmd_gen(args):
    g = _graph(args)
    if args.svg:
        render_svg(g, args.svg)
        print(f"wrote {args.svg}", file=sys.stderr)
    print(g.to_json())
    return 0


def cmd_count(args):
    g = _graph(args)
    n = count_matchings(g, method=args.method)
    fac = {}
    if isinstance(n, int) and n > 0:
        f = factor_small(n)
        fac = {"2": f["exp2"], "3": f["exp3"], "5": f["exp5"],
               "11": f["exp11"], "cofactor": str(f["cofactor"])}
    print(json.dumps({"graph_hash": g.graph_hash(), "method": args.method,
                      "count": str(n), "factors": fac}))
    return 0


def cmd_formula(args):
    spec = Spec.parse(args.spec)
    form = spec.closed_form()
    next(grids([spec]))  # refuses what count refuses, before the value
    limit = sys.get_int_max_str_digits()  # it guards parsing, not output
    sys.set_int_max_str_digits(0)
    try:
        print(json.dumps(form.as_dict()))
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def cmd_verify(args):
    cfg = _load_config(args.config)
    rep = run_suite(args.suite, cfg)
    for rec in rep.records:
        print(json.dumps(rec))
    n_fail = len(rep.failures())
    print(f"# suite={rep.name} checks={len(rep.records)} failures={n_fail}",
          file=sys.stderr)
    return 0 if rep.passed else 1


def cmd_probe(args):
    spec = Spec.parse(args.spec)
    if spec.head not in FAMILY_HEADS or spec.lattice not in (None, GRID_B):
        raise InvalidParams("probe expects a family spec on the cross "
                            "lattice, like A1:2,2,0")
    try:
        points = [tuple(int(t) for t in tok.split(","))
                  for tok in args.points.split(";")]
    except ValueError:
        raise InvalidParams(f"--points {args.points}: expected integer "
                            f"triples x,y,z separated by ';'") from None
    vec = conjecture_probe(spec.head[0], int(spec.head[1]), *spec.nums,
                           points)
    if isinstance(vec, ConjectureExponents):
        print(json.dumps({"consistent": True, "exponents": vars(vec)}))
        return 0
    print(json.dumps({"consistent": False, "residues": vec.residues}))
    return 1


def main(argv=None):
    ap = argparse.ArgumentParser(prog="crossdimer",
                                 description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="build a graph, print canonical JSON")
    p.add_argument("spec")
    p.add_argument("--svg", help="also write an SVG drawing")
    p.add_argument("--weights", help="x,y,z to draw with cross weights")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("count", help="exact matching count")
    p.add_argument("spec")
    p.add_argument("--method", choices=("fkt", "brute", "auto"),
                   default="auto")
    p.add_argument("--weights", help="x,y,z to count with cross weights")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("formula", help="closed-form value for a family spec")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_formula)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite")
    p.add_argument("--config", help="JSON file with SuiteConfig overrides")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("probe", help="weighted conjecture probe")
    p.add_argument("spec")
    p.add_argument("--points", required=True,
                   help="semicolon-separated x,y,z triples")
    p.set_defaults(fn=cmd_probe)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except CrossdimerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
