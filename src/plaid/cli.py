"""Command-line front end: reports, renders, and verification sweeps.

Exit codes: 0 all requested checks pass, 1 a check failed (counterexample in
the JSON report), 2 usage error.  JSON files are written atomically and the
output is deterministic for a fixed tool version, apart from the timestamp
field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .checks import CHECKS, even_rationals, run_sweep
from .exactnum import QuadraticTarget, parse_irrational
from .numtheory import (EvenRational, approximating_sequence, diophantine_check,
                        kappa, pair_kind, predecessor_chain, tune, verify_omnibus)
from .grid import cap_scaled, mass_scaled
from .tiling import big_polygon, build_tiling, trace_polygons
from . import copying, pet, svgout


def write_json_atomic(path: str, payload: dict):
    payload = {"tool": "plaid", "version": __version__,
               "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
               **payload}
    write_text_atomic(path, json.dumps(payload, indent=2, default=str) + "\n")


def write_text_atomic(path: str, text: str):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def report(args, payload: dict, failures: list) -> int:
    """Write the report to --json or print it; exit code 1 on any failure."""
    payload["failures"] = failures
    if args.json:
        write_json_atomic(args.json, payload)
    else:
        print(json.dumps(payload, indent=2, default=str))
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_chain(args) -> int:
    if args.irrational:
        target = parse_irrational(args.irrational)
        chain = approximating_sequence(target, args.qmax)
    else:
        if not args.param:
            print("error: chain needs a parameter or --irrational", file=sys.stderr)
            return 2
        chain = predecessor_chain(EvenRational.parse(args.param))
    terms = []
    for i, term in enumerate(chain.terms):
        row = {"p": term.p, "q": term.q}
        if not term.is_zero:
            t = tune(term)
            row.update(omega=term.omega, tau=t.tau, sign=t.sign_choice,
                       kappa=kappa(term).kappa)
        row["kind"] = chain.term_class(i)
        terms.append(row)
    payload = {"terms": terms}
    failures = []
    per_term = {}
    for term in chain.terms:
        if term.p > 1:
            rep = verify_omnibus(term)
            per_term[str(term)] = dict(sorted(rep.statements.items()))
            if rep.statement8 is not None:
                per_term[str(term)]["s8"] = rep.statement8
            if not rep.all_ok:
                failures.append(str(term))
    target_term = str(chain.terms[-1])
    payload["omnibus"] = per_term.get(target_term, {})
    payload["omnibus_chain"] = per_term
    if args.irrational and isinstance(target, QuadraticTarget):
        dio = diophantine_check(target, chain)
        payload["diophantine"] = [
            {"p": e["p"], "q": e["q"], "class": e["class"],
             "bound_ok": e["bound_ok"]} for e in dio.entries]
        if not dio.all_ok:
            failures.append("diophantine")
    payload["approximating"] = [str(t) for t in chain.approximating_terms()]
    return report(args, payload, failures)


def cmd_lines(args) -> int:
    r = EvenRational.parse(args.param)
    caps = [{"n": n, "capacity": abs(cap_scaled(r, n)),
             "sign": (cap_scaled(r, n) > 0) - (cap_scaled(r, n) < 0)}
            for n in range(r.omega)]
    masses = []
    for j in range(r.omega):
        m = mass_scaled(r, j)
        inert = abs(m) == r.omega
        masses.append({"intercept": j, "mass": abs(m),
                       "sign": 0 if inert else (m > 0) - (m < 0),
                       "inert": inert})
    payload = {"param": str(r), "omega": r.omega, "tau": tune(r).tau,
               "kappa": kappa(r).kappa, "capacities": caps, "masses": masses}
    if args.json:
        write_json_atomic(args.json, payload)
    else:
        print(json.dumps(payload, indent=2))
    return 0


def cmd_tile(args) -> int:
    r = EvenRational.parse(args.param)
    om = r.omega
    block = args.block
    tiling = build_tiling(r, block * om, (block + 1) * om, 0, om)
    loops = trace_polygons(tiling)
    payload = {
        "param": str(r),
        "region": [block * om, (block + 1) * om, 0, om],
        "tiles": [[a, b, tiling.tile_name(a, b)]
                  for a, b in tiling.nonempty_squares()],
        "polygons": [{
            "id": i,
            "vertices": [[a, b] for a, b in loop.squares],
            "closed": loop.closed,
            "x_diameter": str(loop.x_diameter()),
            "anchors": [[str(x), y] for x, y in loop.anchors(column=block * om)],
        } for i, loop in enumerate(loops)],
    }
    if args.json:
        write_json_atomic(args.json, payload)
    if args.svg:
        write_text_atomic(args.svg, svgout.render_tiling(tiling, scale=args.scale))
    if not args.json and not args.svg:
        print(json.dumps(payload, indent=2))
    return 0


def cmd_polygon(args) -> int:
    r = EvenRational.parse(args.param)
    gamma = big_polygon(r)
    payload = {
        "param": str(r),
        "length": len(gamma),
        "x_diameter": str(gamma.x_diameter()),
        "x_diameter_bound": str(Fraction(r.omega ** 2, 2 * r.q) - 1),
        "anchors": [[str(x), y] for x, y in gamma.anchors()],
        "vertices": [[a, b] for a, b in gamma.squares],
    }
    if args.json:
        write_json_atomic(args.json, payload)
    else:
        print(json.dumps({k: v for k, v in payload.items() if k != "vertices"},
                         indent=2))
    return 0


def cmd_align(args) -> int:
    r_small = EvenRational.parse(args.small)
    r_big = EvenRational.parse(args.big)
    case, rep, audit = copying.align(r_small, r_big)
    failures = []
    payload = {
        "pair": [str(r_small), str(r_big)],
        "case": case,
        "arithmetic": rep.arithmetic,
        "geometric": rep.geometric,
        "weak_horizontal": rep.weak_horizontal,
        "specials_harmless": rep.specials_harmless,
        "matching": rep.predicates_hold,
        "tiles_equal": rep.tiles_equal,
        "exceptions": rep.exceptions,
    }
    if audit is not None:
        payload["audit"] = {"case": audit.case, **audit.checks,
                            "exceptions": audit.exceptions}
        if not audit.all_ok:
            failures.append("audit")
    if not (rep.predicates_hold and rep.tiles_equal and rep.consistent):
        failures.append("matching")
    return report(args, payload, failures)


def cmd_verify(args) -> int:
    failures = []
    payload = {"what": args.what}
    r = EvenRational.parse(args.param)
    if args.what == "box":
        rep = copying.verify_box_lemma(r)
        payload.update(param=str(r), width=rep.width, crossings=rep.crossings,
                       single_arc=rep.single_arc, barrier=rep.barrier,
                       ok=rep.ok)
        if not rep.ok:
            failures.append(str(r))
    elif args.what == "copy":
        ok, detail = CHECKS["copy"](r)
        payload.update(param=str(r), regime=pair_kind(r), ok=ok,
                       **({"detail": detail} if detail else {}))
        if not ok:
            failures.append(str(r))
    elif args.what == "tree":
        chain = predecessor_chain(r)
        terms = chain.approximating_terms()
        if args.depth is not None and args.depth < 1:
            raise ValueError(f"--depth must be at least 1, got {args.depth}")
        real = copying.realize_tree(terms, min(args.depth or len(terms), len(terms)))
        payload.update(param=str(r), depth=real.depth,
                       terms=[str(t) for t in real.terms],
                       translations=real.translations,
                       branches=real.branches, etas=real.etas,
                       vertices=len(real.boxes), ok=True)
    return report(args, payload, failures)


def cmd_pet(args) -> int:
    failures = []
    if args.svg and args.what != "fiber":
        print(f"error: pet {args.what} writes no SVG; --svg is for pet fiber",
              file=sys.stderr)
        return 2
    if args.what != "limit":
        if not args.param:
            print(f"error: pet {args.what} needs a parameter", file=sys.stderr)
            return 2
        r = EvenRational.parse(args.param)
    if args.what == "orbit":
        square = tuple(int(t) for t in args.square.split(","))
        res = pet.orbit(r, square, max_steps=args.max_steps)
        payload = {"param": str(r), "start": list(res.start),
                   "steps": [{"dir": s["dir"], "square": list(s["square"])}
                             for s in res.steps],
                   "closed": res.closed, "period": res.period,
                   "truncated": res.truncated}
        if res.truncated:
            failures.append("truncated")
    elif args.what == "fiber":
        t_value = _parse_t_value(args.t, r)
        rep = pet.reconstruct_fiber_grid(r, t_value)
        payload = {"param": str(r), "t": str(rep.t_value),
                   "points": len(rep.points), "grid_ok": rep.grid_ok,
                   "u1_cells": [[str(a), str(b)] for a, b in rep.u1_cells],
                   "u2_cells": [[str(a), str(b)] for a, b in rep.u2_cells],
                   "labels": rep.labels}
        if not rep.grid_ok:
            failures.append("grid")
        if args.svg:
            write_text_atomic(args.svg, svgout.render_fiber(rep))
    else:  # limit
        if not args.irrational:
            print("error: pet limit needs --irrational", file=sys.stderr)
            return 2
        target = parse_irrational(args.irrational)
        if not isinstance(target, QuadraticTarget):
            print("error: translation-length decay needs an exact quadratic "
                  "target (quad:(a,b,c,d))", file=sys.stderr)
            return 2
        prefix = tuple(int(c) for c in args.prefix)
        rep = pet.limit_experiment(target, prefix, window=args.window,
                                   depth=args.depth)
        payload = {"prefix": list(rep.prefix), "window": rep.window,
                   "depths": rep.depths, "stable_from": rep.stable_from,
                   "anchors": rep.anchors,
                   "deltas": [str(d) for d in rep.deltas],
                   "cluster_size": len(rep.cluster)}
        if rep.stable_from is None:
            failures.append("no stabilization in range")
    return report(args, payload, failures)


def _parse_t_value(text: str, r: EvenRational):
    P = r.big_p
    if text.strip() in ("P", "p"):
        return P
    if text.strip() in ("P+1", "p+1"):
        return P + 1
    if text.strip() in ("P-1", "p-1"):
        return P - 1
    return Fraction(text)


def cmd_render(args) -> int:
    r0 = EvenRational.parse(args.param)
    r1 = EvenRational.parse(args.param2)
    rep = copying.verify_copy_theorem(r0, r1)
    if rep.translation is None:
        print("error: no copy translation found", file=sys.stderr)
        return 1
    write_text_atomic(args.svg, svgout.render_copy_overlay(
        r0, r1, rep.translation, scale=args.scale))
    return 0


def cmd_sweep(args) -> int:
    checks = args.checks.split(",") if args.checks else ["coherence", "box"]
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        print(f"error: unknown checks {unknown}; available: {sorted(CHECKS)}",
              file=sys.stderr)
        return 2
    params = list(even_rationals(args.max_omega, regime=args.filter))
    started = time.monotonic()
    res = run_sweep(params, checks, workers=args.workers)
    payload = {"max_omega": args.max_omega, "checks": checks,
               "filter": args.filter, "n_parameters": len(params),
               "elapsed_s": round(time.monotonic() - started, 3),
               "failures": res["failures"], "results": res["results"]}
    if args.json:
        write_json_atomic(args.json, payload)
    else:
        print(json.dumps({k: payload[k] for k in
                          ("max_omega", "checks", "n_parameters", "failures")},
                         indent=2))
    return 0 if not res["failures"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="plaid", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, svg=True):
        p.add_argument("--json", metavar="PATH")
        if svg:
            p.add_argument("--svg", metavar="PATH")

    p = sub.add_parser("chain", help="predecessor chain and identity report")
    p.add_argument("param", nargs="?")
    p.add_argument("--irrational", metavar="SPEC",
                   help="quad:(a,b,c,d) or cf:[0;a1,a2,...]")
    p.add_argument("--qmax", type=int, default=100)
    common(p, svg=False)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("lines", help="capacity and mass tables")
    p.add_argument("param")
    common(p, svg=False)
    p.set_defaults(fn=cmd_lines)

    p = sub.add_parser("tile", help="tiling of one block")
    p.add_argument("param")
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--scale", type=int, default=16)
    common(p)
    p.set_defaults(fn=cmd_tile)

    p = sub.add_parser("polygon", help="the distinguished big polygon")
    p.add_argument("param")
    common(p, svg=False)
    p.set_defaults(fn=cmd_polygon)

    p = sub.add_parser("align", help="alignment predicates for a pair")
    p.add_argument("small")
    p.add_argument("big")
    common(p, svg=False)
    p.set_defaults(fn=cmd_align)

    p = sub.add_parser("verify", help="box / copy / tree verification")
    p.add_argument("what", choices=("box", "copy", "tree"))
    p.add_argument("param")
    p.add_argument("--depth", type=int)
    common(p, svg=False)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("pet", help="classifying-space dynamics")
    p.add_argument("what", choices=("orbit", "fiber", "limit"))
    p.add_argument("param", nargs="?")
    p.add_argument("--square", default="0,0", help="start square a,b")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--t", default="P+1", help="fiber T value (P, P+1, P-1 or n/d)")
    p.add_argument("--irrational", metavar="SPEC")
    p.add_argument("--prefix", default="0")
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--depth", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_pet)

    p = sub.add_parser("render", help="SVG figures")
    p.add_argument("what", choices=("copy",))
    p.add_argument("param")
    p.add_argument("param2")
    p.add_argument("--scale", type=int, default=16)
    p.add_argument("--svg", required=True)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("sweep", help="bulk verification sweeps")
    p.add_argument("--max-omega", type=int, required=True)
    p.add_argument("--checks", default="coherence,box")
    p.add_argument("--filter", default="all",
                   choices=("all", "weak", "strong", "core"))
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: PLAID_WORKERS)")
    common(p, svg=False)
    p.set_defaults(fn=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
