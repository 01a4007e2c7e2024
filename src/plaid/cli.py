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
from .exactnum import parse_irrational
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
        chain = approximating_sequence(
            target, 100 if args.qmax is None else args.qmax)
        dio = diophantine_check(target, chain)
    else:
        chain = predecessor_chain(EvenRational.parse(args.param))
        dio = None
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
    if dio is not None:
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


def cmd_verify_box(args) -> int:
    r = EvenRational.parse(args.param)
    rep = copying.verify_box_lemma(r)
    payload = {"what": args.what, "param": str(r), "width": rep.width,
               "crossings": rep.crossings, "single_arc": rep.single_arc,
               "barrier": rep.barrier, "ok": rep.ok}
    return report(args, payload, [] if rep.ok else [str(r)])


def cmd_verify_copy(args) -> int:
    r = EvenRational.parse(args.param)
    ok, detail = CHECKS["copy"](r)
    payload = {"what": args.what, "param": str(r), "regime": pair_kind(r),
               "ok": ok, **({"detail": detail} if detail else {})}
    return report(args, payload, [] if ok else [str(r)])


def cmd_verify_tree(args) -> int:
    r = EvenRational.parse(args.param)
    terms = predecessor_chain(r).approximating_terms()
    if args.depth is not None and args.depth < 1:
        raise ValueError(f"--depth must be at least 1, got {args.depth}")
    real = copying.realize_tree(terms, min(args.depth or len(terms), len(terms)))
    payload = {"what": args.what, "param": str(r), "depth": real.depth,
               "terms": [str(t) for t in real.terms],
               "translations": real.translations, "branches": real.branches,
               "etas": real.etas, "vertices": real.vertices, "ok": True}
    return report(args, payload, [])


def cmd_pet_orbit(args) -> int:
    r = EvenRational.parse(args.param)
    res = pet.orbit(r, args.square, max_steps=args.max_steps)
    payload = {"param": str(r), "start": list(res.start),
               "steps": [{"dir": s["dir"], "square": list(s["square"])}
                         for s in res.steps],
               "closed": res.closed, "period": res.period,
               "truncated": res.truncated}
    return report(args, payload, ["truncated"] if res.truncated else [])


_T_SHIFTS = {"P": 0, "P+1": 1, "P-1": -1}  # --t written relative to P = 2p/omega


def cmd_pet_fiber(args) -> int:
    r = EvenRational.parse(args.param)
    shift = _T_SHIFTS.get(args.t.strip().upper())
    rep = pet.reconstruct_fiber_grid(
        r, Fraction(args.t) if shift is None else r.big_p + shift)
    payload = {"param": str(r), "t": str(rep.t_value),
               "points": len(rep.points), "grid_ok": rep.grid_ok,
               "u1_cells": [[str(a), str(b)] for a, b in rep.u1_cells],
               "u2_cells": [[str(a), str(b)] for a, b in rep.u2_cells],
               "labels": rep.labels}
    if args.svg:
        write_text_atomic(args.svg, svgout.render_fiber(rep))
    return report(args, payload, [] if rep.grid_ok else ["grid"])


def cmd_pet_limit(args) -> int:
    rep = pet.limit_experiment(parse_irrational(args.irrational),
                               tuple(int(c) for c in args.prefix),
                               window=args.window, depth=args.depth)
    payload = {"prefix": list(rep.prefix), "window": rep.window,
               "depths": rep.depths, "stable_from": rep.stable_from,
               "anchors": rep.anchors,
               "deltas": [str(d) for d in rep.deltas],
               "cluster_size": len(rep.cluster)}
    return report(args, payload, [] if rep.stable_from is not None
                  else ["no stabilization in range"])


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


def positive_int(text: str) -> int:
    """argparse type of counts and scales: an integer of at least 1."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def square(text: str) -> tuple[int, int]:
    """argparse type of a square a,b: exactly two integers."""
    a, b = map(int, text.split(","))
    return a, b


def build_parser() -> argparse.ArgumentParser:
    """One parser per command and per mode, each declaring exactly the inputs
    its handler reads, so argparse rejects every other option (exit 2)."""
    ap = argparse.ArgumentParser(prog="plaid", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(parent, name, fn, *positionals, svg=False, help=None):
        p = parent.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        p.add_argument("--json", metavar="PATH")
        if svg:
            p.add_argument("--svg", metavar="PATH")
        p.set_defaults(fn=fn)
        return p

    p = command(sub, "chain", cmd_chain,
                help="predecessor chain and identity report")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("param", nargs="?")
    target.add_argument("--irrational", metavar="SPEC",
                        help="quad:(a,b,c,d) or cf:[0;a1,a2,...]")
    p.add_argument("--qmax", type=int, default=None,
                   help="largest denominator of the --irrational chain "
                   "(default 100)")

    command(sub, "lines", cmd_lines, "param", help="capacity and mass tables")

    p = command(sub, "tile", cmd_tile, "param", svg=True,
                help="tiling of one block")
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--scale", type=positive_int, default=16)

    command(sub, "polygon", cmd_polygon, "param",
            help="the distinguished big polygon")
    command(sub, "align", cmd_align, "small", "big",
            help="alignment predicates for a pair")

    modes = sub.add_parser("verify", help="box / copy / tree verification"
                           ).add_subparsers(dest="what", required=True)
    command(modes, "box", cmd_verify_box, "param", help="box lemma")
    command(modes, "copy", cmd_verify_copy, "param",
            help="the applicable copy lemma")
    p = command(modes, "tree", cmd_verify_tree, "param",
                help="nested marked-box realization")
    p.add_argument("--depth", type=int)

    modes = sub.add_parser("pet", help="classifying-space dynamics"
                           ).add_subparsers(dest="what", required=True)
    p = command(modes, "orbit", cmd_pet_orbit, "param", help="curve-following orbit")
    p.add_argument("--square", type=square, default="0,0", help="start square a,b")
    p.add_argument("--max-steps", type=positive_int, default=None)
    p = command(modes, "fiber", cmd_pet_fiber, "param", svg=True,
                help="fiber-grid reconstruction")
    p.add_argument("--t", default="P+1", help="fiber T value: P+1, P-1 or n/d, "
                   "with omega*T an odd integer in [-2*omega, 2*omega); "
                   "write a negative T as --t=-9/7")
    p = command(modes, "limit", cmd_pet_limit,
                help="translated-window stabilization")
    p.add_argument("--irrational", metavar="SPEC", required=True,
                   help="quad:(a,b,c,d)")
    p.add_argument("--prefix", default="0")
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--depth", type=int, default=None)

    p = sub.add_parser("render", help="SVG figures")
    p.add_argument("what", choices=("copy",))
    p.add_argument("param")
    p.add_argument("param2")
    p.add_argument("--scale", type=positive_int, default=16)
    p.add_argument("--svg", required=True)
    p.set_defaults(fn=cmd_render)

    p = command(sub, "sweep", cmd_sweep, help="bulk verification sweeps")
    p.add_argument("--max-omega", type=int, required=True)
    p.add_argument("--checks", default="coherence,box")
    p.add_argument("--filter", default="all",
                   choices=("all", "weak", "strong", "core"))
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: PLAID_WORKERS)")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "chain" and args.param and args.qmax is not None:
        ap.error("chain: --qmax applies to --irrational only")
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
