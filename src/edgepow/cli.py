"""Command-line frontend.

Commands: delta, gens, check, classify, search, repro, scan-conjecture.
Graph arguments accept a JSON file ({"n": ..., "edges": [[i, j], ...]}),
an inline family spec ("cycle:8", "path:7", "star_whisker:3,2",
"template:c5star"), or "fixture:NAME" for a registered fixture's graph.
Exit codes: 0 success/pass, 2 property failure or counterexample found,
1 usage or input error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import classify as classify_mod
from . import corpus, fixtures, toric
from .exchange import (
    check_exchange,
    check_strong_exchange,
    check_symmetric_exchange,
    detect_veronese,
    search_sep_counterexample,
)
from .graph import Graph, GraphError, from_spec, load_graph
from .powers import (
    DEFAULT_NODE_BUDGET,
    BudgetError,
    PowerEngine,
    format_monomial,
    parse_caps,
)


def _resolve_graph(arg: str) -> Graph:
    if os.path.exists(arg):
        return load_graph(arg)
    if arg.startswith("fixture:"):
        return fixtures.graph_of(fixtures.get(arg.split(":", 1)[1]))
    return from_spec(arg)


def _cmd_delta(args) -> int:
    g = _resolve_graph(args.graph)
    engine = PowerEngine(g, args.budget)
    value = engine.delta(parse_caps(args.caps))
    if args.json:
        print(json.dumps({"delta": value}))
    else:
        print(value)
    return 0


def _cmd_gens(args) -> int:
    g = _resolve_graph(args.graph)
    engine = PowerEngine(g, args.budget)
    gens = engine.generators(parse_caps(args.caps))
    if args.json:
        print(json.dumps(gens.to_json()))
    else:
        print(f"delta = {gens.delta}, {len(gens)} generators")
        for vec in gens.ordered:
            print(f"  {format_monomial(vec)}  {list(vec)}")
    return 0


_CHECKS = {
    "exchange": check_exchange,
    "symmetric": check_symmetric_exchange,
    "strong": check_strong_exchange,
}


def _cmd_check(args) -> int:
    g = _resolve_graph(args.graph)
    engine = PowerEngine(g, args.budget)
    gens = engine.generators(parse_caps(args.caps))
    if args.property == "veronese":
        decomp = detect_veronese(gens)
        if args.json:
            print(json.dumps(decomp.to_json() if decomp else None))
        elif decomp is None:
            print("none")
        else:
            print(
                f"base={format_monomial(decomp.base)} degree={decomp.degree} "
                f"support={list(decomp.support)} bounds={list(decomp.bounds)}"
            )
        return 0 if decomp is not None else 2
    report = _CHECKS[args.property](gens)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(f"{args.property}: {'pass' if report.ok else 'fail'}")
        if report.witness is not None:
            w = report.witness
            print(f"  u = {format_monomial(w.u)}  {list(w.u)}")
            print(f"  v = {format_monomial(w.v)}  {list(w.v)}")
            print(f"  xi = {w.xi}, rho = {w.rho}")
            if w.missing is not None:
                print(f"  missing = {format_monomial(w.missing)}  {list(w.missing)}")
    return 0 if report.ok else 2


def _cmd_classify(args) -> int:
    g = _resolve_graph(args.graph)
    verdict = classify_mod.classify_graph(g)
    print(json.dumps(verdict.to_json()))
    return 0


def _cmd_search(args) -> int:
    g = _resolve_graph(args.graph)
    found = search_sep_counterexample(g, args.cap_max, node_budget=args.budget)
    if found is None:
        if args.json:
            print(json.dumps({"counterexample": None}))
        else:
            print("none")
        return 0
    caps, report = found
    if args.json:
        print(
            json.dumps(
                {"counterexample": list(caps), "report": report.to_json()}
            )
        )
    else:
        print(f"counterexample caps = {','.join(map(str, caps))}")
        w = report.witness
        print(f"  u = {list(w.u)}, v = {list(w.v)}, xi = {w.xi}, rho = {w.rho}")
    return 2


def _cmd_repro(args) -> int:
    if args.all:
        todo = list(fixtures.REGISTRY)
    elif args.fixture:
        todo = [fixtures.get(args.fixture)]
    else:
        raise ValueError("repro needs a fixture name or --all")
    results = [fixtures.run_fixture(f, args.budget) for f in todo]
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "fixture": r.fixture.name,
                        "ok": r.ok,
                        "checks": [
                            {"label": l, "ok": ok, "info": i}
                            for l, ok, i in r.checks
                        ],
                    }
                    for r in results
                ]
            )
        )
    else:
        for r in results:
            mark = "pass" if r.ok else "FAIL"
            print(f"{r.fixture.name:16s} {mark}  ({len(r.checks)} checks)")
            for label, ok, info in r.checks:
                if not ok:
                    print(f"    FAILED {label}: {info}")
        total = len(results)
        good = sum(1 for r in results if r.ok)
        print(f"{good}/{total} fixtures pass")
    return 0 if all(r.ok for r in results) else 1


def _cmd_scan(args) -> int:
    toric.check_unicyclic_scan(args.max_n, args.cap_max, args.m_max)
    graphs = corpus.unicyclic_up_to(args.max_n)
    report = toric.conjecture_scan(graphs, args.cap_max, args.m_max, node_budget=args.budget)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(
            f"{report.instances} instances over {len(graphs)} unicyclic graphs "
            f"(caps <= {args.cap_max}, fibers through degree {args.m_max})"
        )
        print(
            f"strong exchange: {report.strong_pass} pass / {report.strong_fail} fail; "
            f"budget skips: {len(report.budget_skips)}"
        )
        if report.clean:
            print("clean: every fiber connected")
        else:
            print(f"VIOLATIONS: {len(report.violations)}")
            for v in report.violations:
                print(f"  {v.to_json()}")
    return 0 if report.clean else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="edgepow",
        description=(
            "Bounded top powers of edge ideals: top degree, generators, "
            "exchange properties, classification, and toric fiber checks."
        ),
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_NODE_BUDGET,
        help="search node budget (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", help="top power degree for a cap vector")
    p.add_argument("graph")
    p.add_argument("--caps", required=True, help="comma-separated caps, e.g. 1,2,1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("gens", help="generators of the top bounded power")
    p.add_argument("graph")
    p.add_argument("--caps", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gens)

    p = sub.add_parser("check", help="exchange / Veronese checks")
    p.add_argument("graph")
    p.add_argument("--caps", required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    for name in (*_CHECKS, "veronese"):
        grp.add_argument(f"--{name}", dest="property", action="store_const", const=name)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="graph-level strong exchange verdict")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("search", help="cap-grid counterexample search")
    p.add_argument("graph")
    p.add_argument("--cap-max", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("repro", help="run registered fixtures")
    p.add_argument("fixture", nargs="?", help="fixture name")
    p.add_argument("--all", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_repro)

    p = sub.add_parser(
        "scan-conjecture",
        help="fiber connectivity over all unicyclic graphs up to a size",
    )
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--cap-max", type=int, default=2)
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_scan)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # usage errors return 1: argparse's 2 means "counterexample found" here
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (GraphError, BudgetError, ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc  # unquoted
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
