"""Command-line frontend.

Commands: delta, gens, check, classify, search, repro, scan-conjecture.
Graph arguments accept a JSON file ({"n": ..., "edges": [[i, j], ...]}),
an inline family spec ("cycle:8", "path:7", "star_whisker:3,2",
"template:c5star"), or "fixture:NAME" for a registered fixture's graph.
Exit codes: 0 success/pass, 2 property failure or counterexample found,
1 usage or input error or a failing fixture in repro.
Each command returns (exit code, JSON value, text lines), and main prints
one result per command: the JSON value under --json, else the lines.
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
    if os.path.basename(arg) != arg or arg.endswith(".json"):
        raise GraphError(f"graph file {arg!r} does not exist")
    if arg.startswith("fixture:"):
        return fixtures.graph_of(fixtures.get(arg.split(":", 1)[1]))
    return from_spec(arg)


def _generators(args):
    """W(c, G) for a gens or check command: the graph, an engine under
    --budget, and the caps, in that order."""
    engine = PowerEngine(_resolve_graph(args.graph), args.budget)
    return engine.generators(parse_caps(args.caps))


def _cmd_delta(args):
    engine = PowerEngine(_resolve_graph(args.graph), args.budget)
    value = engine.delta(parse_caps(args.caps))
    return 0, {"delta": value}, [str(value)]


def _cmd_gens(args):
    gens = _generators(args)
    lines = [f"delta = {gens.delta}, {len(gens)} generators"]
    lines += [f"  {format_monomial(vec)}  {list(vec)}" for vec in gens.ordered]
    return 0, gens.to_json(), lines


_CHECKS = {
    "exchange": check_exchange,
    "symmetric": check_symmetric_exchange,
    "strong": check_strong_exchange,
}


def _cmd_check(args):
    gens = _generators(args)
    if args.property == "veronese":
        decomp = detect_veronese(gens)
        if decomp is None:
            return 2, None, ["none"]
        return 0, decomp.to_json(), [
            f"base={format_monomial(decomp.base)} degree={decomp.degree} "
            f"support={list(decomp.support)} bounds={list(decomp.bounds)}"
        ]
    report = _CHECKS[args.property](gens)
    lines = [f"{args.property}: {'pass' if report.ok else 'fail'}"]
    w = report.witness
    if w is not None:
        lines += [
            f"  u = {format_monomial(w.u)}  {list(w.u)}",
            f"  v = {format_monomial(w.v)}  {list(w.v)}",
            f"  xi = {w.xi}, rho = {w.rho}",
        ]
        if w.missing is not None:
            lines.append(f"  missing = {format_monomial(w.missing)}  {list(w.missing)}")
    return 0 if report.ok else 2, report.to_json(), lines


def _cmd_classify(args):
    value = classify_mod.classify_graph(_resolve_graph(args.graph)).to_json()
    return 0, value, [json.dumps(value)]


def _cmd_search(args):
    g = _resolve_graph(args.graph)
    found = search_sep_counterexample(g, args.cap_max, node_budget=args.budget)
    if found is None:
        return 0, {"counterexample": None}, ["none"]
    caps, report = found
    w = report.witness
    return 2, {"counterexample": list(caps), "report": report.to_json()}, [
        f"counterexample caps = {','.join(map(str, caps))}",
        f"  u = {list(w.u)}, v = {list(w.v)}, xi = {w.xi}, rho = {w.rho}",
    ]


def _cmd_repro(args):
    if args.all and args.fixture:
        raise ValueError(f"repro takes a fixture name or --all, not both (got {args.fixture!r})")
    if args.all:
        todo = list(fixtures.REGISTRY)
    elif args.fixture:
        todo = [fixtures.get(args.fixture)]
    else:
        raise ValueError("repro needs a fixture name or --all")
    results = [fixtures.run_fixture(f, args.budget) for f in todo]
    value = [
        {
            "fixture": r.fixture.name,
            "ok": r.ok,
            "checks": [{"label": l, "ok": ok, "info": i} for l, ok, i in r.checks],
        }
        for r in results
    ]
    lines = []
    for r in results:
        lines.append(f"{r.fixture.name:16s} {'pass' if r.ok else 'FAIL'}  ({len(r.checks)} checks)")
        lines += [f"    FAILED {label}: {info}" for label, ok, info in r.checks if not ok]
    good = sum(r.ok for r in results)
    lines.append(f"{good}/{len(results)} fixtures pass")
    return 0 if good == len(results) else 1, value, lines


def _cmd_scan(args):
    toric.check_unicyclic_scan(args.max_n, args.cap_max, args.m_max)
    graphs = corpus.unicyclic_up_to(args.max_n)
    report = toric.conjecture_scan(graphs, args.cap_max, args.m_max, node_budget=args.budget)
    lines = [
        f"{report.instances} instances over {len(graphs)} unicyclic graphs "
        f"(caps <= {args.cap_max}, fibers through degree {args.m_max})",
        f"strong exchange: {report.strong_pass} pass / {report.strong_fail} fail; "
        f"budget skips: {len(report.budget_skips)}",
    ]
    if report.clean:
        lines.append("clean: every fiber connected")
    else:
        lines.append(f"VIOLATIONS: {len(report.violations)}")
        lines += [f"  {v.to_json()}" for v in report.violations]
    return 0 if report.clean else 2, report.to_json(), lines


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
        code, value, lines = args.func(args)
        # classify has no --json: its one text line is its JSON
        print(json.dumps(value) if getattr(args, "json", False) else "\n".join(lines))
        return code
    except (GraphError, BudgetError, ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc  # unquoted
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
