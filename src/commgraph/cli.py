"""Command-line front end.

Usage:
    commgraph report Z6 [--json out.json] [--export-dot g.dot] [--export-adj g.csv]
    commgraph sweep Z3,Z4,Z6 [--csv out.csv]
    commgraph sweep all-abelian --max-order 9

Exit codes: 0 all checks agree, 2 at least one formula/oracle disagreement,
1 usage, parse or output-file error, a cap above its ceiling, a failed
formula self-check, or a report too large to print.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import abelian, graph, resolving
from . import report as rp


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-cache", action="store_true", help="bypass the report cache")
    parser.add_argument("--skip-oracles", action="store_true", help="report formulas only")
    parser.add_argument(
        "--cache-file",
        metavar="PATH",
        help=f"cache location (default ${rp.CACHE_ENV_VAR} or {rp.DEFAULT_CACHE_PATH})",
    )
    parser.add_argument("--max-detour-vertices", type=int, default=rp.DEFAULT_CAPS.detour)
    parser.add_argument("--max-resolving-vertices", type=int, default=rp.DEFAULT_CAPS.resolving)
    parser.add_argument("--max-chromatic-vertices", type=int, default=rp.DEFAULT_CAPS.chromatic)
    parser.add_argument("--max-graph-vertices", type=int, default=rp.DEFAULT_CAPS.graph)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commgraph",
        description="Commuting-graph invariants of generalized dihedral groups: formulas vs oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="invariant report for one group spec")
    p_report.add_argument("spec", help="group spec, e.g. Z6 or Z2xZ4")
    p_report.add_argument("--json", metavar="PATH", help="write the JSON report to a file")
    p_report.add_argument("--export-dot", metavar="PATH", help="write the commuting graph as DOT")
    p_report.add_argument("--export-adj", metavar="PATH", help="write the adjacency matrix as CSV")
    p_report.add_argument(
        "--timings", action="store_true", help="include per-phase timings (bypasses the cache)"
    )
    _add_common(p_report)

    p_sweep = sub.add_parser("sweep", help="reports for a family of group specs")
    p_sweep.add_argument(
        "family", help="comma-separated specs, or 'all-abelian' with --max-order"
    )
    p_sweep.add_argument("--max-order", type=int, help="bound for the all-abelian family")
    p_sweep.add_argument("--csv", metavar="PATH", help="write sweep rows to a CSV file")
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1; at most the CPU count)"
    )
    _add_common(p_sweep)
    return parser


def _caps(args: argparse.Namespace) -> rp.Caps:
    return rp.Caps(
        detour=args.max_detour_vertices,
        resolving=args.max_resolving_vertices,
        chromatic=args.max_chromatic_vertices,
        graph=args.max_graph_vertices,
    )


def _cmd_report(args: argparse.Namespace) -> int:
    exporting = args.export_dot or args.export_adj
    if exporting:
        # Exports build the whole graph, so they obey the graph cap like the report does.
        group = abelian.parse_group_spec(args.spec)
        cap = min(args.max_graph_vertices, graph.MAX_GRAPH_VERTICES)
        if 2 * group.n > cap:
            print(
                f"error: graph export needs {2 * group.n} vertices, above the graph cap {cap}",
                file=sys.stderr,
            )
            return 1
    report = rp.report_for_spec(
        args.spec,
        caps=_caps(args),
        skip_oracles=args.skip_oracles,
        with_timings=args.timings,
        use_cache=not args.no_cache,
        cache_file=args.cache_file,
    )
    text = json.dumps(report, indent=2)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if exporting:
        if report["abelian"]:
            print("error: graph exports need a non-abelian D(G)", file=sys.stderr)
            return 1
        g = graph.build_commuting_graph(group, "all")
        if args.export_dot:
            with open(args.export_dot, "w", encoding="utf-8") as fh:
                fh.write(graph.to_dot(g))
        if args.export_adj:
            with open(args.export_adj, "w", encoding="utf-8") as fh:
                fh.write(graph.to_adjacency_csv(g))
    return 0 if report["agree_all"] else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.family == "all-abelian":
        if args.max_order is None:
            print("error: all-abelian needs --max-order", file=sys.stderr)
            return 1
        specs = rp.all_abelian_specs(args.max_order)
    else:
        specs = [s for s in args.family.split(",") if s]
        if not specs:
            print("error: empty family", file=sys.stderr)
            return 1
    reports, summary, code = rp.run_sweep(
        specs,
        caps=_caps(args),
        skip_oracles=args.skip_oracles,
        use_cache=not args.no_cache,
        cache_file=args.cache_file,
        jobs=args.jobs,
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(rp.CSV_COLUMNS)
            for rep in reports:
                writer.writerow(rp.report_to_row(rep))
    for line in summary:
        print(line)
    return code


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code 1
        return 0 if exc.code in (0, None) else 1
    for flag, ceiling in (
        ("--max-resolving-vertices", resolving.MAX_RESOLVING_VERTICES),
        ("--max-graph-vertices", graph.MAX_GRAPH_VERTICES),
    ):
        if getattr(args, flag[2:].replace("-", "_")) > ceiling:
            print(f"error: {flag} is above the ceiling {ceiling}", file=sys.stderr)
            return 1
    try:
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_sweep(args)
    except (abelian.GroupSpecError, rp.ReportTooLargeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
