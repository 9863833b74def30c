"""Command-line front end.

Usage:
    commgraph report Z6 [--json out.json] [--export-dot g.dot] [--export-adj g.csv]
    commgraph sweep Z3,Z4,Z6 [--csv out.csv]
    commgraph sweep all-abelian --max-order 9

The --max-<field>-vertices caps pick the graphs a report checks, and one ceiling,
graph.MAX_GRAPH_VERTICES, bounds all three.

Exit codes: 0 all checks agree, 2 at least one formula/oracle disagreement, 1 usage,
parse or output-file error, a cache file that cannot be read or written, a cap out of
range, --jobs below 1, --max-order without all-abelian, too many all-abelian rows, a
failed formula self-check, or a report too large to print.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import TextIO

from . import abelian, graph
from . import report as rp

DEFAULT_CACHE_PATH = ".commgraph-cache.jsonl"
CACHE_ENV_VAR = "COMMGRAPH_CACHE"
_JSON_BATCH_CHARS = 1 << 16


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-cache", action="store_true", help="bypass the report cache")
    parser.add_argument("--skip-oracles", action="store_true", help="report formulas only")
    parser.add_argument(
        "--cache-file",
        metavar="PATH",
        help=f"cache location (default ${CACHE_ENV_VAR} or {DEFAULT_CACHE_PATH})",
    )
    for name, default in rp.Caps._field_defaults.items():
        parser.add_argument(f"--max-{name}-vertices", type=int, default=default)


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
    p_sweep.add_argument("--jobs", type=int, default=1, help="accepted, but has no effect")
    _add_common(p_sweep)
    return parser


def _write_json(report: dict, fh: TextIO) -> None:
    """Write json.dumps(report, indent=2) and a newline to fh, in writes of about 64 KiB.

    The text is never held whole: at the top of the order range it runs to tens of MB.
    The tokens are batched because an unbuffered stdout makes each write a system call.
    """
    batch: list[str] = []
    size = 0
    for chunk in json.JSONEncoder(indent=2).iterencode(report):
        batch.append(chunk)
        size += len(chunk)
        if size >= _JSON_BATCH_CHARS:
            fh.write("".join(batch))
            batch.clear()
            size = 0
    batch.append("\n")
    fh.write("".join(batch))


def _cmd_report(args: argparse.Namespace, caps: rp.Caps, cache_file: str | None) -> int:
    exporting = args.export_dot or args.export_adj
    if exporting:
        # Exports build the whole graph, so they obey the --max-graph-vertices flag, which
        # run() has already held to graph.MAX_GRAPH_VERTICES; --skip-oracles drops only the
        # report's measured graph. Both refusals come before the report, so a refused
        # export prints nothing else.
        group = abelian.parse_group_spec(args.spec)
        cap = args.max_graph_vertices
        if 2 * group.n > cap:
            print(
                f"error: graph export needs {2 * group.n} vertices, above the graph cap {cap}",
                file=sys.stderr,
            )
            return 1
        if group.is_elementary_abelian_2():
            print("error: graph exports need a non-abelian D(G)", file=sys.stderr)
            return 1
    report = rp.report_for_spec(args.spec.strip(), caps, args.timings, cache_file)
    if exporting:
        # Written before the report is printed, so an export that cannot be written
        # leaves stdout empty.
        g = graph.build_commuting_graph(group, "all")
        if args.export_dot:
            with open(args.export_dot, "w", encoding="utf-8") as fh:
                graph.write_dot(g, fh)
        if args.export_adj:
            with open(args.export_adj, "w", encoding="utf-8") as fh:
                graph.write_adjacency_csv(g, fh)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _write_json(report, fh)
    else:
        _write_json(report, sys.stdout)
    return 0 if report["agree_all"] else 2


def _cmd_sweep(args: argparse.Namespace, caps: rp.Caps, cache_file: str | None) -> int:
    if args.family == "all-abelian":
        if args.max_order is None:
            print("error: all-abelian needs --max-order", file=sys.stderr)
            return 1
        specs = rp.all_abelian_specs(args.max_order)
    elif args.max_order is not None:
        print("error: --max-order needs all-abelian", file=sys.stderr)
        return 1
    else:
        specs = [s for s in map(str.strip, args.family.split(",")) if s]
        if not specs:
            print("error: empty family", file=sys.stderr)
            return 1
    reports, summary, code = rp.run_sweep(specs, caps, cache_file)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(rp.CSV_COLUMNS)
            writer.writerows(rp.sweep_rows(reports))
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
    # The run's two settings: its caps and its cache path, None for no cache.
    values = {name: getattr(args, f"max_{name}_vertices") for name in rp.Caps._fields}
    ceiling = graph.MAX_GRAPH_VERTICES
    for name, value in values.items():
        if not 0 <= value <= ceiling:
            bound = "below 0" if value < 0 else f"above the ceiling {ceiling}"
            print(f"error: --max-{name}-vertices is {bound}", file=sys.stderr)
            return 1
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs is below 1", file=sys.stderr)
        return 1
    caps = rp.Caps(**values)
    if args.skip_oracles:
        caps = caps._replace(graph=0)
    cache_file = None
    if not args.no_cache:
        cache_file = args.cache_file or os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_PATH
    try:
        command = _cmd_report if args.command == "report" else _cmd_sweep
        return command(args, caps, cache_file)
    except (abelian.GroupSpecError, rp.ReportTooLargeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
