"""Run one commgraph CLI invocation in this process with every layer call traced.

Usage: python3 tracer.py SPANS_OUT ARGS...

ARGS are passed to commgraph.cli.run unchanged, so stdout, stderr and the exit
code are those of the untraced CLI. Each wrapped module attribute is replaced
where its caller looks the name up (for example graph.omega_partition, which
build_commuting_graph calls through the graph module's globals). Spans are
kept in memory as [name, start, end, parent] and written to SPANS_OUT as JSON
when the invocation ends, together with per-layer work counts. Calls made in
`sweep --jobs N` pool workers run in other processes and are not recorded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter


def _vertices_of_result(args, result) -> int:
    return result.n_vertices


def _vertices_of_graph_arg(args, result) -> int:
    return args[0].n_vertices


def _masks_of_graph_arg(args, result) -> int:
    return 1 << args[0].n_vertices


# (module the caller looks the name up in, attribute, span name, work counters)
TRACED = (
    ("abelian", "parse_group_spec", "abelian.parse_group_spec", {}),
    ("graph", "omega_partition", "dihedral.omega_partition", {}),
    ("graph", "build_commuting_graph", "graph.build_commuting_graph",
     {"vertices": _vertices_of_result}),
    ("graph", "build_structural_graph", "graph.build_structural_graph", {}),
    ("invariants", "construct_coloring", "invariants.construct_coloring", {}),
    ("invariants", "is_proper_coloring", "invariants.is_proper_coloring", {}),
    ("invariants", "chromatic_number_oracle", "invariants.chromatic_number_oracle", {}),
    ("detour", "detour_profile", "detour.detour_profile", {"vertices": _vertices_of_graph_arg}),
    ("detour", "detour_ecc_oracle", "detour.detour_ecc_oracle", {}),
    ("resolving", "metric_dimension_oracle", "resolving.metric_dimension_oracle", {}),
    ("resolving", "resolving_polynomial_oracle", "resolving.resolving_polynomial_oracle",
     {"masks": _masks_of_graph_arg}),
    ("resolving", "resolving_polynomial_formula", "resolving.resolving_polynomial_formula", {}),
    ("report", "all_abelian_specs", "report.all_abelian_specs", {}),
    ("report", "run_sweep", "report.run_sweep", {}),
    ("report", "report_for_spec", "report.report_for_spec", {}),
    ("report", "build_report", "report.build_report", {}),
    ("report", "_poly_json", "report._poly_json", {}),
    ("report", "report_to_row", "report.report_to_row", {}),
    ("report", "cache_get", "report.cache_get",
     {"hits": lambda a, out: out is not None, "misses": lambda a, out: out is None}),
    ("report", "cache_put", "report.cache_put", {}),
)

SPAN_NAMES = ("cli.run", "json.dumps") + tuple(name for _, _, name, _ in TRACED)


class Tracer:
    """In-memory span recorder; one instance per traced invocation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, counters: dict | None = None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for key, count in (counters or {}).items():
                counts[f"{name}.{key}"] += count(args, result)
            return result

        return traced

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        for module, attr, name, counters in TRACED:
            target = modules[module]
            setattr(target, attr, self.wrap(name, getattr(target, attr), counters))
        # cli and report call json.dumps through their own `json` global.
        proxy = types.SimpleNamespace(**vars(json))
        proxy.dumps = self.wrap("json.dumps", json.dumps)
        modules["cli"].json = proxy
        modules["report"].json = proxy

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans: list[list]) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) per span name: duration minus the time child spans cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        calls, seconds = out.get(name, (0, 0.0))
        out[name] = (calls + 1, seconds + (end - start) - inner)
    return out


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    from commgraph import abelian, cli, detour, graph, invariants, report, resolving

    modules = {
        "abelian": abelian,
        "cli": cli,
        "detour": detour,
        "graph": graph,
        "invariants": invariants,
        "report": report,
        "resolving": resolving,
    }
    tracer = Tracer()
    tracer.install(modules)
    try:
        return tracer.wrap("cli.run", cli.run)(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
