#!/usr/bin/env python3
"""Self-test of the benchmark's output checker.

    python3 bench/selftest.py

Runs a few small commgraph invocations from ./src, checks that their real
outputs pass, then alters those outputs by hand, one field at a time, and
checks that every altered copy is rejected. The program is not changed; only
its output is. Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import expected
import run
import workloads

SWEEP_SPECS = ["Z6", "Z2xZ4", "Z9", "Z2xZ2", "Z3"]
CACHE_ARGS = ("sweep", "all-abelian", "--max-order", "12", "--jobs", "2",
              "--cache-file", "cache.jsonl", "--csv")


def csv_edit(spec: str, column: str, value: str):
    def edit(text: str) -> str:
        lines = text.splitlines(keepends=True)
        col = expected.CSV_COLUMNS.index(column)
        for k, line in enumerate(lines):
            cells = line.rstrip("\n").split(",")
            if cells[0] == spec:
                cells[col] = value
                lines[k] = ",".join(cells) + "\n"
        return "".join(lines)

    return edit


def swap_lines(text: str, a: int, b: int) -> str:
    lines = text.splitlines(keepends=True)
    lines[a], lines[b] = lines[b], lines[a]
    return "".join(lines)


def json_edit(*path, value=None, delete=False):
    def edit(text: str) -> str:
        doc = json.loads(text)
        node = doc
        for key in path[:-1]:
            node = node[key]
        if delete:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return json.dumps(doc)

    return edit


CSV_CASES = {
    "edges_f off by one": csv_edit("Z6", "edges_f", "31"),
    "edges_o off by one": csv_edit("Z6", "edges_o", "29"),
    "chi_o wrong": csv_edit("Z9", "chi_o", "8"),
    "eccO1_f wrong": csv_edit("Z2xZ4", "eccO1_f", "14"),
    "eccO23_o wrong": csv_edit("Z3", "eccO23_o", "2"),
    "radD swapped with diamD": csv_edit("Z6", "radD", "9"),
    "beta_o wrong": csv_edit("Z9", "beta_o", "14"),
    "blocks wrong": csv_edit("Z6", "blocks", "2"),
    "poly_agree false": csv_edit("Z6", "poly_agree", "false"),
    "agree_all false": csv_edit("Z3", "agree_all", "false"),
    "abelian row filled": csv_edit("Z2xZ2", "edges_f", "6"),
    "r wrong": csv_edit("Z2xZ4", "r", "1"),
    "row dropped": lambda t: "".join(l for l in t.splitlines(True) if not l.startswith("Z9,")),
    "rows reordered": lambda t: swap_lines(t, 1, 2),
    "header renamed": lambda t: t.replace("beta_o", "beta_oracle", 1),
    "cell dropped": lambda t: t.replace(",true\n", "\n", 1),
}

REPORT_CASES = {
    "n wrong": json_edit("n", value=7),
    "edges formula": json_edit("edges", "formula", value=31),
    "degree oracle": json_edit("degrees", "omega2", "oracle", value=4),
    "structure mismatch": json_edit("structure", "match", value=False),
    "coloring colors": json_edit("coloring", "colors", value=7),
    "chromatic oracle": json_edit("chromatic", "oracle", value=5),
    "detour ecc formula": json_edit("detour", "ecc", "omega3", "formula", value=8),
    "detour radius oracle": json_edit("detour", "radius", "oracle", value=9),
    "beta formula": json_edit("resolving", "beta", "formula", value=6),
    "poly s_beta": json_edit("resolving", "poly", "formula", "coeffs", "7", value="63"),
    "poly s_2n-1": json_edit("resolving", "poly", "oracle", "coeffs", "11", value="13"),
    "poly s_2n": json_edit("resolving", "poly", "formula", "coeffs", "12", value="2"),
    "poly size dropped": json_edit("resolving", "poly", "formula", "coeffs", "9", delete=True),
    "poly agree false": json_edit("resolving", "poly", "agree", value=False),
    "oracle silently unchecked": json_edit("edges", "oracle", value="unchecked"),
    "unknown unchecked name": json_edit("unchecked", value=["everything"]),
    "disagreement listed": json_edit("disagreements", value=[{"invariant": "edges"}]),
    "agree_all false": json_edit("agree_all", value=False),
    "not JSON": lambda t: t[: len(t) // 2],
    "entry not an object": json_edit("detour", value="gone"),
}


def main() -> int:
    if not (run.SRC / "commgraph" / "cli.py").is_file():
        print(f"selftest: {run.SRC / 'commgraph'} not found", file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=run.ROOT))
    bad: list[str] = []
    try:
        cmd = [sys.executable, "-m", "commgraph.cli"]
        run.launch(cmd + ["sweep", ",".join(SWEEP_SPECS), "--no-cache", "--csv", "s.csv"],
                   work, work / "s.out", work / "s.err")
        run.launch(cmd + ["report", "Z6", "--no-cache"], work, work / "r.json", work / "r.err")
        sweep_text = (work / "s.csv").read_text()
        report_text = (work / "r.json").read_text()

        def expect(case: str, problems: list[str], rejected: bool) -> None:
            status = "rejected" if problems else "accepted"
            print(f"{status:8} {case}" + (f"  ({problems[0][:90]})" if problems else ""))
            if bool(problems) != rejected:
                bad.append(case)

        expect("real sweep CSV", expected.check_sweep_csv(sweep_text, SWEEP_SPECS).problems, False)
        expect("real report Z6", expected.check_report_json(report_text, "Z6").problems, False)
        for case, edit in CSV_CASES.items():
            altered = edit(sweep_text)
            assert altered != sweep_text, case
            expect(f"CSV: {case}", expected.check_sweep_csv(altered, SWEEP_SPECS).problems, True)
        report_inv = workloads.Invocation(("report", "Z6"), ("Z6",))
        for case, edit in REPORT_CASES.items():
            (work / "out9").write_text(edit(report_text))
            expect(f"report: {case}", run.check_output(report_inv, work, 9).problems, True)

        # The cross-invocation and exit-status checks of one iteration.
        specs = tuple(expected.spec_of(m) for m in expected.ordered_factorizations(12))
        workload = workloads.Workload(
            "selftest", "", (workloads.Invocation(CACHE_ARGS + ("cold.csv",), specs, "cold.csv"),
                             workloads.Invocation(CACHE_ARGS + ("warm.csv",), specs, "warm.csv")),
            identical=(("cold.csv", "warm.csv"),))
        launches = [run.launch(cmd + list(inv.args), work, work / f"out{i}", work / f"err{i}")
                    for i, inv in enumerate(workload.invocations)]

        def iteration_problems() -> list[str]:
            it = run.Iteration()
            run.check_iteration(workload, work, launches, it)
            return it.wrong

        expect("real cold and warm cache sweeps", iteration_problems(), False)
        warm = (work / "warm.csv").read_bytes()
        (work / "warm.csv").write_bytes(warm.replace(b"\n", b"\r\n", 1))
        expect("iteration: warm CSV differs from cold by one byte", iteration_problems(), True)
        (work / "warm.csv").write_bytes(warm)
        (work / "err1").write_text("Traceback (most recent call last):\nValueError: boom\n")
        it = run.Iteration()
        run.check_iteration(workload, work, launches, it)
        print(f"{'counted':8} iteration: traceback is a failure, not a wrong answer "
              f"(failed {it.failed}, wrong {len(it.wrong)})")
        if (it.failed, len(it.wrong)) != (1, 0):
            bad.append("traceback classification")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: " + ("FAILED " + ", ".join(bad) if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
