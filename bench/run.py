#!/usr/bin/env python3
"""Benchmark for the commgraph CLI.

    python3 bench/run.py --workload oracles --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28

Run from the root of a checkout; the program under test is ./src/commgraph.
A single client runs the workload's CLI invocations one at a time in a closed
loop, each as a child process in a fresh working directory under the checkout,
and checks every output against values derived in bench/expected.py. With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with --trace 1
it alternates untraced and traced iterations (bench/tracer.py) and reports the
per-layer metrics. The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import expected
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracer.py"

# setup_s is the median of launches of `python -c "import commgraph.cli"`: a batch
# before the first iteration and one before each iteration, so that the samples
# span the run rather than one moment of it.
SETUP_FIRST_LAUNCHES = 9
SETUP_LAUNCHES_PER_ITERATION = 1
# An invocation running longer than this is killed and counted as failed.
INVOCATION_TIMEOUT_S = 120.0
# Fewest iterations behind an end-to-end median, even past --seconds.
MIN_ITERATIONS = 3

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "checks_per_s": "1/s",
    "decided_share": "ratio",
    "ok_share": "ratio",
    "setup_s": "s",
}

# Work counts beyond calls and self time, as (name, unit).
EXTRA_LAYER_METRICS = (
    ("graph.build_commuting_graph.vertices", "count"),
    ("detour.detour_profile.vertices", "count"),
    ("resolving.resolving_polynomial_oracle.masks", "count"),
    ("report.cache_get.hits", "count"),
    ("report.cache_get.misses", "count"),
    ("report.cache.file_bytes", "bytes"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracer.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_LAYER_METRICS)
    return units


@dataclass
class Launch:
    wall: float
    cpu: float
    maxrss_kb: int
    code: int
    timed_out: bool


def child_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("COMMGRAPH_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    return env


def launch(cmd: list[str], cwd: Path, stdout: Path, stderr: Path) -> Launch:
    """Run one child to completion; resource use comes from wait4, pool workers included."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=child_env(cwd), stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # the pool workers too
            except ProcessLookupError:
                pass

        timer = threading.Timer(INVOCATION_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                  proc.returncode, timed_out.is_set())


@dataclass
class Iteration:
    """One pass over a workload's invocations, with its checks."""

    wall: float = 0.0
    walls: list[float] = field(default_factory=list)
    cpu: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    decided: int = 0
    total: int = 0
    wrong: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def run_iteration(workload: workloads.Workload, tmp_root: Path, traced: bool) -> Iteration:
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root))
    try:
        launches = []
        t0 = time.perf_counter()
        for i, inv in enumerate(workload.invocations):
            if traced:
                cmd = [sys.executable, str(TRACER), f"spans{i}.json", *inv.args]
            else:
                cmd = [sys.executable, "-m", "commgraph.cli", *inv.args]
            launches.append(launch(cmd, workdir, workdir / f"out{i}", workdir / f"err{i}"))
        it = Iteration(wall=time.perf_counter() - t0, walls=[ln.wall for ln in launches])
        it.cpu = sum(ln.cpu for ln in launches)
        it.rss_mb = max(ln.maxrss_kb for ln in launches) / 1024
        check_iteration(workload, workdir, launches, it)
        if traced:
            it.layers = layer_totals(workload, workdir)
        return it
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_iteration(workload, workdir: Path, launches: list[Launch], it: Iteration) -> None:
    ok = []
    for i, (inv, ln) in enumerate(zip(workload.invocations, launches)):
        it.attempted += 1
        label = " ".join(inv.args)[:120]
        err = (workdir / f"err{i}").read_text(encoding="utf-8", errors="replace")
        verdict = expected.Verdict([], total=expected.check_count(inv.specs, bool(inv.csv)))
        reason = None
        if ln.timed_out:
            reason = f"killed after {INVOCATION_TIMEOUT_S:.0f} s"
        elif "Traceback (most recent call last)" in err:
            reason = "traceback: " + err.strip().splitlines()[-1][:200]
        elif ln.code not in (0, 2):
            reason = f"exit {ln.code}: {err.strip()[:200]}"
        else:
            verdict = check_output(inv, workdir, i)
            if verdict.problems:
                reason = "wrong output: " + "; ".join(verdict.problems[:3])
                it.wrong.append(f"{label}: {reason}")
            elif ln.code != 0:
                reason = f"exit {ln.code}"
        it.decided += verdict.decided
        it.total += verdict.total
        ok.append(reason is None)
        if reason:
            it.failed += 1
            it.failures.append(f"{label}: {reason}")
    names = [inv.csv for inv in workload.invocations]
    for first, second in workload.identical:
        a, b = names.index(first), names.index(second)
        if ok[a] and ok[b] and (workdir / first).read_bytes() != (workdir / second).read_bytes():
            it.failed += 1
            it.wrong.append(f"{second} differs from {first}")
            it.failures.append(it.wrong[-1])


def check_output(inv: workloads.Invocation, workdir: Path, i: int) -> expected.Verdict:
    path = workdir / (inv.csv or f"out{i}")
    if not path.is_file():
        return expected.Verdict([f"{path.name} was not written"])
    text = path.read_text(encoding="utf-8", errors="replace")
    try:
        if inv.csv:
            return expected.check_sweep_csv(text, list(inv.specs))
        return expected.check_report_json(text, inv.specs[0])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # Output whose shape the checker does not expect is wrong output too.
        return expected.Verdict([f"{path.name} is malformed: {exc!r}"[:200]])


def layer_totals(workload: workloads.Workload, workdir: Path) -> dict[str, float]:
    """Per-layer calls, self time and work counts summed over the traced invocations."""
    totals = {name: 0 for name in per_layer_units()}
    for i, inv in enumerate(workload.invocations):
        spans_file = workdir / f"spans{i}.json"
        if spans_file.is_file():
            data = json.loads(spans_file.read_text(encoding="utf-8"))
            for name, (calls, seconds) in tracer.self_times(data["spans"]).items():
                totals[f"{name}.calls"] += calls
                totals[f"{name}.self_s"] += seconds
            for name, count in data["counts"].items():
                totals[name] += count
        totals["cli.output_bytes"] += (workdir / f"out{i}").stat().st_size
        if inv.csv and (workdir / inv.csv).is_file():
            totals["cli.output_bytes"] += (workdir / inv.csv).stat().st_size
    if workload.cache_file and (workdir / workload.cache_file).is_file():
        totals["report.cache.file_bytes"] = (workdir / workload.cache_file).stat().st_size
    return totals


def until_spent(seconds: float, minimum: int, step):
    """Closed loop: call step() back to back while the next call fits in `seconds`."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - t0
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def check_import(tmp_root: Path) -> None:
    """Import commgraph.cli once (which also compiles it) and check it comes from SRC."""
    probe = "import commgraph.cli, sys; sys.stdout.write(commgraph.cli.__file__)"
    ln = launch([sys.executable, "-c", probe], tmp_root, tmp_root / "setup.out",
                tmp_root / "setup.err")
    if ln.code != 0:
        raise SystemExit("bench: cannot import commgraph.cli: "
                         + (tmp_root / "setup.err").read_text()[-300:])
    where = Path((tmp_root / "setup.out").read_text()).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"bench: commgraph.cli imported from {where}, not {SRC}")


def measure_setup(tmp_root: Path, launches: int) -> list[float]:
    """Wall times of interpreter start plus `import commgraph.cli`."""
    cmd = [sys.executable, "-c", "import commgraph.cli"]
    return [launch(cmd, tmp_root, tmp_root / "setup.out", tmp_root / "setup.err").wall
            for _ in range(launches)]


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def log(line: str) -> None:
    print(f"# {line}", flush=True)


def report_iterations(iters: list[Iteration], tag: str) -> None:
    for k, it in enumerate(iters, 1):
        per_run = " + ".join(f"{w:.3f}" for w in it.walls)
        log(f"{tag} iteration {k}: wall {it.wall:.3f} s ({per_run}), cpu {it.cpu:.3f} s, "
            f"rss {it.rss_mb:.1f} MB, checks {it.decided}/{it.total}, "
            f"failed {it.failed}/{it.attempted}")
    for line in sorted({f for it in iters for f in it.failures}):
        log(f"{tag} FAILED {line}")


def end_to_end(iters: list[Iteration], setup: list[float]) -> dict[str, list[float]]:
    attempted = sum(it.attempted for it in iters)
    failed = sum(it.failed for it in iters)
    return {
        "wall_s": [it.wall for it in iters],
        "cpu_s": [it.cpu for it in iters],
        "peak_rss_mb": [it.rss_mb for it in iters],
        "checks_per_s": [it.decided / it.wall for it in iters],
        "decided_share": [sum(it.decided for it in iters) / max(1, sum(it.total for it in iters))],
        "ok_share": [(attempted - failed) / attempted],
        "setup_s": setup,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp_root: Path) -> dict:
    workload = workloads.make(name, seed)
    log(f"workload {name}: {workload.why}")
    for inv in workload.invocations:
        log(f"  commgraph {' '.join(inv.args)[:300]}")
    check_import(tmp_root)
    if not trace:
        setup = measure_setup(tmp_root, SETUP_FIRST_LAUNCHES)

        def step() -> Iteration:
            setup.extend(measure_setup(tmp_root, SETUP_LAUNCHES_PER_ITERATION))
            return run_iteration(workload, tmp_root, traced=False)

        iters = until_spent(seconds, MIN_ITERATIONS, step)
        report_iterations(iters, name)
        samples = end_to_end(iters, setup)
        units = END_TO_END
        all_iters = iters
    else:
        pairs = until_spent(seconds, 1, lambda: (
            run_iteration(workload, tmp_root, traced=False),
            run_iteration(workload, tmp_root, traced=True)))
        untraced = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
        report_iterations(untraced, f"{name} untraced")
        report_iterations(traced, f"{name} traced")
        for it, ref in zip(traced, untraced):
            it.layers["trace.overhead_s"] = it.wall - ref.wall
        units = per_layer_units()
        samples = {m: [it.layers[m] for it in traced] for m in units}
        log(f"{name} tracing overhead: traced minus untraced wall "
            f"{statistics.median(samples['trace.overhead_s']):.3f} s "
            f"(untraced median {statistics.median(it.wall for it in untraced):.3f} s); "
            "calls inside sweep --jobs pool workers are not traced")
        all_iters = untraced + traced
    metrics = {}
    for metric, unit in units.items():
        med, q1, q3 = summary(samples[metric])
        metrics[metric] = {"value": med, "unit": unit}
        log(f"{name} {metric} = {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, "
            f"n={len(samples[metric])})")
    return {
        "correct": not any(it.wrong for it in all_iters),
        "attempted": sum(it.attempted for it in all_iters),
        "failed": sum(it.failed for it in all_iters),
        "metrics": metrics,
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "commgraph" / "cli.py").is_file():
        print(f"bench: {SRC / 'commgraph'} not found; run from a commgraph checkout",
              file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # report coefficients run to thousands of digits
    log(json.dumps({
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    tmp_root = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), tmp_root)
                   for n in names}
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
