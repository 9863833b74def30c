"""The benchmark's workloads: the CLI invocations of one iteration, made from a seed.

Every path in an invocation is relative to the iteration's fresh working
directory. The seed chooses spellings and their order; the CLI receives only
the resulting spec strings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import expected

# Caps raised so that the exponential oracles, not the graph build, do the work.
ORACLE_CAPS = ("--max-resolving-vertices", "18", "--max-detour-vertices", "24")


@dataclass(frozen=True)
class Invocation:
    """One `commgraph` run and what its output must satisfy.

    `csv` names the sweep CSV to check against `specs`; otherwise stdout is a
    report for `specs[0]`.
    """

    args: tuple[str, ...]
    specs: tuple[str, ...]
    csv: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]
    # Pairs of output files that must be byte-identical after the iteration.
    identical: tuple[tuple[str, str], ...] = field(default=())
    cache_file: str | None = None


def spellings_by_class(orders: range) -> dict[tuple[int, int], list[str]]:
    """Non-abelian spellings of each order, grouped by (n, r)."""
    classes: dict[tuple[int, int], list[str]] = {}
    for moduli in expected.ordered_factorizations(orders.stop - 1):
        n, r = expected.order_and_rank(moduli)
        if n in orders and n != 1 << r:
            classes.setdefault((n, r), []).append(expected.spec_of(moduli))
    return classes


def oracles(rng: random.Random) -> Workload:
    specs = [rng.choice(names) for names in spellings_by_class(range(3, 13)).values()]
    rng.shuffle(specs)
    args = ("sweep", ",".join(specs), "--no-cache", "--csv", "oracles.csv") + ORACLE_CAPS
    return Workload(
        "oracles",
        "small non-abelian groups with raised caps: the exponential detour and resolving "
        "oracles do the work",
        (Invocation(args, tuple(specs), "oracles.csv"),),
    )


def sweep(rng: random.Random) -> Workload:
    specs = tuple(expected.spec_of(m) for m in expected.ordered_factorizations(96))
    args = ("sweep", "all-abelian", "--max-order", "96", "--no-cache", "--csv", "sweep.csv",
            "--jobs", "1")
    return Workload(
        "sweep",
        "905 spellings of order <= 96: the per-spelling graph build, coloring check and "
        "report assembly do the work, and (n, r) repeats across spellings",
        (Invocation(args, specs, "sweep.csv"),),
    )


def large(rng: random.Random) -> Workload:
    # The 2**19 group has r = 8, inside MAX_ORDER; its report is a known failure
    # (the coefficients exceed Python's int-to-str digit limit) and stays in.
    factors = ["Z2"] * 7
    factors.insert(rng.randrange(8), "Z4096")
    runs = [
        Invocation(("report", "Z1024", "--no-cache"), ("Z1024",)),
        Invocation(("report", "Z8192", "--no-cache", "--skip-oracles"), ("Z8192",)),
        Invocation(("report", "x".join(factors), "--no-cache", "--skip-oracles"),
                   ("x".join(factors),)),
    ]
    rng.shuffle(runs)
    return Workload(
        "large",
        "reports at the top of the size range: the closed formulas and JSON encoding do "
        "the work, and n = 2**19 shows the known digit-limit failure",
        tuple(runs),
    )


def cache(rng: random.Random) -> Workload:
    specs = tuple(expected.spec_of(m) for m in expected.ordered_factorizations(64))
    base = ("sweep", "all-abelian", "--max-order", "64", "--jobs", "2",
            "--cache-file", "cache.jsonl", "--csv")
    return Workload(
        "cache",
        "one sweep run twice on a fresh cache file: the cold pass writes through the "
        "process pool, the warm pass only reads the cache",
        (Invocation(base + ("cold.csv",), specs, "cold.csv"),
         Invocation(base + ("warm.csv",), specs, "warm.csv")),
        identical=(("cold.csv", "warm.csv"),),
        cache_file="cache.jsonl",
    )


WORKLOADS = {w.__name__: w for w in (oracles, sweep, large, cache)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
