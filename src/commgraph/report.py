"""Invariant reports: formula-versus-oracle comparison, sweep families, CSV rows, cache."""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence

from . import abelian, detour, dihedral, graph, invariants, resolving

UNCHECKED = "unchecked"

DEFAULT_CACHE_PATH = ".commgraph-cache.jsonl"
CACHE_ENV_VAR = "COMMGRAPH_CACHE"

CSV_COLUMNS = [
    "spec",
    "n",
    "r",
    "blocks",
    "edges_f",
    "edges_o",
    "chi_f",
    "chi_o",
    "eccO1_f",
    "eccO1_o",
    "eccO23_f",
    "eccO23_o",
    "radD",
    "diamD",
    "beta_f",
    "beta_o",
    "poly_agree",
    "agree_all",
]


@dataclass(frozen=True)
class Caps:
    """Vertex caps for the exponential oracles and for building the measured graph."""

    detour: int = 20
    resolving: int = 16
    chromatic: int = 24
    graph: int = 2048


DEFAULT_CAPS = Caps()


class ReportTooLargeError(ValueError):
    """A report value cannot be written out as text."""


def _poly_json(poly: resolving.ResolvingPolynomial) -> dict:
    """Serialize with decimal-string coefficients; counts overflow small ints fast."""
    try:
        coeffs = {str(i): str(poly.coeffs[i]) for i in sorted(poly.coeffs)}
    except ValueError as exc:
        # str(int) raises only past the interpreter's digit limit (Python 3.11+).
        raise ReportTooLargeError(
            "a resolving polynomial coefficient exceeds the "
            f"{sys.get_int_max_str_digits()}-digit limit for integer string conversion"
        ) from exc
    return {"beta": poly.beta, "coeffs": coeffs}


def build_report(
    spec: str,
    caps: Caps = DEFAULT_CAPS,
    skip_oracles: bool = False,
    with_timings: bool = False,
) -> dict:
    """Full invariant report for one group spec; see README for the field layout."""
    group = abelian.parse_group_spec(spec)
    n, r = group.n, group.r
    report: dict = {
        "spec": spec,
        "moduli": list(group.moduli),
        "n": n,
        "r": r,
        "abelian": group.is_elementary_abelian_2(),
        "caps": asdict(caps),
    }
    if report["abelian"]:
        # Every pair commutes, so the commuting graph is complete on 2n vertices.
        report["graph"] = f"K_{2 * n}"
        report["degree"] = 2 * n - 1
        report["edge_count"] = n * (2 * n - 1)
        report["unchecked"] = []
        report["disagreements"] = []
        report["agree_all"] = True
        return report

    nv = 2 * n
    report["blocks"] = n >> r
    report["vertex_count"] = nv
    disagreements: list[dict] = []
    unchecked: list[str] = []
    timings: dict[str, float] = {}

    def oracle(name, cap, fn):
        """Timed fn(), or None when oracles are off or nv exceeds cap or the graph cap."""
        # The graph ceiling bounds the build whatever caps.graph a library caller passes.
        if skip_oracles or nv > min(cap, caps.graph, graph.MAX_GRAPH_VERTICES):
            return None
        t0 = time.perf_counter()
        out = fn()
        timings[name] = round(time.perf_counter() - t0, 6)
        return out

    def disagree(name, entry, witness):
        entry["witness"] = witness
        disagreements.append({"invariant": name, "witness": witness})

    def compare(name, formula, observed, witness=None, encode=lambda x: x):
        """Formula-vs-oracle entry; observed=None means the oracle did not run."""
        if observed is None:
            unchecked.append(name)
            return {"formula": encode(formula), "oracle": UNCHECKED, "agree": UNCHECKED}
        agree = formula == observed
        entry = {"formula": encode(formula), "oracle": encode(observed), "agree": agree}
        if not agree:
            disagree(name, entry, witness() if witness else f"formula={formula} oracle={observed}")
        return entry

    brute = oracle("build", caps.graph, lambda: graph.build_commuting_graph(group, "all"))

    parts: dict[str, list[int]] = {"omega1": [], "omega2": [], "omega3": []}
    if brute is not None:
        for v, pl in enumerate(brute.part_labels):
            parts[dihedral.part_kind(pl)].append(v)

    def per_part(name, what, formula_fn, values):
        """One entry per part: every vertex's value against formula_fn(n, r, part)."""
        entries = {}
        for kind, part in parts.items():
            f = formula_fn(n, r, kind)
            observed = witness = None
            if values is not None:
                bad = next((v for v in part if values[v] != f), part[0])
                observed = values[bad]
                witness = lambda: (
                    f"vertex {brute.vertex_labels()[bad]} has {what} {observed}, formula says {f}"
                )
            entries[kind] = compare(f"{name}.{kind}", f, observed, witness)
        return entries

    # Structure: measured adjacency against the synthesized join of cliques.
    if brute is None:
        unchecked.append("structure")
        report["structure"] = {"match": UNCHECKED}
    else:
        structural = graph.build_structural_graph(n, r)
        report["structure"] = {"match": graph.edge_sets_equal(brute, structural)}
        if not report["structure"]["match"]:
            labels = brute.vertex_labels()
            i, j = next(
                (i, j)
                for i in range(nv)
                for j in range(i + 1, nv)
                if brute.is_adjacent(i, j) != structural.is_adjacent(i, j)
            )
            witness = f"adjacency differs at ({labels[i]}, {labels[j]})"
            disagree("structure", report["structure"], witness)

    degrees = None if brute is None else [brute.degree(v) for v in range(nv)]
    report["degrees"] = per_part("degree", "degree", invariants.degree_formula, degrees)
    edges_o = None if brute is None else brute.edge_count()
    report["edges"] = compare("edges", invariants.edge_count_formula(n, r), edges_o)

    # Chromatic number: explicit coloring validity plus the exact search.
    chi_f = invariants.chromatic_number_formula(n, r)
    if brute is None:
        unchecked.append("coloring")
        report["coloring"] = {"proper": UNCHECKED, "colors": UNCHECKED, "agree": UNCHECKED}
    else:
        coloring = invariants.construct_coloring(brute)
        proper = invariants.is_proper_coloring(brute, coloring)
        ncolors = len(set(coloring))
        entry = {"proper": proper, "colors": ncolors, "agree": proper and ncolors == chi_f}
        report["coloring"] = entry
        if not entry["agree"]:
            witness = f"constructed coloring proper={proper} colors={ncolors} expected {chi_f}"
            disagree("coloring", entry, witness)
    chi_o = oracle(
        "chromatic",
        caps.chromatic,
        lambda: invariants.chromatic_number_oracle(brute, caps.chromatic),
    )
    report["chromatic"] = compare("chromatic", chi_f, chi_o)

    # Detour eccentricities, radius, diameter.
    profile = oracle("detour", caps.detour, lambda: detour.detour_profile(brute, caps.detour))
    ecc = None if profile is None else profile.eccentricities
    rad_f, diam_f = detour.detour_radius_diameter_formula(n, r)
    rad_o, diam_o = (None, None) if profile is None else (profile.radius, profile.diameter)
    report["detour"] = {
        "ecc": per_part("detour.ecc", "detour eccentricity", detour.detour_ecc_formula, ecc),
        "radius": compare("detour.radius", rad_f, rad_o),
        "diameter": compare("detour.diameter", diam_f, diam_o),
    }

    # Metric dimension and the resolving polynomial.
    beta_f = resolving.metric_dimension_formula(n, r)
    poly_f = resolving.resolving_polynomial_formula(n, r)
    beta_o = oracle(
        "beta", caps.resolving, lambda: resolving.metric_dimension_oracle(brute, caps.resolving)
    )
    poly_o = oracle(
        "poly", caps.resolving, lambda: resolving.resolving_polynomial_oracle(brute, caps.resolving)
    )

    def poly_witness():
        sizes = sorted(set(poly_f.coeffs) | set(poly_o.coeffs))
        i = next(s for s in sizes if poly_f.coeffs.get(s) != poly_o.coeffs.get(s))
        return f"coefficient s_{i}: formula={poly_f.coeffs.get(i)} oracle={poly_o.coeffs.get(i)}"

    # The poly entry is built first so that unchecked and disagreements list it before beta.
    poly = compare("resolving.poly", poly_f, poly_o, poly_witness, _poly_json)
    report["resolving"] = {"beta": compare("resolving.beta", beta_f, beta_o), "poly": poly}

    report["unchecked"] = unchecked
    report["disagreements"] = disagreements
    report["agree_all"] = not disagreements
    if with_timings:
        report["timings"] = timings
    return report


def _cell(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return "" if value is None else str(value)


def report_to_row(report: dict) -> list[str]:
    """One sweep CSV row; blank cells where a column does not apply."""
    values = {
        "spec": report["spec"],
        "n": report["n"],
        "r": report["r"],
        "agree_all": report["agree_all"],
    }
    if not report["abelian"]:
        ecc = report["detour"]["ecc"]
        values.update(
            blocks=report["blocks"],
            edges_f=report["edges"]["formula"],
            edges_o=report["edges"]["oracle"],
            chi_f=report["chromatic"]["formula"],
            chi_o=report["chromatic"]["oracle"],
            eccO1_f=ecc["omega1"]["formula"],
            eccO1_o=ecc["omega1"]["oracle"],
            eccO23_f=ecc["omega2"]["formula"],
            eccO23_o=ecc["omega2"]["oracle"],
            radD=report["detour"]["radius"]["formula"],
            diamD=report["detour"]["diameter"]["formula"],
            beta_f=report["resolving"]["beta"]["formula"],
            beta_o=report["resolving"]["beta"]["oracle"],
            poly_agree=report["resolving"]["poly"]["agree"],
        )
    return [_cell(values.get(col)) for col in CSV_COLUMNS]


def all_abelian_specs(max_order: int) -> list[str]:
    """Specs of every direct-product spelling with order 2..max_order, in a fixed order.

    Spellings are ordered tuples of moduli >= 2, so isomorphic respellings
    such as Z6, Z2xZ3 and Z3xZ2 all appear.
    """
    if max_order > abelian.MAX_ORDER:
        raise abelian.GroupSpecError(
            f"max order {max_order} exceeds cap {abelian.MAX_ORDER}"
        )
    if max_order < 2:
        raise abelian.GroupSpecError("max order must be at least 2")
    found: list[tuple[int, ...]] = []

    def extend(prefix: list[int], prod: int) -> None:
        if prefix:
            found.append(tuple(prefix))
        m = 2
        while prod * m <= max_order:
            prefix.append(m)
            extend(prefix, prod * m)
            prefix.pop()
            m += 1

    extend([], 1)
    found.sort(key=lambda t: (math.prod(t), len(t), t))
    return ["x".join(f"Z{m}" for m in t) for t in found]


def cache_path(explicit: str | None = None) -> str:
    return explicit or os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_PATH


@functools.cache
def _code_fingerprint() -> str:
    """CRC-32 of the package's *.py sources, computed once per process.

    zlib rather than hashlib: importing hashlib loads OpenSSL, which adds about
    3.5 MB to the peak RSS of every CLI run. CRC-32 catches every change of up
    to 32 consecutive bits, such as a one-character edit, and misses any other
    edit with probability 2**-32.
    """
    crc = 0
    for path in sorted(Path(__file__).parent.glob("*.py")):
        crc = zlib.crc32(path.name.encode() + b"\0" + path.read_bytes(), crc)
    return f"{crc:08x}"


def cache_key(n: int, r: int, caps: Caps, skip_oracles: bool) -> str:
    """Reports depend only on (n, r), the caps and the code, not on the moduli spelling.

    The code fingerprint retires every entry written by other sources, so an
    edited formula is never answered from a report of the old one.
    """
    return (
        f"n={n};r={r};caps={caps.detour},{caps.resolving},{caps.chromatic},{caps.graph};"
        f"oracles={int(not skip_oracles)};code={_code_fingerprint()}"
    )


def cache_load(path: str) -> dict[str, dict]:
    """Key -> report for the JSON-lines cache; the last entry for a key wins.

    Only entries written by this code are kept, since no other key can hit.
    A missing file reads as empty; each corrupt line is skipped with one warning.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        return {}
    suffix = f";code={_code_fingerprint()}"
    entries: dict[str, dict] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            key, report = entry["key"], entry["report"]
        except (ValueError, KeyError, TypeError):
            print(f"warning: skipping corrupt cache line {lineno} in {path}", file=sys.stderr)
            continue
        if isinstance(key, str) and key.endswith(suffix):
            entries[key] = report
    return entries


def cache_get(entries: dict[str, dict], key: str) -> dict | None:
    """The cached report for key, or None; run_sweep looks up each spec through here."""
    return entries.get(key)


def cache_put(path: str, entries: dict[str, dict]) -> None:
    """Rewrite the cache file with one JSON line per entry, atomically.

    The lines go to a temp file in the same directory, which then replaces path,
    so a reader sees the old file or the new one, never a partial write.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for key, report in entries.items():
                fh.write(json.dumps({"key": key, "report": report}) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def report_for_spec(
    spec: str,
    caps: Caps = DEFAULT_CAPS,
    skip_oracles: bool = False,
    with_timings: bool = False,
    use_cache: bool = True,
    cache_file: str | None = None,
) -> dict:
    """build_report with read-through caching; timed runs bypass the cache."""
    if with_timings:
        return build_report(spec, caps, skip_oracles, with_timings)
    return run_sweep([spec], caps, skip_oracles, use_cache, cache_file)[0][0]


def run_sweep(
    specs: Sequence[str],
    caps: Caps = DEFAULT_CAPS,
    skip_oracles: bool = False,
    use_cache: bool = True,
    cache_file: str | None = None,
    jobs: int = 1,
) -> tuple[list[dict], list[str], int]:
    """Reports for a family of specs; returns (reports, summary lines, exit code)."""
    path = cache_path(cache_file)
    entries = cache_load(path) if use_cache else {}
    ordered: list[dict | None] = []
    keys: list[str] = []
    pending: list[int] = []
    for i, spec in enumerate(specs):
        group = abelian.parse_group_spec(spec)
        keys.append(cache_key(group.n, group.r, caps, skip_oracles))
        cached = cache_get(entries, keys[i]) if use_cache else None
        if cached is None:
            pending.append(i)
        else:
            # Entries are keyed by (n, r), so a hit is respelled for this spec.
            cached = dict(cached, spec=spec, moduli=list(group.moduli))
        ordered.append(cached)
    todo = [specs[i] for i in pending]
    if jobs > 1 and todo:
        # The pool starts every worker up front, so --jobs alone must not size it.
        workers = min(jobs, len(todo), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            fresh = list(pool.map(build_report, todo, repeat(caps), repeat(skip_oracles)))
    else:
        fresh = [build_report(spec, caps, skip_oracles) for spec in todo]
    for i, rep in zip(pending, fresh):
        ordered[i] = rep
        entries[keys[i]] = rep
    if use_cache and fresh:
        cache_put(path, entries)
    lines = [
        f"DISAGREE {rep['spec']} {item['invariant']}: {item['witness']}"
        for rep in ordered
        for item in rep["disagreements"]
    ]
    disagree = sum(1 for rep in ordered if rep["disagreements"])
    unchecked = sum(1 for rep in ordered if rep["unchecked"] and not rep["disagreements"])
    agree = len(ordered) - disagree - unchecked
    summary = f"rows={len(ordered)} agree={agree} disagree={disagree} unchecked={unchecked}"
    return ordered, [summary, *lines], 2 if disagree else 0
