"""Invariant reports: formula-versus-oracle comparison, sweep families, CSV rows, cache."""

from __future__ import annotations

import contextlib
import functools
import json
import math
import operator
import os
import sys
import time
import zlib
from itertools import compress, repeat, starmap
from typing import Iterator, NamedTuple, Sequence

from . import abelian, cotree, detour, graph, invariants, resolving

UNCHECKED = "unchecked"

# Sweep CSV column -> dotted path of its report field, in column order.
_CSV_FIELDS = {
    "spec": "spec",
    "n": "n",
    "r": "r",
    "blocks": "blocks",
    "edges_f": "edges.formula",
    "edges_o": "edges.oracle",
    "chi_f": "chromatic.formula",
    "chi_o": "chromatic.oracle",
    "eccO1_f": "detour.ecc.omega1.formula",
    "eccO1_o": "detour.ecc.omega1.oracle",
    "eccO23_f": "detour.ecc.omega2.formula",
    "eccO23_o": "detour.ecc.omega2.oracle",
    "radD": "detour.radius.formula",
    "diamD": "detour.diameter.formula",
    "beta_f": "resolving.beta.formula",
    "beta_o": "resolving.beta.oracle",
    "poly_agree": "resolving.poly.agree",
    "agree_all": "agree_all",
}
CSV_COLUMNS = list(_CSV_FIELDS)
_CSV_PATHS = [path.split(".") for path in _CSV_FIELDS.values()]

# The all-abelian family's spellings grow about 3.3x per doubling of the order.
MAX_SWEEP_ROWS = 1 << 17


class Caps(NamedTuple):
    """Vertex caps: the graphs the detour and resolving oracles check, and the graph built.

    A graph cap of 0 builds no measured graph, so every check reads unchecked. The report
    applies the caps; the oracles' own budgets (the cotree's rounds, the count vectors)
    bound the work, so the detour cap defaults to the graph ceiling.
    """

    detour: int = graph.MAX_GRAPH_VERTICES
    resolving: int = 16
    graph: int = 2048


DEFAULT_CAPS = Caps()


class ReportTooLargeError(ValueError):
    """A report value cannot be written out as text."""


def _poly_json(poly: resolving.ResolvingPolynomial) -> dict:
    """Serialize with decimal-string coefficients; counts overflow small ints fast.

    The interpreter's digit limit for str(int) (Python 3.11+; 0 means none) holds for the
    coefficients too, checked before each is converted: str(Decimal) has no limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    coeffs = {}
    for i in sorted(poly.coeffs):
        value = poly.coeffs[i]
        # An exact Decimal integer has adjusted() + 1 digits.
        if limit and value.adjusted() >= limit:
            raise ReportTooLargeError(
                "a resolving polynomial coefficient exceeds the "
                f"{limit}-digit limit for integer string conversion"
            )
        coeffs[str(i)] = str(value)
    return {"beta": poly.beta, "coeffs": coeffs}


def build_report(spec: str, caps: Caps = DEFAULT_CAPS, with_timings: bool = False) -> dict:
    """Full invariant report for one group spec; see README for the field layout."""
    group = abelian.parse_group_spec(spec)
    n, r = group.n, group.r
    report: dict = {
        "spec": spec,
        "moduli": list(group.moduli),
        "n": n,
        "r": r,
        "abelian": group.is_elementary_abelian_2(),
        "caps": caps._asdict(),
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

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        timings[name] = round(time.perf_counter() - t0, 6)
        return out

    def oracle(name, fn, arg, cap=math.inf):
        """Timed fn(arg), or None without arg (no measured graph), above cap or when fn refuses."""
        if arg is None or nv > cap:
            return None
        try:
            return timed(name, fn, arg)
        except graph.CapExceededError:
            return None

    def record(name, entry, agree, witness):
        """Every check lands here: agree=None means it did not run, False calls witness()."""
        if agree is None:
            unchecked.append(name)
            return {key: value if key == "formula" else UNCHECKED for key, value in entry.items()}
        if not agree:
            entry["witness"] = witness()
            disagreements.append({"invariant": name, "witness": entry["witness"]})
        return entry

    def compare(name, formula, observed, witness=None, encode=lambda x: x):
        """Formula-vs-oracle entry; observed=None means the oracle did not run."""
        agree = None if observed is None else formula == observed
        oracle_json = None if agree is None else encode(observed)
        entry = {"formula": encode(formula), "oracle": oracle_json, "agree": agree}
        witness = witness or (lambda: f"formula={formula} oracle={observed}")
        return record(name, entry, agree, witness)

    # The graph ceiling bounds the build whatever caps.graph a library caller passes.
    measured = nv <= min(caps.graph, graph.MAX_GRAPH_VERTICES)
    brute = timed("build", graph.build_commuting_graph, group, "all") if measured else None

    # Everything the measured graph shows; each stays None when it was not built.
    parts = match = differ = degrees = edges_o = proper = ncolors = None
    if brute is not None:
        parts = {"omega1": [], "omega2": [], "omega3": []}
        for _, kind, a, b in graph.part_runs(brute.part_labels):
            parts[kind] += range(a, b)
        # Structure: (index, XOR) of the first row that differs from the join of cliques.
        pairs = zip(brute.rows, graph.structural_rows(n, r), strict=True)
        differ = next(filter(operator.itemgetter(1), enumerate(starmap(operator.xor, pairs))), None)
        match = differ is None
        degrees = list(map(int.bit_count, brute.rows))
        edges_o = sum(degrees) // 2
        coloring = invariants.construct_coloring(brute)
        proper = invariants.is_proper_coloring(brute, coloring)
        ncolors = len(set(coloring))

    def per_part(name, what, formula_fn, values):
        """One entry per part: every vertex's value against formula_fn(n, r, part)."""
        entries = {}
        for kind in ("omega1", "omega2", "omega3"):
            f = formula_fn(n, r, kind)
            observed = bad = None
            if values is not None:
                members = parts[kind]
                wrong = map(operator.ne, map(values.__getitem__, members), repeat(f))
                bad = next(compress(members, wrong), members[0])
                observed = values[bad]
            witness = lambda: (
                f"vertex {brute.vertex_labels()[bad]} has {what} {observed}, formula says {f}"
            )
            entries[kind] = compare(f"{name}.{kind}", f, observed, witness)
        return entries

    def structure_witness():
        # The first differing row and the lowest bit of its XOR: the first pair i < j
        # of a symmetric difference, and still a pair when only one side differs.
        i, diff = differ
        labels = brute.vertex_labels()
        return f"adjacency differs at ({labels[i]}, {labels[(diff & -diff).bit_length() - 1]})"

    report["structure"] = record("structure", {"match": match}, match, structure_witness)
    report["degrees"] = per_part("degree", "degree", invariants.degree_formula, degrees)
    report["edges"] = compare("edges", invariants.edge_count_formula(n, r), edges_o)

    # One cotree for the chromatic and detour oracles; off cographs both read unchecked.
    tree = oracle("cotree", cotree.build_cotree, brute)

    # Chromatic number: explicit coloring validity plus the clique number off the cotree.
    chi_f = invariants.chromatic_number_formula(n, r)
    entry = {"proper": proper, "colors": ncolors, "agree": proper and ncolors == chi_f}
    witness = lambda: f"constructed coloring proper={proper} colors={ncolors} expected {chi_f}"
    report["coloring"] = record("coloring", entry, entry["agree"], witness)
    chi_o = oracle("chromatic", invariants.chromatic_number_oracle, tree)
    report["chromatic"] = compare("chromatic", chi_f, chi_o)

    # Detour eccentricities, radius, diameter.
    profile = oracle("detour", detour.detour_profile, tree, caps.detour)
    ecc = None if profile is None else profile.eccentricities
    rad_f, diam_f = detour.detour_radius_diameter_formula(n, r)
    rad_o, diam_o = (None, None) if profile is None else (profile.radius, profile.diameter)
    report["detour"] = {
        "ecc": per_part("detour.ecc", "detour eccentricity", detour.detour_ecc_formula, ecc),
        "radius": compare("detour.radius", rad_f, rad_o),
        "diameter": compare("detour.diameter", diam_f, diam_o),
    }

    # The resolving polynomial, and beta as its smallest size with a nonzero count.
    beta_f = resolving.metric_dimension_formula(n, r)
    poly_f = resolving.resolving_polynomial_formula(n, r)
    poly_o = oracle("poly", resolving.resolving_polynomial_oracle, brute, caps.resolving)
    beta_o = None if poly_o is None else poly_o.beta

    def poly_witness():
        sizes = sorted(set(poly_f.coeffs) | set(poly_o.coeffs))
        i = next((s for s in sizes if poly_f.coeffs.get(s) != poly_o.coeffs.get(s)), None)
        if i is None:
            return f"beta: formula={poly_f.beta} oracle={poly_o.beta}"
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


def report_to_row(report: dict) -> list[str]:
    """One sweep CSV row; blank cells where the report lacks the field (abelian rows)."""
    row = []
    for path in _CSV_PATHS:
        value = report
        for key in path:
            if value is None:
                break
            value = value.get(key)
        cell = "true" if value is True else "false" if value is False else value
        row.append("" if cell is None else str(cell))
    return row


def sweep_rows(reports: Sequence[dict]) -> Iterator[list[str]]:
    """report_to_row of each of run_sweep's reports, formatted once per report it built.

    run_sweep respells a class's report as a copy that shares its entries, the caps
    dict among them, so a respelling's row is its class's row with the spec swapped.
    """
    rows: dict[int, list[str]] = {}
    for rep in reports:
        row = rows.get(id(rep["caps"]))
        if row is None:
            row = rows[id(rep["caps"])] = report_to_row(rep)
        yield [rep["spec"], *row[1:]]


def all_abelian_specs(max_order: int) -> list[str]:
    """Specs of every direct-product spelling with order 2..max_order, in a fixed order.

    Spellings are ordered tuples of moduli >= 2, so isomorphic respellings
    such as Z6, Z2xZ3 and Z3xZ2 all appear; past MAX_SWEEP_ROWS, GroupSpecError.
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
            if len(found) > MAX_SWEEP_ROWS:
                raise abelian.GroupSpecError(f"all-abelian family exceeds {MAX_SWEEP_ROWS} rows")
        m = 2
        while prod * m <= max_order:
            prefix.append(m)
            extend(prefix, prod * m)
            prefix.pop()
            m += 1

    extend([], 1)
    found.sort(key=lambda t: (math.prod(t), len(t), t))
    return ["x".join(f"Z{m}" for m in t) for t in found]


@functools.cache
def _code_fingerprint() -> int:
    """CRC-32 of the package's *.py sources, computed once per process; it seeds the seals.

    zlib rather than hashlib: importing hashlib loads OpenSSL, which adds about
    3.5 MB to the peak RSS of every CLI run. CRC-32 catches every change of up
    to 32 consecutive bits, such as a one-character edit, and misses any other
    edit with probability 2**-32.
    """
    here = os.path.dirname(__file__)
    crc = 0
    for name in sorted(name for name in os.listdir(here) if name.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            crc = zlib.crc32(name.encode() + b"\0" + fh.read(), crc)
    return crc


def _seal(data: bytes) -> bytes:
    """A cache line's seal: the CRC-32 of its JSON seeded with the code fingerprint."""
    return b"%08x" % zlib.crc32(data, _code_fingerprint())


def cache_key(group: abelian.AbelianGroup, caps: Caps) -> str:
    """Key by G's isomorphism class, so respellings share an entry and equal (n, r) do not.

    The key names no code version: each line's seal retires other code's lines (cache_load).
    """
    divisors = "x".join(map(str, group.elementary_divisors()))
    return f"G={divisors};caps={','.join(map(str, caps))}"


def cache_load(path: str) -> dict[str, dict]:
    """Key -> report for the cache file; the last entry for a key wins.

    Each line is a seal (see _seal), a space and the entry's JSON; a line is kept if and only
    if its seal matches. So a line written by other code, edited, cut short or not UTF-8 is
    skipped, counted in one warning and dropped by a rewrite. A missing file reads as empty.
    The seal catches accidents, not intent: a line re-sealed by hand is trusted as it is.
    Any other path but a regular file is an OSError: open would block on a FIFO, say.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"cannot read cache file {path}: not a regular file")
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return {}
    sealed = [
        data for seal, _, data in (line.partition(b" ") for line in lines) if seal == _seal(data)
    ]
    entries = {entry["key"]: entry["report"] for entry in map(json.loads, sealed)}
    if len(sealed) < len(lines):
        print(
            f"warning: skipping {len(lines) - len(sealed)} of {len(lines)} lines in cache file "
            f"{path}: written by other code, edited or damaged",
            file=sys.stderr,
        )
        cache_put(path, entries)
    return entries


def cache_get(entries: dict[str, dict], key: str) -> dict | None:
    """The cached report for key, or None; run_sweep looks up each class through here."""
    return entries.get(key)


def cache_put(path: str, entries: dict[str, dict]) -> None:
    """Rewrite the cache file with one sealed line per entry (see cache_load), atomically.

    The lines go to a temp file in the same directory, which then replaces path, so a reader
    sees the old file or the new one, never a partial write; an OSError names path.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for key, report in entries.items():
                data = json.dumps({"key": key, "report": report}).encode()
                # Written in parts: joined, a large report's line would be copied again.
                fh.writelines((_seal(data), b" ", data, b"\n"))
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write cache file {path}: {exc.strerror or exc}") from exc
    finally:
        # Renamed away on success; on any failure, interrupts included, it must not linger.
        with contextlib.suppress(OSError):
            os.remove(tmp)


def report_for_spec(
    spec: str,
    caps: Caps = DEFAULT_CAPS,
    with_timings: bool = False,
    cache_file: str | None = None,
) -> dict:
    """build_report, read through the cache at cache_file if given; timed runs bypass it."""
    if with_timings:
        return build_report(spec, caps, with_timings)
    return run_sweep([spec], caps, cache_file)[0][0]


def run_sweep(
    specs: Sequence[str],
    caps: Caps = DEFAULT_CAPS,
    cache_file: str | None = None,
) -> tuple[list[dict], list[str], int]:
    """Reports for a family of specs; returns (reports, summary lines, exit code).

    One report per isomorphism class, respelled for its other spellings; one with a
    disagreement is neither cached nor served. No cache_file, no cache read or write.
    """
    groups = [abelian.parse_group_spec(spec) for spec in specs]
    entries = cache_load(cache_file) if cache_file else {}
    built: dict[str, dict] = {}  # key -> this run's agreeing report
    ordered = []
    for spec, group in zip(specs, groups):
        key = cache_key(group, caps)
        report = built.get(key) or (cache_get(entries, key) if cache_file else None)
        if report is None:
            report = build_report(spec, caps)
            if not report["disagreements"]:
                built[key] = report
        ordered.append(dict(report, spec=spec, moduli=list(group.moduli)))
    if cache_file and built:
        cache_put(cache_file, entries | built)
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
