"""Independent output checker for the commgraph benchmark.

Every expected value is derived here from (n, r) alone, from the shape of the
commuting graph (a 2**r-clique joined to an (n - 2**r)-clique plus n/2**r
further 2**r-cliques). Nothing is imported from commgraph, so a mutated
formula in the program cannot make its own output look right.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from math import comb, prod

UNCHECKED = "unchecked"

CSV_COLUMNS = (
    "spec,n,r,blocks,edges_f,edges_o,chi_f,chi_o,eccO1_f,eccO1_o,eccO23_f,eccO23_o,"
    "radD,diamD,beta_f,beta_o,poly_agree,agree_all"
).split(",")

# Sweep CSV columns that hold an oracle result; each is one check.
CSV_ORACLE_COLUMNS = ("edges_o", "chi_o", "eccO1_o", "eccO23_o", "beta_o", "poly_agree")

# Names a report may list under "unchecked"; each is one check.
REPORT_CHECKS = (
    "structure",
    "degree.omega1",
    "degree.omega2",
    "degree.omega3",
    "edges",
    "coloring",
    "chromatic",
    "detour.ecc.omega1",
    "detour.ecc.omega2",
    "detour.ecc.omega3",
    "detour.radius",
    "detour.diameter",
    "resolving.beta",
    "resolving.poly",
)

_FACTOR = re.compile(r"[Zz](\d+)\Z")


def parse_spec(spec: str) -> tuple[int, ...]:
    """Moduli of a 'Z4xZ2'-style spec, Z1 factors dropped."""
    moduli = []
    for token in re.split("[xX]", spec.strip()):
        m = _FACTOR.match(token)
        if not m:
            raise ValueError(f"bad spec {spec!r}")
        if int(m.group(1)) > 1:
            moduli.append(int(m.group(1)))
    return tuple(moduli)


def order_and_rank(moduli: tuple[int, ...]) -> tuple[int, int]:
    """(n, r): group order and the number of even factors (2**r involutions)."""
    return prod(moduli), sum(1 for m in moduli if m % 2 == 0)


def ordered_factorizations(max_order: int) -> list[tuple[int, ...]]:
    """Every tuple of moduli >= 2 with product <= max_order, by (order, length, tuple)."""
    by_order: dict[int, list[tuple[int, ...]]] = {1: [()]}
    for p in range(2, max_order + 1):
        by_order[p] = [
            (d,) + rest for d in range(2, p + 1) if p % d == 0 for rest in by_order[p // d]
        ]
    out = []
    for p in range(2, max_order + 1):
        out.extend(sorted(by_order[p], key=lambda t: (len(t), t)))
    return out


def spec_of(moduli: tuple[int, ...]) -> str:
    return "x".join(f"Z{m}" for m in moduli)


@dataclass(frozen=True)
class Expected:
    """Invariants of the commuting graph of a non-abelian D(G) with |G| = n, 2**r involutions."""

    n: int
    r: int

    @property
    def c(self) -> int:
        return 1 << self.r

    @property
    def q(self) -> int:
        return self.n // self.c

    def degrees(self) -> dict[str, int]:
        # Central vertices see everything; other rotations see their clique and
        # the centre; a reflection sees its block and the centre.
        n, c = self.n, self.c
        return {"omega1": 2 * n - 1, "omega2": c + (n - c - 1), "omega3": c + (c - 1)}

    def edges(self) -> int:
        n, c, q = self.n, self.c, self.q
        return comb(c, 2) + c * (2 * n - c) + comb(n - c, 2) + q * comb(c, 2)

    def chromatic(self) -> int:
        # Joins of cliques are perfect: chromatic number = largest clique,
        # either all rotations (n) or the centre plus one block (2c).
        return max(self.n, 2 * self.c)

    def detour(self) -> dict[str, int]:
        """Longest simple path from each part, in edges.

        Components of G minus the centre are the rotation clique and the q
        blocks; a path alternates components and central vertices, so with c
        central vertices it enters at most c + 1 components (c if it starts
        at a central vertex), each traversed completely.
        """
        n, c, q = self.n, self.c, self.q
        from_centre = c + (n - c) + min(q, c - 1) * c
        from_rotation = (n - c) + min(q, c) * c + c
        from_block = c + (n - c) + min(q - 1, c - 1) * c + c
        return {
            "omega1": from_centre - 1,
            "omega2": from_rotation - 1,
            "omega3": from_block - 1,
        }

    def twin_classes(self) -> list[int]:
        """Sizes of the twin classes with two or more vertices."""
        n, c, q = self.n, self.c, self.q
        if self.r == 0:
            # The lone central vertex has no twin; the n reflections share the
            # open neighbourhood {centre}; the other rotations form a clique.
            return [n, n - 1]
        return [c, n - c] + [c] * q

    def beta(self) -> int:
        """Metric dimension: one vertex of each twin class may be left out."""
        return sum(size - 1 for size in self.twin_classes())

    def poly_endpoints(self) -> dict[int, int]:
        """Resolving-set counts at beta (choose the omitted twin), 2n-1 and 2n."""
        nv = 2 * self.n
        return {self.beta(): prod(self.twin_classes()), nv - 1: nv, nv: 1}


def check_count(specs, sweep: bool) -> int:
    """Checks an output holds: six oracle columns per non-abelian sweep row, or one report."""
    if not sweep:
        return len(REPORT_CHECKS)
    ranks = (order_and_rank(parse_spec(spec)) for spec in specs)
    return len(CSV_ORACLE_COLUMNS) * sum(1 for n, r in ranks if n != 1 << r)


@dataclass
class Verdict:
    """Problems found in one output, plus checks decided and checks in total."""

    problems: list[str]
    decided: int = 0
    total: int = 0


def check_sweep_csv(text: str, specs: list[str]) -> Verdict:
    """Check a sweep CSV row by row against values derived from each spec."""
    v = Verdict([])
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_COLUMNS:
        v.problems.append(f"header {rows[0] if rows else None!r}")
        return v
    ragged = [i for i, row in enumerate(rows[1:], start=2) if len(row) != len(CSV_COLUMNS)]
    if ragged:
        v.problems.append(f"CSV lines {ragged[:5]} do not have {len(CSV_COLUMNS)} cells")
        return v
    body = [dict(zip(CSV_COLUMNS, row)) for row in rows[1:]]
    if [row["spec"] for row in body] != specs:
        v.problems.append(f"spec column differs from the {len(specs)} specs given, in order")
        return v
    for row in body:
        _check_row(row, v)
    return v


def _check_row(row: dict[str, str], v: Verdict) -> None:
    spec = row["spec"]
    n, r = order_and_rank(parse_spec(spec))
    bad = v.problems
    if (row["n"], row["r"]) != (str(n), str(r)):
        bad.append(f"{spec}: n,r = {row['n']},{row['r']}, expected {n},{r}")
        return
    if row["agree_all"] != "true":
        bad.append(f"{spec}: agree_all={row['agree_all']!r}")
    if n == 1 << r:  # elementary abelian 2-group: D(G) abelian, no checks
        blank = [col for col in CSV_COLUMNS[3:-1] if row[col] != ""]
        if blank:
            bad.append(f"{spec}: abelian row fills {blank}")
        return
    e = Expected(n, r)
    ecc = e.detour()
    want = {
        "blocks": e.q,
        "edges": e.edges(),
        "chi": e.chromatic(),
        "eccO1": ecc["omega1"],
        "eccO23": ecc["omega2"],  # equal to ecc["omega3"] for every (n, r)
        "beta": e.beta(),
    }
    if row["blocks"] != str(want["blocks"]):
        bad.append(f"{spec}: blocks={row['blocks']!r}, expected {want['blocks']}")
    for key in ("edges", "chi", "eccO1", "eccO23", "beta"):
        if row[f"{key}_f"] != str(want[key]):
            bad.append(f"{spec}: {key}_f={row[key + '_f']!r}, expected {want[key]}")
        if row[f"{key}_o"] not in (str(want[key]), UNCHECKED):
            bad.append(f"{spec}: {key}_o={row[key + '_o']!r}, expected {want[key]}")
    if row["radD"] != str(min(ecc.values())) or row["diamD"] != str(max(ecc.values())):
        bad.append(f"{spec}: radD,diamD = {row['radD']},{row['diamD']}")
    if row["poly_agree"] not in ("true", UNCHECKED):
        bad.append(f"{spec}: poly_agree={row['poly_agree']!r}")
    v.total += len(CSV_ORACLE_COLUMNS)
    v.decided += sum(1 for col in CSV_ORACLE_COLUMNS if row[col] != UNCHECKED)


def _check_entry(name: str, entry, want: int, unchecked: set[str], bad: list[str]) -> None:
    if not isinstance(entry, dict) or entry.get("formula") != want:
        bad.append(f"{name}: {entry!r}, expected formula {want}")
        return
    if name in unchecked:
        if entry.get("oracle") != UNCHECKED or entry.get("agree") != UNCHECKED:
            bad.append(f"{name}: listed unchecked but reads {entry!r}")
    elif entry.get("oracle") != want or entry.get("agree") is not True:
        bad.append(f"{name}: {entry!r}, expected oracle {want}")


def _check_poly(name: str, poly, e: Expected, bad: list[str]) -> None:
    nv = 2 * e.n
    beta = e.beta()
    if not isinstance(poly, dict) or poly.get("beta") != beta:
        bad.append(f"{name}: {str(poly)[:80]}, expected beta {beta}")
        return
    coeffs = poly.get("coeffs")
    keys = [str(i) for i in range(beta, nv + 1)]
    if not isinstance(coeffs, dict) or sorted(coeffs, key=int) != keys:
        bad.append(f"{name}: coefficient sizes are not {beta}..{nv}")
        return
    for size, count in e.poly_endpoints().items():
        text = coeffs[str(size)]
        if not (isinstance(text, str) and text.isdigit() and int(text) == count):
            bad.append(f"{name}: s_{size} differs from the expected {count.bit_length()}-bit count")


def check_report_json(text: str, spec: str) -> Verdict:
    """Check a `report` JSON document against values derived from the spec.

    Coefficients can exceed the interpreter's default 4300-digit limit for
    int/str conversion; callers lift it with sys.set_int_max_str_digits(0).
    """
    v = Verdict([], total=len(REPORT_CHECKS))
    bad = v.problems
    try:
        rep = json.loads(text)
    except ValueError as exc:
        bad.append(f"report is not JSON: {exc}")
        return v
    moduli = parse_spec(spec)
    n, r = order_and_rank(moduli)
    head = {"spec": spec, "moduli": list(moduli), "n": n, "r": r, "abelian": False}
    for key, want in head.items():
        if rep.get(key) != want:
            bad.append(f"{key}={rep.get(key)!r}, expected {want!r}")
    if bad:
        return v
    e = Expected(n, r)
    unchecked = rep.get("unchecked")
    if not isinstance(unchecked, list) or not set(unchecked) <= set(REPORT_CHECKS):
        bad.append(f"unchecked={unchecked!r}")
        return v
    skipped = set(unchecked)
    v.decided = len(REPORT_CHECKS) - len(skipped)
    if rep.get("blocks") != e.q or rep.get("vertex_count") != 2 * n:
        bad.append(f"blocks,vertex_count = {rep.get('blocks')},{rep.get('vertex_count')}")
    match = rep.get("structure", {}).get("match")
    if not (match == UNCHECKED if "structure" in skipped else match is True):
        bad.append(f"structure.match={match!r}")
    for kind, want in e.degrees().items():
        _check_entry(f"degree.{kind}", rep.get("degrees", {}).get(kind), want, skipped, bad)
    _check_entry("edges", rep.get("edges"), e.edges(), skipped, bad)
    coloring = rep.get("coloring", {})
    if "coloring" in skipped:
        want_coloring = {"proper": UNCHECKED, "colors": UNCHECKED, "agree": UNCHECKED}
    else:
        want_coloring = {"proper": True, "colors": e.chromatic(), "agree": True}
    if coloring != want_coloring:
        bad.append(f"coloring={coloring!r}")
    _check_entry("chromatic", rep.get("chromatic"), e.chromatic(), skipped, bad)
    detour = rep.get("detour", {})
    ecc = e.detour()
    for kind, want in ecc.items():
        _check_entry(f"detour.ecc.{kind}", detour.get("ecc", {}).get(kind), want, skipped, bad)
    _check_entry("detour.radius", detour.get("radius"), min(ecc.values()), skipped, bad)
    _check_entry("detour.diameter", detour.get("diameter"), max(ecc.values()), skipped, bad)
    resolving = rep.get("resolving", {})
    _check_entry("resolving.beta", resolving.get("beta"), e.beta(), skipped, bad)
    poly = resolving.get("poly", {})
    _check_poly("resolving.poly.formula", poly.get("formula"), e, bad)
    if "resolving.poly" in skipped:
        if poly.get("oracle") != UNCHECKED or poly.get("agree") != UNCHECKED:
            bad.append("resolving.poly: listed unchecked but has an oracle result")
    else:
        _check_poly("resolving.poly.oracle", poly.get("oracle"), e, bad)
        if poly.get("agree") is not True:
            bad.append(f"resolving.poly.agree={poly.get('agree')!r}")
    if rep.get("disagreements") != [] or rep.get("agree_all") is not True:
        bad.append(f"disagreements={rep.get('disagreements')!r} agree_all={rep.get('agree_all')!r}")
    return v
