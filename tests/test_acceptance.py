"""Acceptance gate: every contracted check, one printed verdict line per criterion.

Each test times its own work, prints
    ACCEPTANCE <k> <name>: PASS|FAIL (<elapsed> < <budget>s)
to the live terminal, and then asserts. All checks are exact; the budgets are
wall-clock ceilings for the whole criterion.
"""

import random
import time
from itertools import combinations

import pytest

from commgraph import (
    all_abelian_specs,
    all_elements,
    build_commuting_graph,
    build_cotree,
    build_structural_graph,
    center,
    chromatic_number_oracle,
    commutes,
    commutes_by_multiplication,
    construct_coloring,
    degree_formula,
    detour_ecc_formula,
    detour_profile,
    detour_radius_diameter_formula,
    edge_count_formula,
    edge_sets_equal,
    exists_resolving_set,
    is_proper_coloring,
    is_resolving,
    metric_dimension_formula,
    metric_dimension_oracle,
    parse_group_spec,
    resolving_polynomial_formula,
    resolving_polynomial_oracle,
)
from commgraph import cli, detour, invariants, resolving
from commgraph.graph import twin_classes
from commgraph.resolving import ResolvingPolynomial

from helpers import FAMILY14, members_with_at_most, non_abelian_specs, random_graph


def _verdict(capsys, number, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s < {budget:.0f}s)")


def _graph(spec):
    return build_commuting_graph(parse_group_spec(spec), "all")


def test_criterion_1_structural_decomposition(capsys):
    budget = 1.0
    t0 = time.perf_counter()
    family = non_abelian_specs(16)
    failures = []
    for spec in family:
        group = parse_group_spec(spec)
        if not edge_sets_equal(_graph(spec), build_structural_graph(group.n, group.r)):
            failures.append(spec)
    elapsed = time.perf_counter() - t0
    covered = set(family) >= set(FAMILY14)
    ok = not failures and covered and elapsed < budget
    _verdict(capsys, 1, "structural decomposition", ok, elapsed, budget)
    assert covered, "family must include all fourteen named members"
    assert not failures, failures
    assert elapsed < budget


def test_criterion_2_degrees_and_edges(capsys):
    budget = 1.0
    t0 = time.perf_counter()
    failures = []
    for spec in non_abelian_specs(16):
        group = parse_group_spec(spec)
        g = _graph(spec)
        for v, pl in enumerate(g.part_labels):
            if g.degree(v) != degree_formula(group.n, group.r, pl):
                failures.append((spec, v))
        if g.edge_count() != edge_count_formula(group.n, group.r):
            failures.append((spec, "edges"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _verdict(capsys, 2, "degrees and edges", ok, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget


def test_criterion_3_chromatic_number(capsys):
    budget = 10.0
    t0 = time.perf_counter()
    failures = []
    for spec in members_with_at_most(non_abelian_specs(16), 24):
        group = parse_group_spec(spec)
        g = _graph(spec)
        colors = construct_coloring(g)
        if not (is_proper_coloring(g, colors) and len(set(colors)) == group.n):
            failures.append((spec, "construction"))
        if chromatic_number_oracle(build_cotree(g)) != group.n:
            failures.append((spec, "oracle"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _verdict(capsys, 3, "chromatic number", ok, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget


def test_criterion_4_detour_eccentricities(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    family = members_with_at_most(non_abelian_specs(16), 20)
    regimes = set()
    failures = []
    for spec in family:
        group = parse_group_spec(spec)
        c = 2 ** group.r
        q = group.n // c
        regimes.add("lt" if q < c else "eq" if q == c else "gt")
        g = _graph(spec)
        prof = detour_profile(build_cotree(g))
        for v, pl in enumerate(g.part_labels):
            if prof.eccentricities[v] != detour_ecc_formula(group.n, group.r, pl):
                failures.append((spec, v))
        if (prof.radius, prof.diameter) != detour_radius_diameter_formula(
            group.n, group.r
        ):
            failures.append((spec, "radius/diameter"))
    elapsed = time.perf_counter() - t0
    ok = not failures and regimes == {"lt", "eq", "gt"} and elapsed < budget
    _verdict(capsys, 4, "detour eccentricities", ok, elapsed, budget)
    assert regimes == {"lt", "eq", "gt"}, "family must cover all three branch regimes"
    assert not failures, failures
    assert elapsed < budget


def test_criterion_5_metric_dimension(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    failures = []
    for spec in members_with_at_most(non_abelian_specs(16), 16):
        group = parse_group_spec(spec)
        g = _graph(spec)
        beta = metric_dimension_formula(group.n, group.r)
        if metric_dimension_oracle(g) != beta:
            failures.append((spec, "minimum"))
        if exists_resolving_set(g, beta - 1):
            failures.append((spec, "smaller set resolves"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _verdict(capsys, 5, "metric dimension", ok, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget


def test_criterion_6_resolving_polynomial(capsys):
    budget = 120.0
    t0 = time.perf_counter()
    failures = []

    def check(spec, expected_coeffs=None):
        group = parse_group_spec(spec)
        pf = resolving_polynomial_formula(group.n, group.r)
        po = resolving_polynomial_oracle(_graph(spec))
        if pf != po:
            failures.append((spec, "oracle"))
        if expected_coeffs is not None and pf.coefficient_list() != expected_coeffs:
            failures.append((spec, "frozen coefficients"))
        return pf

    check("Z3", [6, 11, 6, 1])
    check("Z4", [16, 32, 24, 8, 1])
    check("Z5", [20, 29, 10, 1])
    z6 = check("Z6")
    if z6.coeffs[7] != 64:
        failures.append(("Z6", "s_7"))
    check("Z2xZ4")  # all 2**16 subsets swept
    check("Z9")  # same closed form at r = 0, on 18 vertices
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _verdict(capsys, 6, "resolving polynomial", ok, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget


def test_criterion_7_property_suites(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    failures = []

    # commutation criterion vs definitional multiplication, exhaustive to 24 elements
    for spec in all_abelian_specs(12):
        group = parse_group_spec(spec)
        elems = all_elements(group)
        for x in elems:
            for y in elems:
                if commutes(group, x, y) != commutes_by_multiplication(group, x, y):
                    failures.append(("commutes", spec, x, y))
        scan = [
            x
            for x in elems
            if all(commutes_by_multiplication(group, x, y) for y in elems)
        ]
        if list(center(group)) != scan:
            failures.append(("center", spec))

    # handshake identity on every constructed graph
    for spec in non_abelian_specs(16):
        g = _graph(spec)
        if sum(g.degree(v) for v in range(g.n_vertices)) != 2 * g.edge_count():
            failures.append(("handshake", spec))

    # resolving-set monotonicity, 200 seeded random subset pairs per graph
    rng = random.Random(97)
    for spec in members_with_at_most(non_abelian_specs(16), 18):
        g = _graph(spec)
        nv = g.n_vertices
        for _ in range(200):
            smaller = [v for v in range(nv) if rng.random() < 0.5]
            larger = sorted(set(smaller) | {rng.randrange(nv) for _ in range(3)})
            if is_resolving(g, smaller) and not is_resolving(g, larger):
                failures.append(("monotonicity", spec, smaller, larger))

    # twin-set constraint: a resolving set misses at most one vertex per twin-set,
    # checked on every minimum-size resolving set; dropping two twins never resolves
    for spec in ["Z3", "Z4", "Z6"]:
        group = parse_group_spec(spec)
        g = _graph(spec)
        beta = metric_dimension_formula(group.n, group.r)
        twins = [c for c in twin_classes(g) if len(c) > 1]
        found = 0
        for subset in combinations(range(g.n_vertices), beta):
            if not is_resolving(g, subset):
                continue
            found += 1
            chosen = set(subset)
            if any(len(set(t) - chosen) > 1 for t in twins):
                failures.append(("twin constraint", spec, subset))
        if found != resolving_polynomial_formula(group.n, group.r).coeffs[beta]:
            failures.append(("minimum set count", spec, found))
        for t in twins:
            gap = set(t[:2])
            holed = [v for v in range(g.n_vertices) if v not in gap]
            if is_resolving(g, holed):
                failures.append(("twin converse", spec, t))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _verdict(capsys, 7, "property suites", ok, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget


def test_criterion_8_disagreement_protocol(capsys):
    budget = 60.0
    t0 = time.perf_counter()

    def off_by_one(fn):
        def wrapped(*args, **kwargs):
            return fn(*args, **kwargs) + 1

        return wrapped

    def shifted_pair(fn):
        def wrapped(*args, **kwargs):
            rad, diam = fn(*args, **kwargs)
            return rad + 1, diam + 1

        return wrapped

    def shifted_poly(fn):
        def wrapped(*args, **kwargs):
            poly = fn(*args, **kwargs)
            coeffs = dict(poly.coeffs)
            coeffs[poly.beta] += 1
            return ResolvingPolynomial(poly.beta, poly.n_vertices, coeffs)

        return wrapped

    mutations = [
        (invariants, "degree_formula", off_by_one, "degree."),
        (invariants, "edge_count_formula", off_by_one, " edges: "),
        (invariants, "chromatic_number_formula", off_by_one, "chromatic"),
        (detour, "detour_ecc_formula", off_by_one, "detour.ecc"),
        (detour, "detour_radius_diameter_formula", shifted_pair, "detour.radius"),
        (resolving, "metric_dimension_formula", off_by_one, "resolving.beta"),
        (resolving, "resolving_polynomial_formula", shifted_poly, "resolving.poly"),
    ]

    failures = []
    assert cli.run(["sweep", "Z6", "--no-cache"]) == 0, "clean sweep must pass"
    capsys.readouterr()
    for module, name, wrapper, token in mutations:
        original = getattr(module, name)
        setattr(module, name, wrapper(original))
        try:
            code = cli.run(["sweep", "Z6", "--no-cache"])
            out = capsys.readouterr().out
        finally:
            setattr(module, name, original)
        if code != 2:
            failures.append((name, "exit code", code))
        if "DISAGREE Z6" not in out or token not in out:
            failures.append((name, "witness missing", token))
    code = cli.run(["sweep", "Z6", "--no-cache"])
    capsys.readouterr()
    if code != 0:
        failures.append(("restored", "exit code", code))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    _verdict(capsys, 8, "disagreement protocol", ok, elapsed, budget)
    assert not failures, failures
    assert elapsed < budget
