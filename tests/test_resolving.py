"""Distances, twin classes, metric dimension, and the resolving polynomial."""

import math
import random
from itertools import combinations

import pytest

from commgraph import (
    CapExceededError,
    CommutingGraph,
    ElementaryAbelian2Error,
    distance_matrix,
    exists_resolving_set,
    is_resolving,
    metric_dimension_formula,
    metric_dimension_oracle,
    parse_group_spec,
    resolving_polynomial_formula,
    resolving_polynomial_oracle,
    twin_lower_bound,
)
from commgraph import resolving
from commgraph.graph import twin_classes
from commgraph.report import _poly_json
from commgraph.resolving import ResolvingPolynomial

from helpers import (
    brute,
    int_max_str_digits,
    members_with_at_most,
    metric_dimension_naive,
    non_abelian_specs,
    random_graph,
    resolving_counts_naive,
)

# (spec, beta, coefficient list from beta up to 2n), all oracle-confirmed
POLYNOMIALS = [
    ("Z3", 3, [6, 11, 6, 1]),
    ("Z4", 4, [16, 32, 24, 8, 1]),
    ("Z5", 7, [20, 29, 10, 1]),
    ("Z6", 7, [64, 144, 128, 56, 12, 1]),
    ("Z8", 10, [192, 512, 560, 320, 100, 16, 1]),
    ("Z9", 15, [72, 89, 18, 1]),
    ("Z2xZ4", 12, [256, 256, 96, 16, 1]),
]


def test_distance_matrix_z3():
    dm = distance_matrix(brute("Z3"))
    assert dm[0] == (0, 1, 1, 1, 1, 1)
    assert dm[1] == (1, 0, 1, 2, 2, 2)
    assert dm[3] == (1, 2, 2, 0, 2, 2)
    for i in range(6):
        assert dm[i][i] == 0
        for j in range(6):
            assert dm[i][j] == dm[j][i]


def test_distance_matrix_diameter_is_two():
    # the center is adjacent to everything, so no distance exceeds 2
    for spec in ["Z4", "Z6", "Z2xZ4"]:
        dm = distance_matrix(brute(spec))
        assert max(max(row) for row in dm) == 2


def test_distance_matrix_rejects_disconnected():
    with pytest.raises(ValueError):
        distance_matrix(CommutingGraph((0, 0)))


def test_distance_vectors_example():
    # landmarks (1;+), (0;-), (2;-) separate all six vertices of D(Z3)
    g = brute("Z3")
    dm = distance_matrix(g)
    landmarks = [1, 3, 4]
    vectors = [tuple(dm[v][s] for s in landmarks) for v in range(6)]
    assert vectors == [
        (1, 1, 1),
        (0, 2, 2),
        (1, 2, 2),
        (2, 0, 2),
        (2, 2, 0),
        (2, 2, 2),
    ]
    assert is_resolving(g, landmarks)


def test_twin_sets_z3():
    assert twin_classes(brute("Z3")) == ((0,), (1, 2), (3, 4, 5))


def test_twin_sets_z4():
    assert twin_classes(brute("Z4")) == ((0, 1), (2, 3), (4, 5), (6, 7))


def test_twin_sets_z6():
    assert twin_classes(brute("Z6")) == ((0, 1), (2, 3, 4, 5), (6, 7), (8, 9), (10, 11))
    assert twin_lower_bound(brute("Z6")) == 1 + 3 + 1 + 1 + 1


@pytest.mark.parametrize("spec", ["Z4", "Z6", "Z8", "Z2xZ4", "Z4xZ3", "Z2xZ6"])
def test_twin_sets_are_exactly_the_parts_when_blocks_are_nontrivial(spec):
    # needs r >= 1: singleton blocks (r = 0) merge into one open-twin class
    g = brute(spec)
    parts: dict[str, list[int]] = {}
    for v, pl in enumerate(g.part_labels):
        parts.setdefault(pl, []).append(v)
    assert twin_classes(g) == tuple(sorted(tuple(vs) for vs in parts.values()))


def test_twins_share_neighborhoods():
    for spec in ["Z3", "Z6", "Z2xZ4"]:
        g = brute(spec)
        for tset in twin_classes(g):
            for u, v in combinations(tset, 2):
                open_u = g.rows[u] & ~(1 << v)
                open_v = g.rows[v] & ~(1 << u)
                closed_u = g.rows[u] | (1 << u)
                closed_v = g.rows[v] | (1 << v)
                assert open_u == open_v or closed_u == closed_v


def test_is_resolving_edge_cases():
    g = brute("Z3")
    assert not is_resolving(g, [])
    assert is_resolving(g, range(6))
    assert not is_resolving(g, [0, 1])  # below beta
    assert is_resolving(g, [1, 1, 3, 4])  # duplicates collapse
    with pytest.raises(IndexError):
        is_resolving(g, [6])
    single = CommutingGraph((0,))
    assert is_resolving(single, [])


def test_resolving_monotone_under_supersets():
    rng = random.Random(23)
    for spec in ["Z3", "Z4", "Z6", "Z2xZ4"]:
        g = brute(spec)
        nv = g.n_vertices
        for _ in range(100):
            smaller = [v for v in range(nv) if rng.random() < 0.5]
            extra = [v for v in range(nv) if rng.random() < 0.3]
            larger = sorted(set(smaller) | set(extra))
            if is_resolving(g, smaller):
                assert is_resolving(g, larger)


def test_metric_dimension_formula_values():
    assert metric_dimension_formula(3, 0) == 3
    assert metric_dimension_formula(5, 0) == 7
    assert metric_dimension_formula(9, 0) == 15
    assert metric_dimension_formula(4, 1) == 4
    assert metric_dimension_formula(6, 1) == 7
    assert metric_dimension_formula(8, 1) == 10
    assert metric_dimension_formula(8, 2) == 12
    with pytest.raises(ElementaryAbelian2Error):
        metric_dimension_formula(4, 2)


def test_metric_dimension_oracle_equals_formula_up_to_cap():
    for spec in members_with_at_most(non_abelian_specs(16), 16):
        group = parse_group_spec(spec)
        g = brute(spec)
        assert metric_dimension_oracle(g) == metric_dimension_formula(group.n, group.r), spec


@pytest.mark.parametrize("spec", ["Z3", "Z4", "Z6", "Z2xZ4"])
def test_no_smaller_resolving_set(spec):
    group = parse_group_spec(spec)
    beta = metric_dimension_formula(group.n, group.r)
    assert exists_resolving_set(brute(spec), beta)
    assert not exists_resolving_set(brute(spec), beta - 1)


def test_metric_dimension_oracle_matches_naive_on_random_graphs():
    rng = random.Random(31)
    for _ in range(20):
        nv = rng.randint(2, 8)
        g = random_graph(rng, nv, 0.5, connected=True)
        assert metric_dimension_oracle(g) == metric_dimension_naive(g)


def test_twin_bound_never_exceeds_the_oracle():
    rng = random.Random(37)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 8), 0.5, connected=True)
        assert twin_lower_bound(g) <= metric_dimension_oracle(g)


@pytest.mark.parametrize("spec,beta,coeffs", POLYNOMIALS)
def test_polynomial_formula_frozen_values(spec, beta, coeffs):
    group = parse_group_spec(spec)
    poly = resolving_polynomial_formula(group.n, group.r)
    assert poly.beta == beta
    assert poly.n_vertices == 2 * group.n
    assert poly.coefficient_list() == coeffs


def test_polynomial_leading_coefficients():
    for n, r in [(6, 1), (8, 1), (8, 2), (12, 1), (12, 2), (9, 0), (20, 2)]:
        poly = resolving_polynomial_formula(n, r)
        assert poly.coeffs[2 * n] == 1
        assert poly.coeffs[2 * n - 1] == 2 * n


def test_polynomial_self_check_raises_on_a_wrong_count(monkeypatch):
    original = resolving._coefficients

    def off_by_one(n, c, m):
        coeffs = original(n, c, m)
        coeffs[2 * n - 1] += 1
        return coeffs

    monkeypatch.setattr(resolving, "_coefficients", off_by_one)
    with pytest.raises(ArithmeticError):
        resolving_polynomial_formula(6, 1)


def binomial_polynomial(n, r):
    """Reference: the coefficient at i is (n-c) c^a C(m, a) + c^b C(m, b), a = 2n-i-1, b = 2n-i."""
    c = 1 << r
    m = n // c + 1
    beta = 2 * n - m - 1
    coeffs = {}
    for i in range(beta, 2 * n + 1):
        a, b = 2 * n - i - 1, 2 * n - i
        s = 0
        if 0 <= a <= m:
            s += (n - c) * c**a * math.comb(m, a)
        if 0 <= b <= m:
            s += c**b * math.comb(m, b)
        coeffs[i] = s
    return beta, coeffs


def test_polynomial_formula_equals_the_binomial_expression():
    # Every valid (n, r) with r >= 1: 2**r divides n, and n = 2**r (abelian D(G)) is excluded.
    checked = 0
    for n in range(3, 129):
        r = 1
        while n % (1 << r) == 0 and 1 << r < n:
            poly = resolving_polynomial_formula(n, r)
            assert (poly.beta, poly.coeffs) == binomial_polynomial(n, r), (n, r)
            checked += 1
            r += 1
    assert checked == 120


def test_polynomial_total_closed_forms():
    # r = 0: the total count collapses to 2n(n+1)
    for n in (3, 5, 7, 9, 15):
        assert resolving_polynomial_formula(n, 0).total() == 2 * n * (n + 1)
    # r >= 1: (n - 2**r + 1) * (2**r + 1)**(n/2**r + 1)
    for n, r in [(4, 1), (6, 1), (8, 1), (8, 2), (12, 1), (12, 2), (16, 3)]:
        c = 1 << r
        expected = (n - c + 1) * (c + 1) ** (n // c + 1)
        assert resolving_polynomial_formula(n, r).total() == expected


def test_polynomial_formula_is_exact_at_scale():
    # Coefficients of up to 1959 digits (Z8192: n = 8192, r = 1) and 4943 (n = 2**19, r = 8),
    # which Decimal arithmetic under the default 28-digit context would round.
    with int_max_str_digits(0):
        for n, r in [(8192, 1), (1 << 19, 8)]:
            c = 1 << r
            m = n // c + 1
            # R(1) = (c + 1)^m (n - c + 1)
            assert resolving_polynomial_formula(n, r).total() == (c + 1) ** m * (n - c + 1), r
        # Z8192: the coefficient at 2n - k is c^k C(m, k) + (n - c) c^(k-1) C(m, k-1). Size n
        # lies below beta, so beta, the middle size, 2n - 1 and 2n are checked.
        n, c, m = 8192, 2, 4097
        poly = resolving_polynomial_formula(n, 1)
        assert poly.beta == 2 * n - m - 1
        for size in (poly.beta, (poly.beta + 2 * n) // 2, 2 * n - 1, 2 * n):
            k = 2 * n - size
            expected = c**k * math.comb(m, k)
            if k:
                expected += (n - c) * c ** (k - 1) * math.comb(m, k - 1)
            assert poly.coeffs[size] == expected, size
    assert all(text.isdigit() for text in _poly_json(poly)["coeffs"].values())


@pytest.mark.parametrize("spec", ["Z3", "Z4", "Z5", "Z6", "Z8", "Z2xZ4"])
def test_polynomial_oracle_equals_formula(spec):
    group = parse_group_spec(spec)
    assert resolving_polynomial_oracle(brute(spec)) == resolving_polynomial_formula(
        group.n, group.r
    )


def test_polynomial_oracle_matches_naive_counts_on_random_graphs():
    rng = random.Random(41)
    graphs = [random_graph(rng, rng.randint(2, 8), 0.5, connected=True) for _ in range(10)]
    # At p = 0.5 these are twin-free, so each type is one vertex and the count vectors
    # are the vertex subsets; the small, sparse and dense ones add twin classes.
    graphs += [
        random_graph(rng, nv, p, connected=True) for p in (0.2, 0.5, 0.8) for nv in range(9, 13)
    ]
    for g in graphs:
        poly = resolving_polynomial_oracle(g)
        assert dict(poly.coeffs) == resolving_counts_naive(g)
        assert poly.beta == metric_dimension_naive(g)


def test_polynomial_oracle_equals_formula_on_every_class_up_to_order_96():
    groups = {}
    for spec in non_abelian_specs(96):
        groups.setdefault(parse_group_spec(spec).elementary_divisors(), spec)
    assert len(groups) == 169
    for spec in groups.values():
        group = parse_group_spec(spec)
        g = brute(spec)
        poly = resolving_polynomial_oracle(g)
        assert poly == resolving_polynomial_formula(group.n, group.r), spec


def test_polynomial_oracle_edge_cases():
    assert resolving_polynomial_oracle(CommutingGraph(())) == ResolvingPolynomial(0, 0, {0: 1})
    assert resolving_polynomial_oracle(CommutingGraph((0,))) == ResolvingPolynomial(
        0, 1, {0: 1, 1: 1}
    )
    with pytest.raises(ValueError, match="^graph is disconnected: vertex 1 unreached from 0$"):
        resolving_polynomial_oracle(CommutingGraph((0, 0)))


@pytest.mark.parametrize("spec", ["Z2xZ8", "Z6"])
def test_polynomial_oracle_runs_one_bfs_per_type(spec, monkeypatch):
    # omega1, omega2 and the blocks are the three types; a pair inside one type never fails.
    sources = []

    def counted(graph, src):
        sources.append(src)
        return real(graph, src)

    real = resolving._levels
    monkeypatch.setattr(resolving, "_levels", counted)
    group = parse_group_spec(spec)
    g = brute(spec)
    poly = resolving_polynomial_oracle(g)
    assert poly == resolving_polynomial_formula(group.n, group.r)
    assert len(sources) == 3


def test_caps_and_guards():
    big = brute("Z9")  # 18 vertices
    with pytest.raises(CapExceededError):
        metric_dimension_oracle(big)
    # the polynomial oracle has no vertex cap: its count vectors bound the work
    assert resolving_polynomial_oracle(big).coefficient_list() == [
        72,
        89,
        18,
        1,
    ]
    with pytest.raises(ValueError):
        exists_resolving_set(brute("Z3"), -1)
    with pytest.raises(ValueError):
        exists_resolving_set(CommutingGraph((0, 0)), 2)
