"""Twin classes, the per-class oracles built on them and the cotree detour profile,
on random graphs, module blow-ups and random cographs."""

import random
import sys
import time
import tracemalloc
from decimal import Decimal

import pytest

from commgraph import (
    CapExceededError,
    CommutingGraph,
    Cotree,
    build_cotree,
    chromatic_number_oracle,
    detour_ecc_oracle,
    detour_ecc_reference,
    detour_profile,
    resolving_polynomial_oracle,
)
from commgraph.graph import twin_classes

from helpers import (
    MAX_DRAWS,
    brute,
    chromatic_brute,
    has_induced_p4,
    is_connected,
    module_blowup,
    non_abelian_specs,
    random_cograph,
    random_graph,
    relabelled,
    resolving_counts_naive,
    twin_classes_per_vertex,
)


def _graphs():
    """300 seeded graphs: random ones on 1-10 vertices and module blow-ups, some disconnected."""
    rng = random.Random(2010)
    out = []
    for k in range(300):
        connected = rng.random() < 0.7
        if k % 2:
            out.append(random_graph(rng, rng.randint(1, 10), rng.uniform(0.3, 0.8), connected))
        else:
            out.append(module_blowup(rng, connected))
    return out


GRAPHS = _graphs()


def _swap_is_automorphism(g, u, v) -> bool:
    def image(x):
        return v if x == u else u if x == v else x

    nv = g.n_vertices
    return all(
        g.is_adjacent(image(x), image(y)) == g.is_adjacent(x, y)
        for x in range(nv)
        for y in range(nv)
    )


def test_twin_classes_are_exactly_the_swap_automorphisms():
    # Swapping u and v preserves adjacency iff u and v are twins, so this pins
    # every class both ways: members swap, non-members do not.
    for g in GRAPHS:
        classes = twin_classes(g)
        assert sorted(v for c in classes for v in c) == list(range(g.n_vertices))
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)
        class_of = {v: i for i, c in enumerate(classes) for v in c}
        for u in range(g.n_vertices):
            for v in range(u + 1, g.n_vertices):
                assert _swap_is_automorphism(g, u, v) == (class_of[u] == class_of[v]), (g, u, v)


def test_the_sample_has_twin_classes_and_disconnected_graphs():
    # The blow-ups are there to exercise classes of two or more.
    assert sum(1 for g in GRAPHS[::2] if len(twin_classes(g)) < g.n_vertices) > 100
    assert sum(1 for g in GRAPHS if not is_connected(g)) > 20


def test_random_graph_gives_up_on_a_near_empty_p():
    # Twelve vertices at p = 0.01 are almost never connected: the helper must raise, not hang.
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match=f"in {MAX_DRAWS} draws"):
        random_graph(random.Random(0), 12, 0.01, connected=True)
    assert time.perf_counter() - t0 < 10


def test_detour_profile_equals_the_per_vertex_oracle_and_reference():
    # The profile answers exactly the cographs, the graphs with no induced P4.
    refused = 0
    for g in GRAPHS:
        try:
            detour_profile(build_cotree(g))
        except CapExceededError as exc:
            assert str(exc) == "graph is not a cograph"
            assert has_induced_p4(g), g
            refused += 1
        else:
            assert not has_induced_p4(g), g
    assert 50 < refused < 250
    # Random cotrees: the memoised reference up to 10 vertices, the DFS past it. The same
    # tree gives the chromatic number, which trying every coloring checks up to 6 vertices.
    rng = random.Random(2017)
    for k in range(340):
        g = random_cograph(rng, rng.randint(1, 10) if k < 300 else rng.randint(11, 16))
        tree = build_cotree(g)
        reference = detour_ecc_reference if k < 300 else detour_ecc_oracle
        expected = tuple(reference(g, v, 16) for v in range(g.n_vertices))
        assert detour_profile(tree).eccentricities == expected, g
        if g.n_vertices <= 6:
            assert chromatic_number_oracle(tree) == chromatic_brute(g), g


def test_polynomial_oracle_equals_naive_counts_on_connected_blowups():
    checked = 0
    for g in GRAPHS[::2]:
        if g.n_vertices <= 13 and is_connected(g):
            assert resolving_polynomial_oracle(g).coeffs == resolving_counts_naive(g), g
            checked += 1
    assert checked >= 50


def test_polynomial_oracle_counts_in_exact_decimal_integers():
    # One number base with the formula: every count is a Decimal with exponent 0. The naive
    # counts cross-check every graph of up to 13 vertices: the blow-ups, and the commuting
    # graphs of order 3 to 6.
    graphs = [g for g in GRAPHS[::2] if g.n_vertices <= 13 and is_connected(g)]
    graphs += [brute(spec) for spec in non_abelian_specs(64)]
    for g in graphs:
        coeffs = resolving_polynomial_oracle(g).coeffs
        assert all(type(s) is Decimal and s.as_tuple().exponent == 0 for s in coeffs.values())
        if g.n_vertices <= 13:
            assert coeffs == resolving_counts_naive(g), g
    assert len(graphs) > 400


def test_twin_classes_equal_the_per_vertex_reference_when_twins_are_scattered():
    # Commuting graphs with shuffled vertices, so no class is a run, and seeded random
    # graphs; each whole graph, and the quotient on one member per class.
    rng = random.Random(2031)
    graphs = [relabelled(rng, brute(spec)) for spec in non_abelian_specs(24)]
    for _ in range(200):
        graphs.append(random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9), False))
    graphs += [relabelled(rng, g) for g in GRAPHS[::2]]
    graphs.append(CommutingGraph(()))
    shuffled = 0
    for g in graphs:
        classes = twin_classes(g)
        assert classes == twin_classes_per_vertex(g), g
        shuffled += any(c[-1] - c[0] >= len(c) for c in classes)
        among = [c[0] for c in classes]
        assert twin_classes(g, among) == twin_classes_per_vertex(g, among), g
        part = sorted(rng.sample(range(g.n_vertices), rng.randint(0, g.n_vertices)))
        assert twin_classes(g, part) == twin_classes_per_vertex(g, part), (g, part)
    assert shuffled > 100


def test_twin_classes_hold_one_row_per_class_not_a_copy_of_the_rows():
    g = brute("Z2048")  # 4096 vertices in 1026 classes, built before tracing starts
    total = sum(map(sys.getsizeof, g.rows))
    tracemalloc.start()
    try:
        classes = twin_classes(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(classes) == 1026
    assert peak < total, (peak, total)


@pytest.mark.parametrize(
    "nv, edges, expected",
    [
        (0, [], Cotree(0, [], {})),
        (1, [], Cotree(1, [("clique", 1, ())], {(0,): [0]})),
        (2, [(0, 1)], Cotree(2, [("clique", 2, ())], {(0,): [0, 1]})),
        (2, [], Cotree(2, [("independent", 2, ())], {(0,): [0, 1]})),
        (
            3,
            [(0, 1), (0, 2)],
            Cotree(
                3,
                [("independent", 2, ()), ("clique", 1, ()), ("join", 3, (0, 1))],
                {(0, 2): [1, 2], (1, 2): [0]},
            ),
        ),
        (
            3,
            [(0, 1)],
            Cotree(
                3,
                [("clique", 2, ()), ("clique", 1, ()), ("union", 3, (0, 1))],
                {(0, 2): [0, 1], (1, 2): [2]},
            ),
        ),
    ],
    ids=["empty", "K1", "K2", "2K1", "P3", "K2+K1"],
)
def test_cotree_of_graphs_that_end_on_one_or_two_survivors(nv, edges, expected):
    # Each build ends with at most two vertices left, and two vertices are always twins.
    assert build_cotree(CommutingGraph.from_edges(nv, edges)) == expected


def test_twin_merged_profile_equals_the_reference_on_relabelled_cographs():
    rng = random.Random(2047)
    for _ in range(100):
        g = relabelled(rng, random_cograph(rng, rng.randint(1, 12)))
        expected = tuple(detour_ecc_reference(g, v) for v in range(g.n_vertices))
        assert detour_profile(build_cotree(g)).eccentricities == expected, g


@pytest.mark.parametrize(
    "nv, edges",
    [(4, [(0, 1), (1, 2), (2, 3)]), (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])],
    ids=["P4", "C5"],
)
def test_profile_refuses_p4_and_c5(nv, edges):
    # Neither has twins, so the first round merges nothing.
    with pytest.raises(CapExceededError, match="^graph is not a cograph$"):
        detour_profile(build_cotree(CommutingGraph.from_edges(nv, edges)))
