"""Degree, edge-count and chromatic formulas against measurement and exact search."""

import random
import tracemalloc

import pytest

from commgraph import (
    CapExceededError,
    CommutingGraph,
    ElementaryAbelian2Error,
    build_structural_graph,
    chromatic_number_formula,
    chromatic_number_oracle,
    construct_coloring,
    degree_formula,
    edge_count_formula,
    invariants,
    is_proper_coloring,
    parse_group_spec,
    part_kind,
)

from helpers import (
    brute,
    chromatic_brute,
    is_proper_coloring_pairwise,
    members_with_at_most,
    non_abelian_specs,
    random_graph,
)


def test_degree_formula_values():
    assert degree_formula(4, 1, "omega1") == 7
    assert degree_formula(4, 1, "omega2") == 3
    assert degree_formula(4, 1, "omega3") == 3
    assert degree_formula(3, 0, "omega2") == 2
    assert degree_formula(6, 1, "block2") == 3  # block labels collapse to omega3
    assert degree_formula(8, 2, "omega3") == 7


def test_edge_count_formula_values():
    assert edge_count_formula(3, 0) == 6
    assert edge_count_formula(4, 1) == 16
    assert edge_count_formula(6, 1) == 30
    assert edge_count_formula(12, 1) == 96
    assert edge_count_formula(12, 2) == 132


def test_formula_parameter_guards():
    with pytest.raises(ElementaryAbelian2Error):
        edge_count_formula(4, 2)
    with pytest.raises(ValueError):
        edge_count_formula(6, 2)
    with pytest.raises(ValueError):
        degree_formula(0, 0, "omega1")
    with pytest.raises(ValueError):
        degree_formula(4, 1, "bogus")
    with pytest.raises(ElementaryAbelian2Error):
        chromatic_number_formula(2, 1)


def test_z4_degree_sequence():
    assert [brute("Z4").degree(v) for v in range(8)] == [7, 7, 3, 3, 3, 3, 3, 3]


def test_degrees_and_edges_match_formulas_for_every_small_spelling():
    for spec in non_abelian_specs(16):
        group = parse_group_spec(spec)
        g = brute(spec)
        for v, pl in enumerate(g.part_labels):
            assert g.degree(v) == degree_formula(group.n, group.r, pl), (spec, v)
        assert g.edge_count() == edge_count_formula(group.n, group.r), spec


def test_chromatic_number_formula_is_the_group_order():
    assert chromatic_number_formula(6, 1) == 6
    assert chromatic_number_formula(9, 0) == 9
    assert chromatic_number_formula(12, 2) == 12


@pytest.mark.parametrize("spec", ["Z3", "Z4", "Z6", "Z2xZ4", "Z4xZ3", "Z2xZ2xZ3"])
def test_constructed_coloring_is_proper_and_tight(spec):
    group = parse_group_spec(spec)
    g = brute(spec)
    colors = construct_coloring(g)
    assert is_proper_coloring(g, colors)
    assert len(set(colors)) == group.n
    # blocks reuse colors first handed to omega2, so only sign-+1 colors appear
    assert set(colors) == set(colors[: group.n])


def test_constructed_coloring_on_synthetic_graph():
    g = build_structural_graph(10, 1)
    colors = construct_coloring(g)
    assert is_proper_coloring(g, colors)
    assert len(set(colors)) == 10


def test_constructed_coloring_needs_part_labels():
    g = random_graph(random.Random(0), 5, 0.5, connected=False)
    with pytest.raises(ValueError):
        construct_coloring(g)


def test_is_proper_coloring_detects_conflicts():
    g = brute("Z3")
    good = construct_coloring(g)
    assert is_proper_coloring(g, good)
    bad = list(good)
    bad[1] = bad[2]
    assert not is_proper_coloring(g, bad)


def test_is_proper_coloring_matches_pairwise_reference_on_random_graphs():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(300):
        nv = rng.randint(0, 12)
        g = random_graph(rng, nv, rng.random(), connected=False)
        colors = [rng.randrange(max(1, nv // rng.randint(1, 3))) for _ in range(nv)]
        if rng.random() < 0.3:
            colors = [f"c{c}" for c in colors]  # any hashable colour works
        expected = is_proper_coloring_pairwise(g, colors)
        assert is_proper_coloring(g, colors) == expected, (g.rows, colors)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_is_proper_coloring_rejects_wrong_length():
    g = brute("Z3")
    colors = construct_coloring(g)
    with pytest.raises(ValueError):
        is_proper_coloring(g, colors[:-1])
    with pytest.raises(ValueError):
        is_proper_coloring(g, colors + (0,))


def test_chromatic_oracle_equals_formula_up_to_cap():
    for spec in members_with_at_most(non_abelian_specs(16), 24):
        group = parse_group_spec(spec)
        assert chromatic_number_oracle(brute(spec)) == group.n, spec


def test_chromatic_oracle_needs_no_search_on_commuting_graphs(monkeypatch):
    # The graphs are P4-free, so the greedy clique and first-fit coloring both reach n.
    def never(*args, **kwargs):
        raise AssertionError("must not be called")

    monkeypatch.setattr(invariants, "_colorable", never)
    for spec in non_abelian_specs(48):
        group = parse_group_spec(spec)
        assert chromatic_number_oracle(brute(spec)) == group.n, spec


def test_chromatic_oracle_memory_is_one_mask_per_color():
    g = brute("Z512")  # 1024 vertices, built before tracing starts
    tracemalloc.start()
    try:
        assert chromatic_number_oracle(g) == 512
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_chromatic_oracle_matches_exhaustive_search_on_random_graphs():
    rng = random.Random(11)
    for _ in range(30):
        nv = rng.randint(1, 6)
        g = random_graph(rng, nv, 0.5, connected=False)
        assert chromatic_number_oracle(g) == chromatic_brute(g)


def test_chromatic_oracle_edge_cases():
    assert chromatic_number_oracle(CommutingGraph(())) == 0
    assert chromatic_number_oracle(CommutingGraph((0,))) == 1
    assert chromatic_number_oracle(CommutingGraph.from_edges(2, [(0, 1)])) == 2


def interleaved_crown(m: int) -> CommutingGraph:
    """K_{m,m} minus a perfect matching, sides interleaved: a_i = 2i, b_i = 2i + 1.

    Every degree is m - 1, so first-fit takes the vertices in index order and
    gives a_i and b_i color i: m colors against a clique of 2 (chromatic number 2).
    """
    edges = [(2 * i, 2 * j + 1) for i in range(m) for j in range(m) if i != j]
    return CommutingGraph.from_edges(2 * m, edges)


def test_chromatic_oracle_respects_cap():
    # Bounds that differ above the search ceiling are refused, not searched, which at
    # 1200 vertices would also pass the recursion limit.
    assert 26 > invariants.MAX_CHROMATIC_SEARCH_VERTICES
    for m in (13, 600):
        with pytest.raises(CapExceededError, match=f"bounds 2 and {m} differ on {2 * m} vertices"):
            chromatic_number_oracle(interleaved_crown(m))
    # At the ceiling the search closes the gap; where the bounds meet nothing is refused.
    assert chromatic_number_oracle(interleaved_crown(12)) == 2
    assert chromatic_number_oracle(brute("Z2xZ6")) == 12
