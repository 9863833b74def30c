"""Degree, edge-count and chromatic formulas against measurement and exhaustive search."""

import random
import tracemalloc

import pytest

from commgraph import (
    CapExceededError,
    CommutingGraph,
    ElementaryAbelian2Error,
    build_cotree,
    build_structural_graph,
    chromatic_number_formula,
    chromatic_number_oracle,
    construct_coloring,
    degree_formula,
    edge_count_formula,
    is_proper_coloring,
    parse_group_spec,
    part_kind,
)

from helpers import (
    brute,
    chromatic_brute,
    has_induced_p4,
    is_proper_coloring_pairwise,
    members_with_at_most,
    non_abelian_specs,
    random_cograph,
    random_graph,
    relabelled,
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
        assert chromatic_number_oracle(build_cotree(brute(spec))) == group.n, spec


def test_chromatic_oracle_needs_no_search_on_commuting_graphs():
    # A commuting graph is a cograph, so the fold over its cotree gives the clique omega1 + omega2.
    for spec in non_abelian_specs(48):
        group = parse_group_spec(spec)
        assert chromatic_number_oracle(build_cotree(brute(spec))) == group.n, spec


def test_chromatic_oracle_memory_is_one_mask_per_color():
    g = brute("Z512")  # 1024 vertices, built before tracing starts
    tracemalloc.start()
    try:
        assert chromatic_number_oracle(build_cotree(g)) == 512
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_chromatic_oracle_matches_exhaustive_search_on_random_graphs():
    # The fold answers exactly the cographs, the graphs with no induced P4.
    rng = random.Random(11)
    decided = refused = 0
    for k in range(300):
        if k % 2:
            base = random_cograph(rng, rng.randint(1, 6))
        else:
            base = random_graph(rng, rng.randint(4, 6), rng.uniform(0.3, 0.7), False)
        g = relabelled(rng, base)
        if has_induced_p4(g):
            with pytest.raises(CapExceededError, match="^graph is not a cograph$"):
                chromatic_number_oracle(build_cotree(g))
            refused += 1
        else:
            assert chromatic_number_oracle(build_cotree(g)) == chromatic_brute(g), g
            decided += 1
    assert decided > 150 and refused > 50, (decided, refused)


def test_chromatic_oracle_edge_cases():
    assert chromatic_number_oracle(build_cotree(CommutingGraph(()))) == 0
    assert chromatic_number_oracle(build_cotree(CommutingGraph((0,)))) == 1
    assert chromatic_number_oracle(build_cotree(CommutingGraph.from_edges(2, [(0, 1)]))) == 2


def interleaved_crown(m: int) -> CommutingGraph:
    """K_{m,m} minus a perfect matching, sides interleaved: a_i = 2i, b_i = 2i + 1.

    For m >= 3 no two vertices are twins, and a_0 b_1 a_2 b_0 is an induced P4.
    """
    edges = [(2 * i, 2 * j + 1) for i in range(m) for j in range(m) if i != j]
    return CommutingGraph.from_edges(2 * m, edges)


def test_chromatic_oracle_respects_cap():
    # Off cographs the cotree refuses, so nothing is searched, at 24 vertices or at 1200.
    p4 = CommutingGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    c5 = CommutingGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    for g in (interleaved_crown(12), interleaved_crown(600), p4, c5):
        with pytest.raises(CapExceededError, match="^graph is not a cograph$"):
            chromatic_number_oracle(build_cotree(g))
    # On a cograph the size refuses nothing: Z599's 1198 vertices include an independent leaf.
    assert chromatic_number_oracle(build_cotree(brute("Z2xZ6"))) == 12
    assert chromatic_number_oracle(build_cotree(brute("Z599"))) == 599
