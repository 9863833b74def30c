"""Graph container, the measured and structural builds, and the exports."""

import csv
import random

import pytest

from commgraph import (
    CommutingGraph,
    DihedralElement,
    ElementaryAbelian2Error,
    GraphShapeError,
    build_commuting_graph,
    build_structural_graph,
    check_parameters,
    commutes_by_multiplication,
    edge_sets_equal,
    omega_partition,
    parse_group_spec,
    part_kind,
    to_adjacency_csv,
    to_dot,
)
from commgraph.graph import levels

from helpers import FAMILY14, brute, non_abelian_specs


def test_container_rejects_self_loops_and_out_of_range_rows():
    with pytest.raises(GraphShapeError):
        CommutingGraph((0b001, 0b000))
    with pytest.raises(GraphShapeError):
        CommutingGraph((0b100, 0b000))
    with pytest.raises(GraphShapeError):
        CommutingGraph((0, 0), part_labels=("omega1",))
    with pytest.raises(GraphShapeError):
        CommutingGraph.from_edges(3, [(0, 0)])


def test_container_rejects_negative_rows_and_bits_past_the_last_vertex():
    # -2 has no bit 0, so only its sign makes it out of range.
    with pytest.raises(GraphShapeError, match="row 0 addresses vertices outside 0..1"):
        CommutingGraph((-2, 0))
    with pytest.raises(GraphShapeError, match="row 1 addresses vertices outside 0..1"):
        CommutingGraph((0b10, 0b100))
    with pytest.raises(GraphShapeError, match="row 2 addresses vertices outside 0..2"):
        CommutingGraph((0b010, 0b001, 1 << 3))
    # The first bad row decides the message, whichever check it fails.
    with pytest.raises(GraphShapeError, match="self-loop at vertex 0"):
        CommutingGraph((0b101, 1 << 2))
    with pytest.raises(GraphShapeError, match="row 0 addresses"):
        CommutingGraph((1 << 2, 0b10))


def test_container_basics():
    g = CommutingGraph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert g.n_vertices == 4
    assert g.edge_count() == 3
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]
    assert g.degree(1) == 2
    assert g.degree(3) == 0
    assert g.neighbors(0) == [1, 2]
    assert g.is_adjacent(0, 1) and not g.is_adjacent(0, 3)
    assert g.vertex_labels() == ("v0", "v1", "v2", "v3")
    with pytest.raises(IndexError):
        g.degree(4)
    with pytest.raises(IndexError):
        g.neighbors(-1)


def test_levels_walk_out_inside_allowed():
    rows = CommutingGraph.from_edges(5, [(v, v + 1) for v in range(4)]).rows  # path 0-1-2-3-4
    full = 0b11111
    assert levels(rows, 0b00001, full) == [0b00001, 0b00010, 0b00100, 0b01000, 0b10000]
    assert levels(rows, 0b00100, full) == [0b00100, 0b01010, 0b10001]
    # Vertex 2 is not allowed, so the walk from 0 stops at 1 and never reaches 3 or 4.
    assert levels(rows, 0b00001, full ^ 0b00100) == [0b00001, 0b00010]
    # Only the frontier's allowed vertices start the walk.
    assert levels(rows, 0b00100, full ^ 0b00100) == []
    assert levels(rows, 0b00101, full ^ 0b00100) == [0b00001, 0b00010]
    # A frontier of two vertices: level d is the vertices d steps from the nearer one.
    assert levels(rows, 0b10001, full) == [0b10001, 0b01010, 0b00100]


def test_build_all_z3():
    g = brute("Z3")
    assert g.n_vertices == 6
    assert g.edge_count() == 6
    assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)]
    assert g.part_labels == ("omega1", "omega2", "omega2", "block1", "block2", "block3")


@pytest.mark.parametrize("spec", ["Z4", "Z6", "Z2xZ4"])
def test_adjacency_is_the_commutation_relation(spec):
    group = parse_group_spec(spec)
    g = brute(spec)
    for i in range(g.n_vertices):
        assert not g.is_adjacent(i, i)
        for j in range(g.n_vertices):
            if i != j:
                x, y = g.vertices[i], g.vertices[j]
                assert g.is_adjacent(i, j) == commutes_by_multiplication(group, x, y)
                assert g.is_adjacent(i, j) == g.is_adjacent(j, i)


@pytest.mark.parametrize("spec", non_abelian_specs(16))
def test_every_selector_matches_multiplication(spec):
    """Each selector's adjacency is uv == vu, checked by multiplying, for every pair."""
    group = parse_group_spec(spec)
    part = omega_partition(group)
    shuffled = list(part.vertices())
    random.Random(spec).shuffle(shuffled)
    selectors = ["all", "omega1", "omega2", "omega3"]
    selectors += [("block", i) for i in range(1, len(part.blocks) + 1)]
    selectors.append(shuffled[: len(shuffled) // 2 + 1])
    for subset in selectors:
        g = build_commuting_graph(group, subset)
        verts = g.vertices
        assert len(g.part_labels) == len(verts) == g.n_vertices
        assert not any(g.is_adjacent(i, i) for i in range(len(verts)))
        for i, x in enumerate(verts):
            for j in range(i + 1, len(verts)):
                commute = commutes_by_multiplication(group, x, verts[j])
                assert g.is_adjacent(i, j) == g.is_adjacent(j, i) == commute, (subset, i, j)


@pytest.mark.parametrize("spec", ["Z3", "Z6", "Z2xZ4", "Z3xZ3"])
def test_the_all_selector_ignores_case(spec):
    group = parse_group_spec(spec)
    assert build_commuting_graph(group, "ALL") == build_commuting_graph(group, "all")
    assert build_commuting_graph(group, "All") == brute(spec)


def test_part_selectors():
    z6 = parse_group_spec("Z6")
    o1 = build_commuting_graph(z6, "omega1")
    assert o1.n_vertices == 2 and o1.edge_count() == 1
    o2 = build_commuting_graph(z6, "omega2")
    assert o2.n_vertices == 4 and o2.edge_count() == 6
    o3 = build_commuting_graph(z6, "omega3")
    assert o3.n_vertices == 6 and o3.edge_count() == 3
    assert set(o3.part_labels) == {"block1", "block2", "block3"}
    b2 = build_commuting_graph(z6, ("block", 2))
    assert b2.n_vertices == 2 and b2.edge_count() == 1
    assert b2.part_labels == ("block2", "block2")


def test_block_selector_is_one_based_and_bounded():
    z6 = parse_group_spec("Z6")
    with pytest.raises(IndexError):
        build_commuting_graph(z6, ("block", 0))
    with pytest.raises(IndexError):
        build_commuting_graph(z6, ("block", 4))
    with pytest.raises(ValueError):
        build_commuting_graph(z6, "omega9")


def test_explicit_subset_is_reordered_canonically():
    z4 = parse_group_spec("Z4")
    p = omega_partition(z4)
    picked = [p.blocks[0][1], p.omega1[0], p.omega2[1]]
    g = build_commuting_graph(z4, picked)
    assert g.vertices == (p.omega1[0], p.omega2[1], p.blocks[0][1])
    assert g.part_labels == ("omega1", "omega2", "block1")


def test_explicit_subset_rejects_foreign_and_duplicate_vertices():
    z4 = parse_group_spec("Z4")
    with pytest.raises(ValueError):
        build_commuting_graph(z4, [DihedralElement((9,), 1)])
    e = DihedralElement((0,), 1)
    with pytest.raises(ValueError):
        build_commuting_graph(z4, [e, e])


def test_structural_graph_examples():
    s = build_structural_graph(4, 1)
    assert s.n_vertices == 8
    assert s.edge_count() == 16
    s = build_structural_graph(3, 0)
    assert s.n_vertices == 6
    assert s.edge_count() == 6


def test_parameter_validation():
    with pytest.raises(ValueError):
        check_parameters(6, 2)  # 4 does not divide 6
    with pytest.raises(ValueError):
        check_parameters(0, 0)
    with pytest.raises(ElementaryAbelian2Error):
        check_parameters(4, 2)  # n = 2**r, abelian case
    with pytest.raises(ElementaryAbelian2Error):
        build_structural_graph(8, 3)


@pytest.mark.parametrize("spec", FAMILY14)
def test_measured_equals_structural_family(spec):
    group = parse_group_spec(spec)
    assert edge_sets_equal(brute(spec), build_structural_graph(group.n, group.r))


def test_edge_sets_equal_needs_matching_vertex_counts():
    with pytest.raises(GraphShapeError):
        edge_sets_equal(build_structural_graph(4, 1), build_structural_graph(6, 1))


def test_handshake_identity():
    for spec in ["Z3", "Z6", "Z2xZ4", "Z4xZ3"]:
        g = brute(spec)
        assert sum(g.degree(v) for v in range(g.n_vertices)) == 2 * g.edge_count()


@pytest.mark.parametrize("spec", ["Z4", "Z6", "Z2xZ4", "Z3xZ3"])
def test_join_of_cliques_shape(spec):
    g = brute(spec)
    kinds = [part_kind(pl) for pl in g.part_labels]
    plus = [v for v, k in enumerate(kinds) if k != "omega3"]
    # the sign-+1 vertices form a clique
    assert all(g.is_adjacent(u, v) for u in plus for v in plus if u < v)
    # omega1 sees everything
    for v, k in enumerate(kinds):
        if k == "omega1":
            assert g.degree(v) == g.n_vertices - 1
    # no edges between omega2 and the blocks, none across distinct blocks
    o2 = [v for v, k in enumerate(kinds) if k == "omega2"]
    for u in o2:
        for v, k in enumerate(kinds):
            if k == "omega3":
                assert not g.is_adjacent(u, v)
    blocks: dict[str, list[int]] = {}
    for v, pl in enumerate(g.part_labels):
        if part_kind(pl) == "omega3":
            blocks.setdefault(pl, []).append(v)
    for pl, members in blocks.items():
        assert all(g.is_adjacent(u, v) for u in members for v in members if u < v)
        outside = [v for other, vs in blocks.items() if other != pl for v in vs]
        assert not any(g.is_adjacent(u, v) for u in members for v in outside)


def test_structural_matches_measured_for_every_small_spelling():
    for spec in non_abelian_specs(16):
        group = parse_group_spec(spec)
        assert edge_sets_equal(brute(spec), build_structural_graph(group.n, group.r)), spec


def test_dot_export():
    dot = to_dot(brute("Z4"))
    assert dot.startswith("graph commuting {")
    # one cluster per part: omega1, omega2, block1, block2
    assert dot.count("subgraph cluster_") == 4
    assert '"(0;+)"' in dot
    assert '"(1;-)"' in dot
    assert dot.count(" -- ") == 16


def test_dot_export_without_labels():
    g = CommutingGraph.from_edges(2, [(0, 1)])
    dot = to_dot(g, name="tiny")
    assert "cluster" not in dot
    assert "v0 -- v1;" in dot


def _dot_from_edges(graph):
    """DOT text with one formatted line per edge of edges(); the to_dot reference."""
    labels = graph.vertex_labels()
    lines = ["graph commuting {"]
    groups = {}
    for v, pl in enumerate(graph.part_labels):
        groups.setdefault(pl, []).append(v)
    for pl, members in groups.items():
        lines.append(f"  subgraph cluster_{pl} {{")
        lines.append(f'    label="{pl}";')
        lines += [f'    v{v} [label="{labels[v]}"];' for v in members]
        lines.append("  }")
    lines += [f"  v{i} -- v{j};" for i, j in graph.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec", ["Z6", "Z2xZ4", "Z12"])
def test_dot_export_equals_the_edge_by_edge_text(spec):
    g = brute(spec)
    assert to_dot(g) == _dot_from_edges(g)


def test_adjacency_csv_export():
    g = brute("Z3")
    text = to_adjacency_csv(g)
    lines = text.strip().split("\n")
    assert len(lines) == 7
    header = next(csv.reader([lines[0]]))
    assert header == ["(0;+)", "(1;+)", "(2;+)", "(0;-)", "(2;-)", "(1;-)"]
    assert lines[1] == "0,1,1,1,1,1"
    assert lines[2] == "1,0,1,0,0,0"
    matrix = [[int(c) for c in line.split(",")] for line in lines[1:]]
    for i in range(6):
        assert matrix[i][i] == 0
        for j in range(6):
            assert matrix[i][j] == matrix[j][i]
            assert matrix[i][j] == int(g.is_adjacent(i, j))


@pytest.mark.parametrize("spec", ["Z3", "Z2xZ4", "Z12"])
def test_adjacency_csv_cells_match_is_adjacent(spec):
    g = brute(spec)
    rows = list(csv.reader(to_adjacency_csv(g).splitlines()))
    assert rows[0] == list(g.vertex_labels())
    assert len(rows) == g.n_vertices + 1
    for i, row in enumerate(rows[1:]):
        assert row == [str(int(g.is_adjacent(i, j))) for j in range(g.n_vertices)]
