"""Longest-simple-path oracles and the closed-form detour eccentricities."""

import random
import sys
import time

import pytest

from commgraph import (
    CapExceededError,
    CommutingGraph,
    build_commuting_graph,
    build_cotree,
    cotree,
    detour,
    detour_ecc_formula,
    detour_ecc_oracle,
    detour_ecc_reference,
    detour_profile,
    detour_radius_diameter_formula,
    parse_group_spec,
    part_kind,
)

from helpers import (
    brute,
    members_with_at_most,
    non_abelian_specs,
    random_graph,
)

# (spec, detour radius, detour diameter), all oracle-confirmed
RADIUS_DIAMETER = [
    ("Z3", 2, 3),
    ("Z4", 5, 7),
    ("Z5", 4, 5),
    ("Z6", 7, 9),
    ("Z7", 6, 7),
    ("Z8", 9, 11),
    ("Z9", 8, 9),
    ("Z2xZ4", 15, 15),
    ("Z3xZ3", 8, 9),
]


def test_branch_formula_values():
    # n/2**r > 2**r: the long-rotation regime
    assert detour_ecc_formula(6, 1, "omega1") == 7
    assert detour_ecc_formula(6, 1, "omega2") == 9
    assert detour_ecc_formula(6, 1, "omega3") == 9
    assert detour_ecc_formula(3, 0, "omega1") == 2
    assert detour_ecc_formula(3, 0, "omega2") == 3
    # n/2**r < 2**r: everything reaches a Hamiltonian path
    assert detour_ecc_formula(8, 2, "omega1") == 15
    assert detour_ecc_formula(8, 2, "omega2") == 15


def test_branch_asymmetry_at_the_boundary():
    # n/2**r = 2**r: center vertices fall short of Hamiltonian, the rest do not
    assert detour_ecc_formula(4, 1, "omega1") == 5
    assert detour_ecc_formula(4, 1, "omega2") == 2 * 4 - 1
    assert detour_ecc_formula(16, 2, "omega1") == 27
    assert detour_ecc_formula(16, 2, "omega2") == 31


def test_radius_diameter_formula_pairs():
    assert detour_radius_diameter_formula(6, 1) == (7, 9)
    assert detour_radius_diameter_formula(4, 1) == (5, 7)
    assert detour_radius_diameter_formula(8, 2) == (15, 15)


@pytest.mark.parametrize("spec,radius,diameter", RADIUS_DIAMETER)
def test_profile_radius_diameter_frozen(spec, radius, diameter):
    prof = detour_profile(build_cotree(brute(spec)))
    assert prof.radius == radius
    assert prof.diameter == diameter
    group = parse_group_spec(spec)
    assert detour_radius_diameter_formula(group.n, group.r) == (radius, diameter)


def test_z3_eccentricities():
    assert detour_profile(build_cotree(brute("Z3"))).eccentricities == (2, 3, 3, 3, 3, 3)


def test_z4_hamiltonian_split():
    assert detour_profile(build_cotree(brute("Z4"))).eccentricities == (5, 5, 7, 7, 7, 7, 7, 7)


def test_oracle_equals_formula_per_vertex_for_every_small_spelling():
    for spec in members_with_at_most(non_abelian_specs(16), 20):
        group = parse_group_spec(spec)
        g = brute(spec)
        prof = detour_profile(build_cotree(g))
        for v, pl in enumerate(g.part_labels):
            assert prof.eccentricities[v] == detour_ecc_formula(group.n, group.r, pl), (
                spec,
                v,
            )


@pytest.mark.parametrize("spec", ["Z3", "Z4", "Z5", "Z6"])
def test_pruned_oracle_equals_unpruned_reference_on_family(spec):
    g = brute(spec)
    for v in range(g.n_vertices):
        assert detour_ecc_oracle(g, v) == detour_ecc_reference(g, v)


def test_pruned_oracle_equals_unpruned_reference_on_random_graphs():
    rng = random.Random(5)
    for _ in range(40):
        nv = rng.randint(2, 8)
        g = random_graph(rng, nv, 0.45, connected=rng.random() < 0.7)
        for v in range(nv):
            assert detour_ecc_oracle(g, v) == detour_ecc_reference(g, v)


def test_profile_never_calls_the_dfs_oracle(monkeypatch):
    # Z6xZ2 (n = 12, r = 2): omega1, omega2 and three blocks, 24 vertices in 5 classes.
    def never(*args, **kwargs):
        raise AssertionError("must not be called")

    monkeypatch.setattr(detour, "detour_ecc_oracle", never)
    g = brute("Z6xZ2")
    assert detour_profile(build_cotree(g)).eccentricities == tuple(
        detour_ecc_formula(12, 2, pl) for pl in g.part_labels
    )


@pytest.mark.parametrize("spec", ["Z16", "Z2xZ8", "Z4xZ4", "Z2xZ2xZ4", "Z2xZ2xZ8", "Z256"])
def test_profile_equals_the_formula_past_the_dfs_reach(spec):
    # 32 to 512 vertices: every branch of the formula with r <= 3, including q >= 2**r at r = 2.
    group = parse_group_spec(spec)
    g = brute(spec)
    prof = detour_profile(build_cotree(g))
    for v, pl in enumerate(g.part_labels):
        assert prof.eccentricities[v] == detour_ecc_formula(group.n, group.r, pl), (spec, v)


def test_profile_of_z4096_equals_the_formula_in_seconds():
    # 8192 vertices: the union node has 2048 reflection-block children. The depth
    # budget guards recursion, and a commuting graph's cotree is 3 levels deep.
    group = parse_group_spec("Z4096")
    g = build_commuting_graph(group, "all")
    start = time.perf_counter()
    prof = detour_profile(build_cotree(g))
    assert time.perf_counter() - start < 5
    assert prof.eccentricities == tuple(
        detour_ecc_formula(group.n, group.r, pl) for pl in g.part_labels
    )


def threshold_graph(nv: int) -> CommutingGraph:
    """Vertex j is joined to every earlier vertex when j is odd: a cotree of depth nv - 1."""
    return CommutingGraph.from_edges(nv, [(i, j) for j in range(1, nv, 2) for i in range(j)])


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_profile_takes_one_frame_per_cotree_level():
    # The pairs (2m, 2m + 1), from the top pair down to (0, 1), make a Hamiltonian path.
    g = threshold_graph(160)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 200)
    try:
        prof = detour_profile(build_cotree(g))
    finally:
        sys.setrecursionlimit(limit)
    assert prof.diameter == 159
    for nv in range(1, 13):
        g = threshold_graph(nv)
        assert detour_profile(build_cotree(g)).eccentricities == tuple(
            detour_ecc_reference(g, v) for v in range(nv)
        ), nv


def test_profile_refuses_a_cotree_deeper_than_its_budget():
    # 600 vertices, 599 cotree levels: at the default recursion limit the refusal comes
    # before Python's RecursionError would.
    g = threshold_graph(600)
    budget = cotree.MAX_COTREE_LEVELS
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(CapExceededError, match=f"^cotree deeper than {budget} levels$"):
            detour_profile(build_cotree(g))
    finally:
        sys.setrecursionlimit(limit)


def test_vertex_and_cap_guards():
    g = brute("Z3")
    with pytest.raises(IndexError):
        detour_ecc_oracle(g, 6)
    big = brute("Z2xZ6")  # 24 vertices
    with pytest.raises(CapExceededError):
        detour_ecc_oracle(big, 0)
    with pytest.raises(CapExceededError):
        detour_ecc_reference(brute("Z7"), 0)  # 14 vertices, reference cap is 12


def test_parameter_guards():
    with pytest.raises(ValueError):
        detour_ecc_formula(6, 1, "junk")
    with pytest.raises(ValueError):
        detour_ecc_formula(10, 2, "omega1")
