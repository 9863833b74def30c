"""Twin classes, the per-class oracles built on them and the cotree detour profile,
on random graphs, module blow-ups and random cographs."""

import random
import time

import pytest

from commgraph import (
    CapExceededError,
    detour_ecc_oracle,
    detour_ecc_reference,
    detour_profile,
    resolving_polynomial_oracle,
)
from commgraph.graph import twin_classes

from helpers import (
    MAX_DRAWS,
    has_induced_p4,
    is_connected,
    module_blowup,
    random_cograph,
    random_graph,
    resolving_counts_naive,
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
            detour_profile(g, 24)
        except CapExceededError as exc:
            assert str(exc) == "graph is not a cograph"
            assert has_induced_p4(g), g
            refused += 1
        else:
            assert not has_induced_p4(g), g
    assert 50 < refused < 250
    # Random cotrees: the memoised reference up to 10 vertices, the DFS past it.
    rng = random.Random(2017)
    for k in range(340):
        g = random_cograph(rng, rng.randint(1, 10) if k < 300 else rng.randint(11, 16))
        reference = detour_ecc_reference if k < 300 else detour_ecc_oracle
        expected = tuple(reference(g, v, 16) for v in range(g.n_vertices))
        assert detour_profile(g).eccentricities == expected, g


def test_polynomial_oracle_equals_naive_counts_on_connected_blowups():
    checked = 0
    for g in GRAPHS[::2]:
        if g.n_vertices <= 13 and is_connected(g):
            assert resolving_polynomial_oracle(g, 24).coeffs == resolving_counts_naive(g), g
            checked += 1
    assert checked >= 50
