"""Shared test utilities: family lists, cached graphs, random graphs, naive cross-checks.

The naive checkers here are deliberately dumb (full enumeration, no pruning)
so they share no code path with the library's oracles.
"""

import contextlib
import sys
from functools import lru_cache
from itertools import combinations, product

from commgraph import (
    CommutingGraph,
    all_abelian_specs,
    build_commuting_graph,
    distance_matrix,
    is_resolving,
    parse_group_spec,
)

# Named members of the order <= 16 non-abelian family; the generated family
# (every direct-product spelling) is a superset of this.
FAMILY14 = [
    "Z3",
    "Z4",
    "Z5",
    "Z6",
    "Z7",
    "Z8",
    "Z9",
    "Z2xZ4",
    "Z3xZ3",
    "Z2xZ6",
    "Z4xZ3",
    "Z2xZ2xZ3",
    "Z4xZ4",
    "Z2xZ8",
]


def non_abelian_specs(max_order: int = 16) -> list[str]:
    """Every spelling of order <= max_order whose D(G) is non-abelian."""
    return [
        s
        for s in all_abelian_specs(max_order)
        if not parse_group_spec(s).is_elementary_abelian_2()
    ]


def members_with_at_most(specs, max_vertices: int) -> list[str]:
    return [s for s in specs if 2 * parse_group_spec(s).n <= max_vertices]


@lru_cache(maxsize=None)
def brute(spec: str) -> CommutingGraph:
    """Measured commuting graph for a spec; cached, graphs are immutable."""
    return build_commuting_graph(parse_group_spec(spec), "all")


def is_connected(graph: CommutingGraph) -> bool:
    nv = graph.n_vertices
    if nv <= 1:
        return True
    seen = frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            nxt |= graph.rows[b.bit_length() - 1]
            m ^= b
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << nv) - 1


# Bound on random_graph's resampling; the seeded tests need at most a few dozen draws.
MAX_DRAWS = 1000


def random_graph(rng, nv: int, p: float = 0.5, connected: bool = True) -> CommutingGraph:
    """Erdos-Renyi style graph; resamples until connected when asked, at most MAX_DRAWS times."""
    for _ in range(MAX_DRAWS):
        edges = [
            (i, j) for i in range(nv) for j in range(i + 1, nv) if rng.random() < p
        ]
        g = CommutingGraph.from_edges(nv, edges)
        if not connected or is_connected(g):
            return g
    raise RuntimeError(f"no connected graph on {nv} vertices at p={p} in {MAX_DRAWS} draws")


def module_blowup(rng, connected: bool = True) -> CommutingGraph:
    """Random base graph on 3-7 vertices, each vertex replaced by a module.

    A module is a clique or an independent set of 1-3 vertices, and two modules
    are fully joined exactly when their base vertices are adjacent, so each
    module lies inside one twin class.
    """
    base = random_graph(rng, rng.randint(3, 7), rng.uniform(0.3, 0.8), connected)
    modules = []
    nv = 0
    for _ in base.rows:
        size = rng.randint(1, 3)
        modules.append(range(nv, nv + size))
        nv += size
    edges = []
    for a, mod in enumerate(modules):
        if rng.random() < 0.5:
            edges += [(i, j) for i in mod for j in mod if i < j]
        for b in range(a + 1, len(modules)):
            if base.rows[a] >> b & 1:
                edges += [(i, j) for i in mod for j in modules[b]]
    return CommutingGraph.from_edges(nv, edges)


def random_cograph(rng, nv: int) -> CommutingGraph:
    """Random cotree on nv >= 1 vertices: merge two random parts by disjoint union or join."""
    parts = [[v] for v in range(nv)]
    edges = []
    while len(parts) > 1:
        a = parts.pop(rng.randrange(len(parts)))
        b = parts.pop(rng.randrange(len(parts)))
        if rng.random() < 0.5:
            edges += [(i, j) for i in a for j in b]
        parts.append(a + b)
    return CommutingGraph.from_edges(nv, edges)


def has_induced_p4(graph: CommutingGraph) -> bool:
    """True iff some 4 vertices induce a path: 3 edges with degrees 1, 1, 2, 2 among them."""
    for quad in combinations(range(graph.n_vertices), 4):
        degrees = sorted(sum(graph.is_adjacent(u, w) for w in quad if w != u) for u in quad)
        if degrees == [1, 1, 2, 2]:
            return True
    return False


def chromatic_brute(graph: CommutingGraph) -> int:
    """Smallest k admitting a proper coloring, by trying every assignment."""
    nv = graph.n_vertices
    if nv == 0:
        return 0
    edges = list(graph.edges())
    for k in range(1, nv + 1):
        for colors in product(range(k), repeat=nv):
            if all(colors[i] != colors[j] for i, j in edges):
                return k
    raise AssertionError("unreachable: nv colors always suffice")


def is_proper_coloring_pairwise(graph: CommutingGraph, colors) -> bool:
    """True iff the two ends of every edge differ in color, edge by edge."""
    return all(colors[i] != colors[j] for i, j in graph.edges())


def metric_dimension_naive(graph: CommutingGraph) -> int:
    """Smallest resolving-set size, scanning sizes from zero with no lower bound."""
    nv = graph.n_vertices
    for size in range(nv + 1):
        if any(is_resolving(graph, c) for c in combinations(range(nv), size)):
            return size
    raise AssertionError("unreachable: the full vertex set resolves")


def resolving_counts_naive(graph: CommutingGraph) -> dict[int, int]:
    """Number of resolving subsets of each size: every subset, its distance vectors compared."""
    nv = graph.n_vertices
    # dist[s] holds every vertex's distance to s, so zipping the subset's rows gives each
    # vertex its distance vector; the constant first coordinate keeps the empty subset's.
    dist = distance_matrix(graph)
    flat = (0,) * nv
    counts = {}
    for size in range(nv + 1):
        c = sum(
            1
            for combo in combinations(range(nv), size)
            if len(set(zip(flat, *(dist[s] for s in combo)))) == nv
        )
        if c:
            counts[size] = c
    return counts


@contextlib.contextmanager
def int_max_str_digits(limit):
    """Set the interpreter's int-to-str digit limit for the block (Python 3.11+), then restore it.

    Interpreters without the limit (3.10) have nothing to set.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
