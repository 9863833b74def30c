"""Degree, edge-count and chromatic-number formulas, the explicit coloring, and an exact coloring search."""

from __future__ import annotations

from operator import and_

from .dihedral import part_kind
from .graph import CapExceededError, CommutingGraph, bits, check_parameters, part_runs

# Ceiling on the exponential search between the bounds; it recurses once per vertex.
MAX_CHROMATIC_SEARCH_VERTICES = 24


def degree_formula(n: int, r: int, part: str) -> int:
    """Closed-form degree by part: 2n-1 on omega1, n-1 on omega2, 2**(r+1)-1 on blocks."""
    check_parameters(n, r)
    kind = part_kind(part)
    if kind == "omega1":
        return 2 * n - 1
    if kind == "omega2":
        return n - 1
    return (1 << (r + 1)) - 1


def edge_count_formula(n: int, r: int) -> int:
    """Closed-form edge count n*(3*2**r + n - 2)/2, evaluated in exact integers."""
    check_parameters(n, r)
    # n*(3*2**r + n - 2) is even for every valid (n, r), including r = 0 where n is odd.
    return n * (3 * (1 << r) + n - 2) // 2


def chromatic_number_formula(n: int, r: int) -> int:
    """Chromatic number equals the group order n for every non-abelian D(G)."""
    check_parameters(n, r)
    return n


def construct_coloring(graph: CommutingGraph) -> tuple[int, ...]:
    """Proper coloring using one color per sign-+1 vertex.

    omega1 and omega2 vertices each get a fresh color; each block reuses the
    first colors handed to omega2 (legal because blocks see only omega1).
    """
    if graph.part_labels is None:
        raise ValueError("coloring construction needs part labels")
    colors = [-1] * graph.n_vertices
    omega2_colors: list[int] = []
    blocks = []
    nxt = 0
    for label, kind, a, b in part_runs(graph.part_labels):
        if kind == "omega3":
            blocks.append((label, a, b))
            continue
        colors[a:b] = range(nxt, nxt + b - a)
        if kind == "omega2":
            omega2_colors += colors[a:b]
        nxt += b - a
    position: dict[str, int] = {}
    for label, a, b in blocks:
        k = position.get(label, 0)
        if k + b - a > len(omega2_colors):
            raise ValueError(f"block {label!r} larger than the reusable color pool")
        colors[a:b] = omega2_colors[k : k + b - a]
        position[label] = k + b - a
    return tuple(colors)


def is_proper_coloring(graph: CommutingGraph, colors) -> bool:
    """True iff no vertex's row meets the mask of its own color class."""
    if len(colors) != graph.n_vertices:
        raise ValueError(f"{len(colors)} colors for {graph.n_vertices} vertices")
    classes: dict = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    return not any(map(and_, graph.rows, map(classes.__getitem__, colors)))


def _greedy_bounds(graph: CommutingGraph) -> tuple[int, int]:
    """(clique size, colors used) from one pass by falling degree, ties to the lower index.

    A vertex joins the clique when it sees every member, and takes the first color
    class its row misses. A closed twin of the previous vertex skips the classes up
    to that vertex's, which each meet its row, and joins the clique exactly when that
    vertex did (it sees the same members, and that vertex too), so a run of twins,
    such as a clique or each part of a commuting graph, costs no rescans. A commuting
    graph's clique is omega1 + omega2, n vertices (omega2's degree n - 1 >= a block's
    2**(r+1) - 1 as n/2**r >= 2), and the graph is P4-free, where first-fit is optimal
    in any order (Chvatal 1984), so both bounds are n and no search runs.
    """
    rows = graph.rows
    degrees = list(map(int.bit_count, rows))
    clique = previous = used = 0
    c = -1
    joins = False
    classes: list[int] = []
    # A stable sort keeps equal keys in index order, reverse=True included.
    for v in sorted(range(len(rows)), key=degrees.__getitem__, reverse=True):
        row = rows[v]
        bit = 1 << v
        closed = row | bit
        if closed == previous:
            c += 1
        else:
            c = 0
            joins = (clique & row) == clique
        if joins:
            clique |= bit
        while c < used and classes[c] & row:
            c += 1
        if c == used:
            classes.append(bit)
            used += 1
        else:
            classes[c] |= bit
        previous = closed
    return clique.bit_count(), used


def _colorable(graph: CommutingGraph, k: int) -> bool:
    """Exact k-colorability by DSATUR-ordered backtracking with first-use symmetry breaking."""
    nv = graph.n_vertices
    rows = graph.rows
    colors = [-1] * nv
    forbidden = [0] * nv  # bitmask of colors seen on colored neighbors

    def backtrack(done: int, used: int) -> bool:
        if done == nv:
            return True
        v = max(
            (u for u in range(nv) if colors[u] < 0),
            key=lambda u: (forbidden[u].bit_count(), rows[u].bit_count(), -u),
        )
        avail = ~forbidden[v] & ((1 << min(used + 1, k)) - 1)
        for c in bits(avail):
            colors[v] = c
            touched = []
            cbit = 1 << c
            for w in bits(rows[v]):
                if colors[w] < 0 and not forbidden[w] & cbit:
                    forbidden[w] |= cbit
                    touched.append(w)
            if backtrack(done + 1, max(used, c + 1)):
                return True
            colors[v] = -1
            for w in touched:
                forbidden[w] &= ~cbit
        return False

    return backtrack(0, 0)


def chromatic_number_oracle(graph: CommutingGraph) -> int:
    """Exact chromatic number: greedy clique and coloring bounds, backtracking between."""
    k, upper = _greedy_bounds(graph)
    nv = graph.n_vertices
    if k < upper and nv > MAX_CHROMATIC_SEARCH_VERTICES:
        cap = MAX_CHROMATIC_SEARCH_VERTICES
        raise CapExceededError(f"bounds {k} and {upper} differ on {nv} vertices > {cap}")
    while k < upper and not _colorable(graph, k):
        k += 1
    return k
