"""Degree, edge-count and chromatic-number formulas, the explicit coloring, and an exact coloring search."""

from __future__ import annotations

from .dihedral import part_kind
from .graph import CapExceededError, CommutingGraph, bits, check_parameters


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
    nxt = 0
    for v, label in enumerate(graph.part_labels):
        kind = part_kind(label)
        if kind in ("omega1", "omega2"):
            colors[v] = nxt
            if kind == "omega2":
                omega2_colors.append(nxt)
            nxt += 1
    position: dict[str, int] = {}
    for v, label in enumerate(graph.part_labels):
        if part_kind(label) == "omega3":
            k = position.get(label, 0)
            if k >= len(omega2_colors):
                raise ValueError(f"block {label!r} larger than the reusable color pool")
            colors[v] = omega2_colors[k]
            position[label] = k + 1
    return tuple(colors)


def is_proper_coloring(graph: CommutingGraph, colors) -> bool:
    """True iff no vertex's row meets the mask of its own color class."""
    if len(colors) != graph.n_vertices:
        raise ValueError(f"{len(colors)} colors for {graph.n_vertices} vertices")
    classes: dict = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    return not any(row & classes[c] for row, c in zip(graph.rows, colors))


def _greedy_bounds(graph: CommutingGraph) -> tuple[int, int]:
    """(clique size, colors used) from one pass by falling degree, ties to the lower index.

    A vertex joins the clique when it sees every member, and takes the first
    color class its row misses. On a commuting graph the clique is omega1 +
    omega2, an n-clique: omega1 has degree 2n - 1, and omega2's n - 1 is at least
    a block's 2**(r+1) - 1 because n/2**r >= 2. The graph is P4-free, and first-fit
    coloring of a P4-free graph is optimal in any order (Chvatal 1984), so both
    bounds are n and no search runs.
    """
    rows = graph.rows
    clique = 0
    classes: list[int] = []
    for v in sorted(range(graph.n_vertices), key=lambda v: -rows[v].bit_count()):
        if clique & ~rows[v] == 0:
            clique |= 1 << v
        for c, members in enumerate(classes):
            if not members & rows[v]:
                classes[c] = members | 1 << v
                break
        else:
            classes.append(1 << v)
    return clique.bit_count(), len(classes)


def _colorable(graph: CommutingGraph, k: int) -> bool:
    """Exact k-colorability by DSATUR-ordered backtracking with first-use symmetry breaking."""
    nv = graph.n_vertices
    rows = graph.rows
    if k >= nv:
        return True
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


def chromatic_number_oracle(graph: CommutingGraph, max_vertices: int = 24) -> int:
    """Exact chromatic number: greedy clique and coloring bounds, backtracking between."""
    nv = graph.n_vertices
    if nv > max_vertices:
        raise CapExceededError(f"{nv} vertices exceeds chromatic cap {max_vertices}")
    k, upper = _greedy_bounds(graph)
    while k < upper and not _colorable(graph, k):
        k += 1
    return k
