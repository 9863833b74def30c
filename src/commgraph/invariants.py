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


def _seed_clique(graph: CommutingGraph) -> list[int]:
    """A clique for the lower bound: the verified sign-+1 set if labeled, else greedy."""
    rows = graph.rows
    labeled: list[int] = []
    if graph.part_labels is not None:
        cand = [
            v for v, pl in enumerate(graph.part_labels) if part_kind(pl) != "omega3"
        ]
        if all(rows[u] >> v & 1 for k, u in enumerate(cand) for v in cand[k + 1 :]):
            labeled = cand
    greedy: list[int] = []
    mask = 0
    for v in sorted(range(graph.n_vertices), key=lambda v: -rows[v].bit_count()):
        if mask & ~rows[v] == 0:
            greedy.append(v)
            mask |= 1 << v
    return labeled if len(labeled) >= len(greedy) else greedy


def _dsatur_greedy(graph: CommutingGraph) -> tuple[int, list[int]]:
    """Greedy DSATUR coloring; returns (colors used, assignment)."""
    nv = graph.n_vertices
    rows = graph.rows
    colors = [-1] * nv
    neighbor_colors: list[set[int]] = [set() for _ in range(nv)]
    for _ in range(nv):
        v = max(
            (u for u in range(nv) if colors[u] < 0),
            key=lambda u: (len(neighbor_colors[u]), rows[u].bit_count(), -u),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        for w in bits(rows[v]):
            neighbor_colors[w].add(c)
    return max(colors) + 1, colors


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
    """Exact chromatic number: clique lower bound, DSATUR upper bound, backtracking between."""
    nv = graph.n_vertices
    if nv > max_vertices:
        raise CapExceededError(f"{nv} vertices exceeds chromatic cap {max_vertices}")
    if nv == 0:
        return 0
    lower = len(_seed_clique(graph))
    upper, _ = _dsatur_greedy(graph)
    k = lower
    while k < upper and not _colorable(graph, k):
        k += 1
    return k
