"""Degree, edge-count and chromatic-number formulas, the explicit coloring, and the
chromatic number of a cograph read off its cotree."""

from __future__ import annotations

from operator import and_

from .cotree import Cotree
from .dihedral import part_kind
from .graph import CommutingGraph, check_parameters, part_runs


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


def chromatic_number_oracle(tree: Cotree) -> int:
    """Exact chromatic number of a cograph: its clique number, folded over the cotree.

    A cograph is perfect, so its chromatic number is its clique number (Corneil, Lerchs
    and Stewart Burlingham, 1981). Children first: a clique leaf gives its size, an
    independent leaf 1, a join the sum of its children's, a union their max; the root
    comes last, and the empty tree gives 0. A graph without a cotree is refused by
    build_cotree, so there is no search and no cap.
    """
    omega: list[int] = []
    for kind, size, kids in tree.shapes:
        if kind == "clique":
            omega.append(size)
        elif kind == "independent":
            omega.append(1)
        else:
            children = [omega[k] for k in kids]
            omega.append(sum(children) if kind == "join" else max(children))
    return omega[-1] if omega else 0
