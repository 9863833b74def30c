"""The cotree of a cograph, read from its rows by rounds of twin merging."""

from __future__ import annotations

from typing import NamedTuple

from .graph import CapExceededError, CommutingGraph, twin_classes

# Ceiling on the twin-merging rounds, so on the levels of a cotree: each round costs a
# pass over the vertices left.
MAX_COTREE_LEVELS = 512


class Cotree(NamedTuple):
    """A cograph's cotree: shapes[i] is node i's (kind, size, sorted child ids).

    Nodes come children first, and equal subtrees share one id. A leaf is a clique or
    an independent set of size vertices; an inner node is a join or a union. chains
    maps each leaf-to-root tuple of ids to its vertices, which automorphisms permute.
    """

    n_vertices: int
    shapes: list[tuple]
    chains: dict[tuple[int, ...], list[int]]


def build_cotree(graph: CommutingGraph) -> Cotree:
    """The cotree by rounds of twin merging, or CapExceededError off cographs.

    Every induced subgraph of a cograph on two or more vertices has twins (Corneil, Lerchs
    and Stewart Burlingham, 1981). A round turns each twin class of two or more vertices of
    the quotient into one node, kept by its smallest member: closed twins are a join, open
    twins a union, and a class of bare vertices a clique or independent leaf. A class is a
    module, so the next round runs on the quotient that masks out the other members. A
    round with no twins is refused, as is a round past MAX_COTREE_LEVELS; a node is made
    of earlier rounds' nodes, so the rounds bound the depth.
    """
    rows = graph.rows
    ids: dict[tuple, int] = {}
    # Survivor -> (node id, size, [ancestry, vertices] of each leaf below); absent if bare.
    tops: dict[int, tuple[int, int, list[list]]] = {}
    classes = twin_classes(graph)
    for depth in range(MAX_COTREE_LEVELS + 1):
        merging = [c for c in classes if len(c) > 1]
        if not merging:
            break
        if depth == MAX_COTREE_LEVELS:
            raise CapExceededError(f"cotree deeper than {MAX_COTREE_LEVELS} levels")
        for c in merging:
            kind = "join" if rows[c[1]] >> c[0] & 1 else "union"
            held = tops.keys() & c
            parts = [tops.pop(v) for v in held]
            bare = [v for v in c if v not in held] if held else list(c)
            if bare:
                leaf = "clique" if kind == "join" or len(bare) == 1 else "independent"
                i = ids.setdefault((leaf, len(bare), ()), len(ids))
                parts.append((i, len(bare), [[[i], bare]]))
            if len(parts) > 1:
                size = sum(part[1] for part in parts)
                kids = tuple(sorted(part[0] for part in parts))
                node = ids.setdefault((kind, size, kids), len(ids))
                leaves = [entry for part in parts for entry in part[2]]
                for ancestry, _ in leaves:
                    ancestry.append(node)
                parts = [(node, size, leaves)]
            tops[c[0]] = parts[0]
        classes = twin_classes(graph, [c[0] for c in classes])
    if len(classes) > 1:
        raise CapExceededError("graph is not a cograph")
    if classes and not tops:
        ids[("clique", 1, ())] = 0  # one vertex: a leaf of its own
        tops[0] = (0, 1, [[[0], [0]]])
    chains: dict[tuple[int, ...], list[int]] = {}
    for _, _, leaves in tops.values():
        for ancestry, vertices in leaves:
            chains.setdefault(tuple(ancestry), []).extend(vertices)
    return Cotree(graph.n_vertices, list(ids), chains)
