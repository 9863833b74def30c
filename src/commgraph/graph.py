"""Dense simple graphs over bit-packed adjacency rows, plus the two commuting-graph builds.

build_commuting_graph measures adjacency from the group's commutation
criterion; the structural build synthesizes the predicted join of cliques
from (n, r) alone. The two must agree vertex-for-vertex under the canonical
ordering.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO, Union

from .abelian import AbelianGroup
from .dihedral import (
    DihedralElement,
    ElementaryAbelian2Error,
    OmegaPartition,
    OMEGA1,
    OMEGA2,
    block_label,
    format_element,
    omega_partition,
)

Subset = Union[str, tuple[str, int], Sequence[DihedralElement]]


# Ceiling on the measured-graph cap, whatever cap the caller passes: the rows
# take nv**2 / 8 bytes (2**30 bits = 128 MiB at the ceiling).
MAX_GRAPH_VERTICES = 1 << 15


class GraphShapeError(ValueError):
    """Graphs of incompatible shape were compared or constructed."""


class CapExceededError(RuntimeError):
    """An exponential oracle was asked to run above its vertex cap."""


def bits(mask: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def levels(rows: Sequence[int], frontier: int, allowed: int) -> list[int]:
    """BFS inside allowed from frontier's allowed vertices: level d is the mask d steps out."""
    out = []
    seen = frontier = frontier & allowed
    while frontier:
        out.append(frontier)
        nxt = 0
        for v in bits(frontier):
            nxt |= rows[v]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return out


def check_parameters(n: int, r: int) -> None:
    """Validate an (order, 2-rank) pair for the closed-form machinery."""
    if n < 2 or r < 0:
        raise ValueError(f"invalid parameters n={n}, r={r}")
    if n % (1 << r):
        raise ValueError(f"2**r = {1 << r} must divide n = {n}")
    if n == 1 << r:
        raise ElementaryAbelian2Error(
            f"n = 2**r = {n}: D(G) is abelian, the formulas do not apply"
        )


class _CommutingGraphFields(NamedTuple):
    rows: tuple[int, ...]
    part_labels: tuple[str, ...] | None = None
    vertices: tuple[DihedralElement, ...] | None = None


class CommutingGraph(_CommutingGraphFields):
    """Immutable simple graph; rows[i] is the neighbor bitmask of vertex i.

    part_labels/vertices are carried by the two standard builds; ad-hoc test
    graphs may leave them as None.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CommutingGraph:
        self = super().__new__(cls, *args, **kwargs)
        nv = len(self.rows)
        for i, row in enumerate(self.rows):
            if row >> i & 1:
                raise GraphShapeError(f"self-loop at vertex {i}")
            if row >> nv:
                raise GraphShapeError(f"row {i} addresses vertices outside 0..{nv - 1}")
        if self.part_labels is not None and len(self.part_labels) != nv:
            raise GraphShapeError("part_labels length does not match vertex count")
        if self.vertices is not None and len(self.vertices) != nv:
            raise GraphShapeError("vertices length does not match vertex count")
        return self

    @classmethod
    def _make(cls, iterable) -> CommutingGraph:
        # _replace builds through _make, so it validates too.
        return cls(*iterable)

    @property
    def n_vertices(self) -> int:
        return len(self.rows)

    def is_adjacent(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, v: int) -> int:
        if not 0 <= v < len(self.rows):
            raise IndexError(f"vertex {v} out of range 0..{len(self.rows) - 1}")
        return self.rows[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def neighbors(self, v: int) -> list[int]:
        if not 0 <= v < len(self.rows):
            raise IndexError(f"vertex {v} out of range 0..{len(self.rows) - 1}")
        return bits(self.rows[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (i, j) with i < j, in ascending order."""
        for i, row in enumerate(self.rows):
            for j in bits(row >> (i + 1) << (i + 1)):
                yield (i, j)

    def vertex_labels(self) -> tuple[str, ...]:
        if self.vertices is not None:
            return tuple(format_element(x) for x in self.vertices)
        return tuple(f"v{i}" for i in range(len(self.rows)))

    @classmethod
    def from_edges(
        cls,
        n_vertices: int,
        edges: Iterable[tuple[int, int]],
        part_labels: tuple[str, ...] | None = None,
        vertices: tuple[DihedralElement, ...] | None = None,
    ) -> "CommutingGraph":
        rows = [0] * n_vertices
        for i, j in edges:
            if i == j:
                raise GraphShapeError(f"self-loop at vertex {i}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(tuple(rows), part_labels, vertices)


def twin_classes(graph: CommutingGraph) -> tuple[tuple[int, ...], ...]:
    """Twin classes from the rows alone, singletons included, ordered by smallest member.

    Twins have equal open neighborhoods or equal closed ones. The classes are the
    open-neighborhood groups of two or more vertices plus the closed-neighborhood
    groups of the remaining vertices, since no vertex v has both an open twin u and
    a closed twin w: w in N(v) = N(u) would put u in N[w] = N[v], so u in N(u).
    Swapping two members of a class is an automorphism.
    """
    rows = graph.rows

    def groups(key_of, vertices) -> list[list[int]]:
        # Vertices arrive in ascending order, so each group starts at its smallest.
        out: dict[int, list[int]] = {}
        for v in vertices:
            out.setdefault(key_of(v), []).append(v)
        return list(out.values())

    opened = groups(rows.__getitem__, range(len(rows)))
    paired = [g for g in opened if len(g) > 1]
    closed = groups(lambda v: rows[v] | 1 << v, [g[0] for g in opened if len(g) == 1])
    # Classes are disjoint, so sorting the tuples orders them by smallest member.
    return tuple(sorted(tuple(g) for g in paired + closed))


def _select(
    part: OmegaPartition, subset: Subset
) -> tuple[list[DihedralElement], tuple[str, ...]]:
    if isinstance(subset, str):
        key = subset.lower()
        if key == "all":
            return list(part.vertices()), part.part_labels()
        if key == "omega1":
            return list(part.omega1), (OMEGA1,) * len(part.omega1)
        if key == "omega2":
            return list(part.omega2), (OMEGA2,) * len(part.omega2)
        if key == "omega3":
            k = len(part.omega1) + len(part.omega2)
            return list(part.vertices()[k:]), part.part_labels()[k:]
        raise ValueError(f"unknown subset selector {subset!r}")
    if isinstance(subset, tuple) and len(subset) == 2 and subset[0] == "block":
        i = subset[1]
        if not 1 <= i <= len(part.blocks):
            raise IndexError(f"block index {i} out of range 1..{len(part.blocks)}")
        return list(part.blocks[i - 1]), (block_label(i),) * len(part.blocks[i - 1])
    order = {x: k for k, x in enumerate(part.vertices())}
    labels_all = part.part_labels()
    elems = list(subset)
    for x in elems:
        if x not in order:
            raise ValueError(f"{x!r} is not an element of this D(G)")
    if len(set(elems)) != len(elems):
        raise ValueError("duplicate vertices in explicit subset")
    elems.sort(key=order.__getitem__)
    return elems, tuple(labels_all[order[x]] for x in elems)


def build_commuting_graph(group: AbelianGroup, subset: Subset = "all") -> CommutingGraph:
    """Commuting graph of D(G) on a chosen vertex set, in canonical vertex order.

    subset is one of "all", "omega1", "omega2", "omega3", ("block", i) with
    1-based i, or an explicit iterable of DihedralElement (which is reordered
    canonically). Adjacency comes from the commutation classes of
    omega_partition, one part label per class: an omega1 (central) vertex sees
    every vertex, and any other vertex sees its own class plus omega1.
    """
    part = omega_partition(group)
    verts, labels = _select(part, subset)
    classes: dict[str, int] = {}
    for i, label in enumerate(labels):
        classes[label] = classes.get(label, 0) | 1 << i
    central = classes.get(OMEGA1, 0)
    reach = {label: mask | central for label, mask in classes.items()}
    reach[OMEGA1] = (1 << len(verts)) - 1
    rows = tuple(reach[label] ^ (1 << i) for i, label in enumerate(labels))
    return CommutingGraph(rows, labels, tuple(verts))


def build_structural_graph(n: int, r: int) -> CommutingGraph:
    """Join of a 2**r-clique with (an (n - 2**r)-clique plus n/2**r more 2**r-cliques).

    Same part layout as build_commuting_graph(group, "all"), so the two are
    comparable by plain adjacency equality. Synthetic: carries part labels but
    no group elements.
    """
    check_parameters(n, r)
    c = 1 << r
    q = n // c
    nv = 2 * n
    labels = [OMEGA1] * c + [OMEGA2] * (n - c)
    for i in range(1, q + 1):
        labels += [block_label(i)] * c
    full = (1 << nv) - 1
    omega1_mask = (1 << c) - 1
    rows = [0] * nv
    for v in range(c):
        rows[v] = full & ~(1 << v)
    cliques = [range(c, n)] + [range(n + i * c, n + (i + 1) * c) for i in range(q)]
    for rng in cliques:
        mask = 0
        for v in rng:
            mask |= 1 << v
        for v in rng:
            rows[v] = (mask & ~(1 << v)) | omega1_mask
    return CommutingGraph(tuple(rows), tuple(labels), None)


def edge_sets_equal(a: CommutingGraph, b: CommutingGraph) -> bool:
    """True iff the adjacency matrices are identical under the canonical orderings."""
    if a.n_vertices != b.n_vertices:
        raise GraphShapeError(
            f"vertex counts differ: {a.n_vertices} vs {b.n_vertices}"
        )
    return a.rows == b.rows


def write_dot(graph: CommutingGraph, fh: TextIO, name: str = "commuting") -> None:
    """Write DOT text with one subgraph cluster per part and element text labels.

    One write per cluster and one per row's edges, so the text is never held whole.
    """
    labels = graph.vertex_labels()
    fh.write(f"graph {name} {{\n")
    if graph.part_labels is not None:
        groups: dict[str, list[int]] = {}
        for v, pl in enumerate(graph.part_labels):
            groups.setdefault(pl, []).append(v)
        for pl, members in groups.items():
            decls = "".join(f'    v{v} [label="{labels[v]}"];\n' for v in members)
            fh.write(f'  subgraph cluster_{pl} {{\n    label="{pl}";\n{decls}  }}\n')
    else:
        fh.write("".join(f'  v{v} [label="{labels[v]}"];\n' for v in range(graph.n_vertices)))
    # Same lines as formatting each of edges(), with one f-string per row, not per edge.
    ends = [f"v{j};\n" for j in range(graph.n_vertices)]
    for i, row in enumerate(graph.rows):
        prefix = f"  v{i} -- "
        fh.write("".join([prefix + ends[j] for j in bits(row >> (i + 1) << (i + 1))]))
    fh.write("}\n")


def write_adjacency_csv(graph: CommutingGraph, fh: TextIO) -> None:
    """Write the 0/1 adjacency matrix as CSV, first line the vertex labels, a row at a time."""
    # Labels contain commas, so the header goes through the csv quoting rules.
    csv.writer(fh, lineterminator="\n").writerow(graph.vertex_labels())
    nv = graph.n_vertices
    for row in graph.rows:
        # Binary digits run from the highest bit down; column j is bit j.
        fh.write(",".join(format(row, f"0{nv}b")[::-1]) + "\n")


def to_dot(graph: CommutingGraph, name: str = "commuting") -> str:
    """write_dot's text as one string."""
    buf = io.StringIO()
    write_dot(graph, buf, name)
    return buf.getvalue()


def to_adjacency_csv(graph: CommutingGraph) -> str:
    """write_adjacency_csv's text as one string."""
    buf = io.StringIO()
    write_adjacency_csv(graph, buf)
    return buf.getvalue()
