"""Dense simple graphs over bit-packed adjacency rows, plus the two commuting-graph builds.

build_commuting_graph measures adjacency from the group's commutation
criterion; structural_rows synthesizes the predicted join of cliques from
(n, r) alone. The two must agree vertex-for-vertex under the canonical
ordering.
"""

from __future__ import annotations

import csv
import io
from itertools import chain, compress, count, repeat
from operator import ne, xor
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
    part_kind,
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


def part_runs(labels: tuple[str, ...]) -> tuple[tuple[str, str, int, int], ...]:
    """(label, part_kind(label), start, end) of each run of equal consecutive labels.

    The graph build, the coloring and a report's parts each call it on their labels;
    nothing is kept between calls.
    """
    starts = list(compress(range(len(labels)), map(ne, labels, [None, *labels])))
    ends = [*starts[1:], len(labels)]
    return tuple((labels[a], part_kind(labels[a]), a, b) for a, b in zip(starts, ends))


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
        return sum(map(int.bit_count, self.rows)) // 2

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


def twin_classes(
    graph: CommutingGraph, among: Sequence[int] | None = None
) -> tuple[tuple[int, ...], ...]:
    """Twin classes from the rows alone, singletons included, ordered by smallest member.

    Without among, the classes of the whole graph. With among, ascending vertex ids,
    those of the subgraph it induces, which keeps the ids: the quotient, when among
    holds one member of each class of a partition into modules, such as twin classes.
    Twins have equal open neighborhoods or equal closed ones. The classes are the
    closed-neighborhood groups of two or more vertices plus the open-neighborhood
    groups of the remaining vertices, since no vertex v has both an open twin u and
    a closed twin w: w in N(v) = N(u) would put u in N[w] = N[v], so u in N(u).
    Swapping two members of a class is an automorphism.
    """
    rows = graph.rows
    vertices = range(len(rows)) if among is None else among
    if among is not None:
        inside = sum(map((1).__lshift__, among))
        rows = {v: rows[v] & inside for v in among}
    # closed keeps one row per group as its key, not a copy of every row.
    closed: dict[int, list[int]] = {}
    for v in vertices:
        closed.setdefault(rows[v] | 1 << v, []).append(v)
    opened: dict[int, list[int]] = {}
    for group in closed.values():
        if len(group) == 1:
            opened.setdefault(rows[group[0]], []).append(group[0])
    classes = [group for group in closed.values() if len(group) > 1] + list(opened.values())
    # Classes are disjoint, so sorting the tuples orders them by smallest member.
    return tuple(sorted(map(tuple, classes)))


def _select(
    part: OmegaPartition, subset: Subset
) -> tuple[Sequence[DihedralElement], tuple[str, ...]]:
    if isinstance(subset, str):
        key = subset.lower()
        if key == "all":
            return part.vertices(), part.part_labels()
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
    # Canonical order keeps each class contiguous: one run of labels per class.
    classes = {label: (1 << b) - (1 << a) for label, _, a, b in part_runs(labels)}
    central = classes.get(OMEGA1, 0)
    reach = {label: mask | central for label, mask in classes.items()}
    reach[OMEGA1] = (1 << len(labels)) - 1
    rows = tuple([reach[label] ^ (1 << i) for i, label in enumerate(labels)])
    return CommutingGraph(rows, labels, tuple(verts))


def structural_rows(n: int, r: int) -> Iterator[int]:
    """Join of a 2**r-clique with (an (n - 2**r)-clique plus n/2**r more 2**r-cliques).

    Gives one row at a time, in build_commuting_graph(group, "all")'s vertex order, so
    the two compare row by row without a second copy of the rows.
    """
    check_parameters(n, r)
    c = 1 << r
    block = omega1 = (1 << c) - 1  # c vertices from 0; a block is one shifted up
    blocks = ((block << a) | omega1 for a in range(n, 2 * n, c))
    reaches = chain([(1 << 2 * n) - 1, ((1 << n) - (1 << c)) | omega1], blocks)
    per_vertex = chain.from_iterable(map(repeat, reaches, [c, n - c, *repeat(c, n // c)]))
    return map(xor, per_vertex, map((1).__lshift__, count()))


def build_structural_graph(n: int, r: int) -> CommutingGraph:
    """structural_rows(n, r) as a graph with build_commuting_graph's part labels, no elements."""
    rows = tuple(structural_rows(n, r))
    c = 1 << r
    names = [OMEGA1, OMEGA2, *map(block_label, range(1, n // c + 1))]
    labels = tuple(chain.from_iterable(map(repeat, names, [c, n - c, *repeat(c, n // c)])))
    return CommutingGraph(rows, labels, None)


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
