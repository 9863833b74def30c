"""Detour eccentricities: longest-simple-path search and the closed branch formulas."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import accumulate

from .dihedral import part_kind
from .graph import CapExceededError, CommutingGraph, bits, check_parameters, levels

# Ceiling on the detour oracles' vertex caps, whatever cap the caller passes: the
# DFS recurses once per path vertex, _cotree once per cotree level (up to one per
# vertex), and at Python's default limit of 1000 frames a cap near 1000 could fail.
MAX_DETOUR_VERTICES = 512


@dataclass(frozen=True)
class DetourProfile:
    """Per-vertex detour eccentricities in vertex order."""

    eccentricities: tuple[int, ...]

    @property
    def radius(self) -> int:
        return min(self.eccentricities)

    @property
    def diameter(self) -> int:
        return max(self.eccentricities)


def detour_ecc_formula(n: int, r: int, part: str) -> int:
    """Closed-form detour eccentricity by part.

    omega1 branch: 2n-1 when n/2**r < 2**r, else n + 2**r*(2**r - 1) - 1.
    omega2/omega3 branch: 2n-1 when n/2**r <= 2**r, else n + 4**r - 1.
    The strict/non-strict split at n/2**r = 2**r is deliberate: there the
    sign-+1 non-central vertices start Hamiltonian paths but central ones do not.
    """
    check_parameters(n, r)
    c = 1 << r
    q = n // c
    if part_kind(part) == "omega1":
        return 2 * n - 1 if q < c else n + c * (c - 1) - 1
    return 2 * n - 1 if q <= c else n + c * c - 1


def detour_radius_diameter_formula(n: int, r: int) -> tuple[int, int]:
    """(detour radius, detour diameter): the omega1 and omega2/omega3 branch values."""
    return (
        detour_ecc_formula(n, r, "omega1"),
        detour_ecc_formula(n, r, "omega2"),
    )


def detour_ecc_oracle(graph: CommutingGraph, start: int, max_vertices: int = 20) -> int:
    """Exact longest simple path from start, in edges.

    Branch-and-bound DFS. Pruning never changes the result:
    - optimistic bound: path length + vertices still reachable through the
      unvisited set cannot exceed the incumbent;
    - interchangeable-extension skip: two unvisited neighbors of the current
      endpoint whose neighborhoods agree outside the pair can be swapped in
      any continuation, so only one is tried.
    """
    nv = graph.n_vertices
    max_vertices = min(max_vertices, MAX_DETOUR_VERTICES)
    if nv > max_vertices:
        raise CapExceededError(f"{nv} vertices exceeds detour cap {max_vertices}")
    if not 0 <= start < nv:
        raise IndexError(f"vertex {start} out of range 0..{nv - 1}")
    rows = graph.rows
    full = (1 << nv) - 1
    best = 0

    def dfs(v: int, visited: int, length: int) -> None:
        nonlocal best
        if length > best:
            best = length
        unvisited = full & ~visited
        cand = rows[v] & unvisited
        if not cand:
            return
        # The levels are disjoint, so their sum is the set reachable through unvisited.
        if length + sum(levels(rows, cand, unvisited)).bit_count() <= best:
            return
        reps: list[int] = []
        for w in bits(cand):
            b = 1 << w
            skip = False
            for rep in reps:
                outside = unvisited & ~b & ~(1 << rep)
                if rows[w] & outside == rows[rep] & outside:
                    skip = True
                    break
            if skip:
                continue
            reps.append(w)
            dfs(w, visited | b, length + 1)

    dfs(start, 1 << start, 0)
    return best


def detour_ecc_reference(graph: CommutingGraph, start: int, max_vertices: int = 12) -> int:
    """Exhaustive search over all simple paths; cross-checks the oracle.

    The longest extension of a path depends only on its endpoint and its vertex
    set, so it is memoised on that pair. That is exact: no bound, no twin skip,
    nothing shared with detour_ecc_oracle or detour_profile.
    """
    nv = graph.n_vertices
    if nv > max_vertices:
        raise CapExceededError(f"{nv} vertices exceeds reference cap {max_vertices}")
    if not 0 <= start < nv:
        raise IndexError(f"vertex {start} out of range 0..{nv - 1}")
    rows = graph.rows

    @cache
    def longest(v: int, visited: int) -> int:
        return max((1 + longest(w, visited | 1 << w) for w in bits(rows[v] & ~visited)), default=0)

    return longest(start, 1 << start)


def _split(rows, members: int) -> list[int]:
    """Components on members of the graph with these rows; complement rows give co-components."""
    parts = []
    while members:
        part = sum(levels(rows, members & -members, members))
        parts.append(part)
        members &= ~part
    return parts


def _cotree(rows) -> tuple[list[tuple], dict[tuple[int, ...], list[int]]]:
    """The cotree read from the rows: (shapes, chains), or CapExceededError off cographs.

    A clique or an independent set is a leaf, a disconnected set the union of its
    components, and a co-disconnected set the join of its co-components. shapes[i] is
    (kind, size, sorted child ids), children first. chains maps each leaf-to-root
    tuple of ids to its vertices, which automorphisms permute. One frame per level.
    """
    ids: dict[tuple, int] = {}
    ancestries: list[list[int]] = [[] for _ in rows]
    full = (1 << len(rows)) - 1
    co_rows = [full ^ row ^ (1 << v) for v, row in enumerate(rows)]

    def node(members: int) -> int:
        size, kids = members.bit_count(), []
        degree = sum([(rows[v] & members).bit_count() for v in bits(members)])
        kind = "clique" if degree == size * (size - 1) else "independent" if not degree else None
        if kind is None:
            kind, parts = "union", _split(rows, members)
            if len(parts) == 1:
                kind, parts = "join", _split(co_rows, members)
            if len(parts) == 1:
                raise CapExceededError("graph is not a cograph")
            # The single-vertex parts together are one leaf: an independent set or a clique.
            lone = sum([part for part in parts if part.bit_count() == 1])
            for part in [part for part in parts if part.bit_count() > 1] + ([lone] if lone else []):
                kids.append(node(part))
        shape = ids.setdefault((kind, size, tuple(sorted(kids))), len(ids))
        for v in bits(members):
            ancestries[v].append(shape)
        return shape

    node(full)
    chains: dict[tuple[int, ...], list[int]] = {}
    for v, ancestry in enumerate(ancestries):
        chains.setdefault(tuple(ancestry), []).append(v)
    return list(ids), chains


def _combine(kind: str, fa: list[int], fb: list[int], rooted: bool = False) -> list[int]:
    """Cover array of A ⊔ B or A ∨ B from those of A and B.

    f[k] is the most vertices that at most k disjoint paths cover, stored up to the
    first k where it reaches the vertex count. Rooted at v in A, one path ends at v
    and fa[0] is unused. A union's a A-paths and b B-paths make a + b paths; in a
    join every A-vertex meets every B-vertex, so a A-segments and b B-segments link
    into max(1, |a - b|) paths, or b - a + 1 if rooted and b > a, since the path
    ending at v has no more B- than A-segments. Past its stored entries a side is
    constant, so it is tried only at the count nearest the other side.
    """
    ta, tb, na, nb = len(fa) - 1, len(fb) - 1, fa[-1], fb[-1]
    best = [0] * (ta + tb + 2)
    pairs = [(min(max(b, ta), na), b) for b in range(tb + 1)]
    pairs += [(a, b) for a in range(rooted, ta + 1) for b in [*range(tb + 1), min(max(a, tb), nb)]]
    for a, b in pairs:
        if kind == "union":
            paths = a + b
        else:
            paths = b - a + 1 if rooted and b > a else abs(a - b) or 1
        value = fa[a if a < ta else ta] + fb[b if b < tb else tb]
        if paths < len(best) and value > best[paths]:
            best[paths] = value
    out = list(accumulate(best, max))
    return out[: out.index(na + nb) + 1]


def detour_profile(graph: CommutingGraph, max_vertices: int = 20) -> DetourProfile:
    """Exact eccentricity of every vertex of a cograph, by path covers on its cotree.

    Cover arrays compose over the cotree (Lin, Olariu and Pruesse, 1995); ecc(v) is
    h(1) - 1 for the root's array rooted at v, one pass per chain of _cotree. The cap,
    clamped to MAX_DETOUR_VERTICES, is checked before the cotree is read. A graph that
    is not a cograph is refused with CapExceededError; detour_ecc_oracle answers it.
    """
    max_vertices = min(max_vertices, MAX_DETOUR_VERTICES)
    if graph.n_vertices > max_vertices:
        raise CapExceededError(f"{graph.n_vertices} vertices exceeds detour cap {max_vertices}")
    shapes, chains = _cotree(graph.rows)
    covers: list[list[int]] = []
    for kind, size, kids in shapes:
        if kids:
            covers.append(reduce(partial(_combine, kind), [covers[k] for k in kids]))
        else:
            covers.append([0, size] if kind == "clique" else list(range(size + 1)))
    ecc = [0] * graph.n_vertices
    for ancestry, vertices in chains.items():
        h = covers[ancestry[0]]
        for child, parent in zip(ancestry, ancestry[1:]):
            kind, _, kids = shapes[parent]
            i = kids.index(child)
            rest = reduce(partial(_combine, kind), [covers[k] for k in kids[:i] + kids[i + 1 :]])
            h = _combine(kind, h, rest, rooted=True)
        for v in vertices:
            ecc[v] = h[1] - 1
    return DetourProfile(tuple(ecc))
