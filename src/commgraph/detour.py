"""Detour eccentricities: longest-simple-path search and the closed branch formulas."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .dihedral import part_kind
from .graph import CapExceededError, CommutingGraph, bits, check_parameters, twin_classes

# Ceiling on the detour oracles' vertex caps, whatever cap the caller passes: the
# DFS and the walk DP recurse once per path vertex, and Python's default recursion
# limit is 1000 frames, so a cap near 1000 could end in RecursionError.
MAX_DETOUR_VERTICES = 512

# Ceiling on the memo of detour_profile's longest-walk DP: filling it takes about
# 1 s and 40 MB. Z2xZ8 needs 2245 states and Z2xZ2xZ8 19,217; Z2xZ2xZ12 needs
# about 356,000 and is refused.
MAX_DETOUR_STATES = 1 << 18


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


def _reachable(rows, frontier: int, allowed: int) -> int:
    """Bitmask of vertices reachable from frontier inside allowed (frontier included)."""
    seen = frontier & allowed
    current = seen
    while current:
        nxt = 0
        for v in bits(current):
            nxt |= rows[v]
        current = nxt & allowed & ~seen
        seen |= current
    return seen


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
        reach = _reachable(rows, cand, unvisited)
        if length + reach.bit_count() <= best:
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

    @functools.cache
    def longest(v: int, visited: int) -> int:
        return max((1 + longest(w, visited | 1 << w) for w in bits(rows[v] & ~visited)), default=0)

    return longest(start, 1 << start)


def _longest_walks(graph: CommutingGraph, classes) -> list[int]:
    """Longest walk from each twin class on the twin quotient, in edges.

    A simple path is a walk on the classes that steps inside a class only when
    the class is a clique and uses class C at most |C| times; any such walk lifts
    to a path. Classes of equal size and kind that are twins in the quotient are
    swapped by an automorphism, so they form one type. A state is the current
    type, the remaining count of the current class and, per type, the sorted
    remaining counts of its classes; one memo serves every start. A branch stops
    once its path holds every vertex, since no walk is longer.
    """
    rows = graph.rows
    class_of = {v: i for i, members in enumerate(classes) for v in members}
    size = [len(members) for members in classes]
    clique = [len(members) > 1 and graph.is_adjacent(members[0], members[1]) for members in classes]
    quotient = []
    for i, members in enumerate(classes):
        row = 0
        for v in bits(rows[members[0]]):
            row |= 1 << class_of[v]
        quotient.append(row & ~(1 << i))
    # Twin classes of the quotient whose members agree in size and kind.
    types = twin_classes(CommutingGraph(tuple(quotient)), list(zip(size, clique)))
    type_size = [size[members[0]] for members in types]
    type_clique = [clique[members[0]] for members in types]
    # Adjacency between two types is uniform, and inside one type it is all or none.
    steps = [
        [u for u, other in enumerate(types) if quotient[members[0]] >> other[-1] & 1]
        for members in types
    ]
    # The sorted counts of every type are histograms packed into one int, `code`:
    # type t has a field of width[t] bits per count j >= 1, holding how many of its
    # classes have j left, the current class included. units[t][j] is 1 in that
    # field, and units[t][0] is 0.
    width = [len(members).bit_length() for members in types]
    offsets, masks, units = [], [], []
    offset = 0
    for t, members in enumerate(types):
        offsets.append(offset)
        masks.append((1 << width[t] * type_size[t]) - 1)
        units.append([0] + [1 << offset + width[t] * j for j in range(type_size[t])])
        offset += width[t] * type_size[t]
    memo: dict[tuple[int, int, int], int] = {}

    def moves(t: int, rem: int, code: int):
        """(type, count before the step, code after it) for each distinct next step."""
        if rem and type_clique[t]:
            yield t, rem, code - units[t][rem] + units[t][rem - 1]
        for u in steps[t]:
            w = width[u]
            fields = code >> offsets[u] & masks[u]
            k = 0
            while fields:
                skip = ((fields & -fields).bit_length() - 1) // w
                k += skip + 1
                fields >>= skip * w
                # The current class does not count as another class with k left.
                if not (u == t and k == rem and fields & ((1 << w) - 1) == 1):
                    yield u, k, code - units[u][k] + units[u][k - 1]
                fields >>= w

    def longest(t: int, rem: int, code: int, left: int) -> int:
        key = (t, rem, code)
        best = memo.get(key)
        if best is not None:
            return best
        if len(memo) >= MAX_DETOUR_STATES:
            raise CapExceededError(f"detour walk states > budget {MAX_DETOUR_STATES}")
        best = 0
        for u, k, after in moves(t, rem, code):
            best = max(best, 1 + longest(u, k - 1, after, left - 1))
            if best == left:  # the path already takes every unvisited vertex
                break
        memo[key] = best
        return best

    full = sum(units[t][-1] * len(members) for t, members in enumerate(types))
    ecc = [0] * len(classes)
    for t, members in enumerate(types):
        rem = type_size[t] - 1
        value = longest(t, rem, full - units[t][rem + 1] + units[t][rem], graph.n_vertices - 1)
        for i in members:
            ecc[i] = value
    return ecc


def detour_profile(graph: CommutingGraph, max_vertices: int = 20) -> DetourProfile:
    """Exact eccentricity of every vertex, from one longest-walk DP on the twin quotient.

    Swapping two twins is an automorphism, so twins have equal eccentricities,
    and a longest path is a longest walk on the twin classes (_longest_walks).
    The cap, clamped to MAX_DETOUR_VERTICES, is checked before the twin classes
    are computed; past MAX_DETOUR_STATES states the DP raises CapExceededError.
    """
    max_vertices = min(max_vertices, MAX_DETOUR_VERTICES)
    if graph.n_vertices > max_vertices:
        raise CapExceededError(f"{graph.n_vertices} vertices exceeds detour cap {max_vertices}")
    classes = twin_classes(graph)
    ecc = [0] * graph.n_vertices
    for members, value in zip(classes, _longest_walks(graph, classes)):
        for v in members:
            ecc[v] = value
    return DetourProfile(tuple(ecc))
