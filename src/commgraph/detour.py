"""Detour eccentricities: longest-simple-path search and the closed branch formulas."""

from __future__ import annotations

from dataclasses import dataclass

from .dihedral import part_kind
from .graph import CapExceededError, CommutingGraph, bits, check_parameters, twin_classes


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
    """Unpruned exhaustive DFS over all simple paths; cross-checks the oracle."""
    nv = graph.n_vertices
    if nv > max_vertices:
        raise CapExceededError(f"{nv} vertices exceeds reference cap {max_vertices}")
    if not 0 <= start < nv:
        raise IndexError(f"vertex {start} out of range 0..{nv - 1}")
    rows = graph.rows
    best = 0

    def dfs(v: int, visited: int, length: int) -> None:
        nonlocal best
        if length > best:
            best = length
        for w in bits(rows[v] & ~visited):
            dfs(w, visited | (1 << w), length + 1)

    dfs(start, 1 << start, 0)
    return best


def detour_profile(graph: CommutingGraph, max_vertices: int = 20) -> DetourProfile:
    """Oracle eccentricity of every vertex, searched once per twin class.

    Swapping two twins is an automorphism, so twins have equal eccentricities:
    the oracle runs from each class's smallest member and the value is copied
    to the other members.
    """
    ecc = [0] * graph.n_vertices
    for members in twin_classes(graph):
        value = detour_ecc_oracle(graph, members[0], max_vertices)
        for v in members:
            ecc[v] = value
    return DetourProfile(tuple(ecc))
