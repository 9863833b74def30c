"""Metric dimension and the resolving polynomial: twin machinery, subset search, closed forms."""

from __future__ import annotations

from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Rounded,
    localcontext,
)
from functools import lru_cache
from itertools import accumulate, combinations, product
from math import prod
from typing import NamedTuple

from .graph import CapExceededError, CommutingGraph, bits, check_parameters, levels, twin_classes

# Ceiling on metric_dimension_oracle's vertex cap, whatever cap the caller passes:
# its subset search may test every vertex subset of a twin-free graph.
MAX_RESOLVING_VERTICES = 24

# Budget of resolving_polynomial_oracle: the most twin-type count vectors it sweeps.
MAX_RESOLVING_VECTORS = 1 << 16

# Decimal arithmetic on resolving-polynomial coefficients, the formula's and the oracle's:
# integers of any length stay exact, and an operation that would round or fail raises instead.
EXACT = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded, InvalidOperation]
)


def _levels(graph: CommutingGraph, src: int) -> list[int]:
    """BFS levels from src as masks, level d the vertices at distance d; raises if disconnected."""
    full = (1 << graph.n_vertices) - 1
    out = levels(graph.rows, 1 << src, full)
    unreached = bits(full & ~sum(out))
    if unreached:
        raise ValueError(f"graph is disconnected: vertex {unreached[0]} unreached from {src}")
    return out


def distance_matrix(graph: CommutingGraph) -> tuple[tuple[int, ...], ...]:
    """All-pairs shortest-path distances by BFS; raises on disconnected graphs."""
    out = []
    for src in range(graph.n_vertices):
        dist = [0] * graph.n_vertices
        for d, level in enumerate(_levels(graph, src)):
            for v in bits(level):
                dist[v] = d
        out.append(tuple(dist))
    return tuple(out)


_distance_matrix_cached = lru_cache(maxsize=128)(distance_matrix)


def twin_lower_bound(graph: CommutingGraph) -> int:
    """Sum of (size - 1) over twin classes: no smaller set can resolve the graph."""
    return sum(len(c) - 1 for c in twin_classes(graph))


def is_resolving(graph: CommutingGraph, subset) -> bool:
    """True iff distance vectors to the subset (in canonical landmark order) are all distinct."""
    nv = graph.n_vertices
    landmarks = sorted(set(subset))
    for s in landmarks:
        if not 0 <= s < nv:
            raise IndexError(f"landmark {s} out of range 0..{nv - 1}")
    dm = _distance_matrix_cached(graph)
    vectors = {tuple(dm[v][s] for s in landmarks) for v in range(nv)}
    return len(vectors) == nv


def _separating(levels_x: list[int], levels_y: list[int], nv: int) -> int:
    """Mask of the vertices at different distances from x and y, given their BFS levels."""
    # Levels partition the vertices, so the d-th levels share only those at distance d from both.
    return ((1 << nv) - 1) ^ sum(a & b for a, b in zip(levels_x, levels_y))


def _pair_masks(graph: CommutingGraph) -> list[int]:
    """For each vertex pair, the bitmask of landmarks separating it; most-constrained first."""
    by_vertex = [_levels(graph, v) for v in range(graph.n_vertices)]
    masks = [_separating(x, y, graph.n_vertices) for x, y in combinations(by_vertex, 2)]
    return sorted(masks, key=int.bit_count)


def _subset_masks(nv: int, size: int):
    """All vertex-subset bitmasks of the given size; enumerates complements when smaller."""
    full = (1 << nv) - 1
    if size > nv - size:
        for combo in combinations(range(nv), nv - size):
            m = 0
            for v in combo:
                m |= 1 << v
            yield full ^ m
    else:
        for combo in combinations(range(nv), size):
            m = 0
            for v in combo:
                m |= 1 << v
            yield m


def exists_resolving_set(graph: CommutingGraph, size: int) -> bool:
    """Exhaustively test whether any subset of the given size resolves the graph."""
    if size < 0:
        raise ValueError("size must be non-negative")
    pairs = _pair_masks(graph)
    if size >= graph.n_vertices:
        return True
    for mask in _subset_masks(graph.n_vertices, size):
        if all(mask & pm for pm in pairs):
            return True
    return False


def metric_dimension_formula(n: int, r: int) -> int:
    """Closed-form metric dimension: 2n - n/2**r - 2 when r >= 1, else 2n - 3."""
    check_parameters(n, r)
    if r == 0:
        return 2 * n - 3
    return 2 * n - n // (1 << r) - 2


def metric_dimension_oracle(graph: CommutingGraph, max_vertices: int = 16) -> int:
    """Smallest resolving-set size, searching upward from the twin-class lower bound."""
    nv = graph.n_vertices
    max_vertices = min(max_vertices, MAX_RESOLVING_VERTICES)
    if nv > max_vertices:
        raise CapExceededError(f"{nv} vertices exceeds resolving cap {max_vertices}")
    if nv <= 1:
        return 0
    start = max(1, twin_lower_bound(graph))
    for size in range(start, nv):
        if exists_resolving_set(graph, size):
            return size
    return nv


class ResolvingPolynomial(NamedTuple):
    """Coefficients s_i = number of resolving i-subsets, for i from beta to n_vertices.

    Both the formula and the oracle give exact Decimal integers, which print in time linear
    in their length (str of an int takes quadratic time). Their arithmetic belongs in the
    EXACT context: outside it, Decimal arithmetic rounds to that context's precision (28
    digits by default).
    """

    beta: int
    n_vertices: int
    coeffs: dict[int, Decimal]

    def coefficient_list(self) -> list[Decimal]:
        return [self.coeffs[i] for i in range(self.beta, self.n_vertices + 1)]

    def total(self) -> Decimal:
        """Number of resolving subsets of any size."""
        with localcontext(EXACT):
            return sum(self.coeffs.values())


def _coefficients(n: int, c: int, m: int) -> dict[int, Decimal]:
    """Coefficients of x^beta (x + c)^m (x + n - c) at sizes 2n - k, k = 0 .. m + 1.

    The coefficient at 2n - k is t_k + (n - c) t_(k-1) with t_k = c^k C(m, k),
    carried by the exact ratio t_(k+1) = t_k c (m - k) / (k + 1), which reaches
    0 at k = m + 1: O(m) big-integer steps and no binomials. The steps run in
    Decimal, whose base-10 limbs make each step and each later str() linear in
    the number's length.
    """
    coeffs = {}
    with localcontext(EXACT):
        prev, t = Decimal(0), Decimal(1)
        for k in range(m + 2):
            coeffs[2 * n - k] = t + (n - c) * prev
            prev, t = t, t * (c * (m - k)) // (k + 1)
    return coeffs


def resolving_polynomial_formula(n: int, r: int) -> ResolvingPolynomial:
    """Closed-form resolving polynomial of the commuting graph on 2n vertices.

    r = 0: coefficients n(n-1), n^2+n-1, 2n, 1 at sizes 2n-3 .. 2n.
    r >= 1: R(x) = x^beta (x + 2^r)^m (x + n - 2^r) with m = n/2^r + 1, whose
    coefficients cover the whole range beta .. 2n; the displayed values at
    beta, 2n-1 and 2n are re-derived as a self-check that raises
    ArithmeticError on a mismatch (kept under python -O, unlike an assert).
    Every coefficient is an exact Decimal integer (see ResolvingPolynomial).
    """
    check_parameters(n, r)
    nv = 2 * n
    if r == 0:
        beta = 2 * n - 3
        counts = (n * (n - 1), n * n + n - 1, 2 * n, 1)
        return ResolvingPolynomial(beta, nv, {beta + i: Decimal(s) for i, s in enumerate(counts)})
    c = 1 << r
    m = n // c + 1
    beta = 2 * n - m - 1
    coeffs = _coefficients(n, c, m)
    if coeffs[beta] != (n - c) * c**m:
        raise ArithmeticError("endpoint mismatch at beta")
    if coeffs[nv - 1] != 2 * n:
        raise ArithmeticError("coefficient at 2n-1 must be 2n")
    if coeffs[nv] != 1:
        raise ArithmeticError("leading coefficient must be 1")
    return ResolvingPolynomial(beta, nv, coeffs)


def resolving_polynomial_oracle(graph: CommutingGraph) -> ResolvingPolynomial:
    """Count resolving subsets of every size by sweeping count vectors over twin types.

    A resolving set omits at most one vertex per twin class, as two omitted twins
    are at equal distance from every other vertex. A type is the twin classes of
    one size and kind (clique or not) that are twins in the twin quotient, so any
    permutation of a type's classes, or inside a class, is an automorphism: only
    the count k_t of omitted classes of each type t matters, and the vector stands
    for C(n_t, k_t) s_t^k_t sets per type. It omits the representatives of the
    first k_t classes and resolves iff each omitted pair has a kept vertex in its
    separating mask; by symmetry the first classes of t and u decide for types t
    and u. A pair with a kept end passes, as each end separates the pair, so every
    vector tests the same masks. A pair inside one type passes on a connected graph:
    singletons never share a type (they would be one class), and two classes of one
    type are non-adjacent cliques or adjacent independent sets, so a kept classmate
    of one omitted vertex is at distance 1 from it and 2 from the other, or 2 and 1.
    There is no vertex cap: past MAX_RESOLVING_VECTORS it refuses before any BFS.
    """
    nv = graph.n_vertices
    rows = graph.rows
    classes = {c[0]: c for c in twin_classes(graph)}
    by_key: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}
    # The quotient keeps one member per class, as each round of cotree.build_cotree does.
    for group in twin_classes(graph, list(classes)):
        for c in map(classes.__getitem__, group):
            by_key.setdefault((group[0], len(c), rows[c[0]] >> c[-1] & 1), []).append(c)
    types = list(by_key.values())
    vectors = prod(len(t) + 1 for t in types)
    if vectors > MAX_RESOLVING_VECTORS:
        raise CapExceededError(f"{vectors} count vectors exceeds budget {MAX_RESOLVING_VECTORS}")
    # BFS from vertex 0 first, so a disconnected graph names the vertex it misses from 0.
    reps_levels = [_levels(graph, t[0][0]) for t in types]
    separating = [_separating(x, y, nv) for x, y in combinations(reps_levels, 2)]
    separating.sort(key=int.bit_count)
    # Per type and k: the representatives of its first k classes, and the sets k stands for.
    omits = [[0, *accumulate(1 << c[0] for c in t)] for t in types]
    ways = []
    with localcontext(EXACT):
        for t in types:
            # C(n_t, k) s_t^k as a running product: one small multiply and divide per k.
            row = [Decimal(1)]
            for k in range(len(t)):
                row.append(row[k] * (len(t) - k) * len(t[0]) // (k + 1))
            ways.append(row)
        counts = [Decimal(0)] * (nv + 1)
        for vector in product(*(range(len(t) + 1) for t in types)):
            omitted = sum(masks[k] for masks, k in zip(omits, vector))
            if all(sep & ~omitted for sep in separating):
                counts[nv - sum(vector)] += prod(w[k] for w, k in zip(ways, vector))
    beta = next(i for i, cnt in enumerate(counts) if cnt)
    return ResolvingPolynomial(beta, nv, {i: counts[i] for i in range(beta, nv + 1)})
