"""Metric dimension and the resolving polynomial: twin machinery, subset search, closed forms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .graph import CapExceededError, CommutingGraph, bits, check_parameters, twin_classes

# Ceiling on both resolving oracles' vertex caps, whatever cap the caller passes:
# the polynomial sweep allocates one byte per twin-class pattern, which on a
# twin-free graph is one per vertex subset (2**24 bytes = 16 MiB).
MAX_RESOLVING_VERTICES = 24


def distance_matrix(graph: CommutingGraph) -> tuple[tuple[int, ...], ...]:
    """All-pairs shortest-path distances by BFS; raises on disconnected graphs."""
    nv = graph.n_vertices
    rows = graph.rows
    out = []
    for src in range(nv):
        dist = [-1] * nv
        seen = frontier = 1 << src
        d = 0
        while frontier:
            nxt = 0
            for v in bits(frontier):
                dist[v] = d
                nxt |= rows[v]
            frontier = nxt & ~seen
            seen |= frontier
            d += 1
        if -1 in dist:
            raise ValueError(f"graph is disconnected: vertex {dist.index(-1)} unreached from {src}")
        out.append(tuple(dist))
    return tuple(out)


_distance_matrix_cached = lru_cache(maxsize=128)(distance_matrix)


@dataclass(frozen=True)
class TwinSetDecomposition:
    """Maximal twin-sets of size >= 2, ordered by smallest member, plus leftover singletons."""

    twin_sets: tuple[tuple[int, ...], ...]
    singletons: tuple[int, ...]


def twin_sets(graph: CommutingGraph) -> TwinSetDecomposition:
    """Split graph.twin_classes into the twin-sets of two or more and the singletons."""
    classes = twin_classes(graph)
    return TwinSetDecomposition(
        tuple(c for c in classes if len(c) >= 2),
        tuple(c[0] for c in classes if len(c) == 1),
    )


def twin_lower_bound(graph: CommutingGraph) -> int:
    """Sum of (size - 1) over twin-sets: no smaller set can resolve the graph."""
    return sum(len(t) - 1 for t in twin_sets(graph).twin_sets)


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


def _pair_masks(graph: CommutingGraph) -> list[int]:
    """For each vertex pair, the bitmask of landmarks separating it; most-constrained first."""
    nv = graph.n_vertices
    dm = _distance_matrix_cached(graph)
    masks = []
    for u in range(nv):
        du = dm[u]
        for v in range(u + 1, nv):
            dv = dm[v]
            m = 0
            for s in range(nv):
                if du[s] != dv[s]:
                    m |= 1 << s
            masks.append(m)
    masks.sort(key=lambda m: m.bit_count())
    return masks


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
    """Smallest resolving-set size, searching upward from the twin-set lower bound."""
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


@dataclass(frozen=True)
class ResolvingPolynomial:
    """Coefficients s_i = number of resolving i-subsets, for i from beta to n_vertices."""

    beta: int
    n_vertices: int
    coeffs: dict[int, int]

    def coefficient_list(self) -> list[int]:
        return [self.coeffs[i] for i in range(self.beta, self.n_vertices + 1)]

    def total(self) -> int:
        """Number of resolving subsets of any size."""
        return sum(self.coeffs.values())


def _coefficients(n: int, c: int, m: int) -> dict[int, int]:
    """Coefficients of x^beta (x + c)^m (x + n - c) at sizes 2n - k, k = 0 .. m + 1.

    The coefficient at 2n - k is t_k + (n - c) t_(k-1) with t_k = c^k C(m, k),
    carried by the exact ratio t_(k+1) = t_k c (m - k) / (k + 1), which reaches
    0 at k = m + 1: O(m) big-integer steps and no binomials.
    """
    coeffs = {}
    prev, t = 0, 1
    for k in range(m + 2):
        coeffs[2 * n - k] = t + (n - c) * prev
        prev, t = t, t * c * (m - k) // (k + 1)
    return coeffs


def resolving_polynomial_formula(n: int, r: int) -> ResolvingPolynomial:
    """Closed-form resolving polynomial of the commuting graph on 2n vertices.

    r = 0: coefficients n(n-1), n^2+n-1, 2n, 1 at sizes 2n-3 .. 2n.
    r >= 1: R(x) = x^beta (x + 2^r)^m (x + n - 2^r) with m = n/2^r + 1, whose
    coefficients cover the whole range beta .. 2n; the displayed values at
    beta, 2n-1 and 2n are re-derived as a self-check that raises
    ArithmeticError on a mismatch (kept under python -O, unlike an assert).
    """
    check_parameters(n, r)
    nv = 2 * n
    if r == 0:
        beta = 2 * n - 3
        coeffs = {
            beta: n * (n - 1),
            beta + 1: n * n + n - 1,
            beta + 2: 2 * n,
            beta + 3: 1,
        }
        return ResolvingPolynomial(beta, nv, coeffs)
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


def resolving_polynomial_oracle(
    graph: CommutingGraph, max_vertices: int = 16
) -> ResolvingPolynomial:
    """Count resolving subsets of every size by sweeping the twin-class patterns.

    Two omitted twins are at equal distance from every other vertex, so a
    resolving set omits at most one vertex of each twin class, and since any
    permutation inside a class is an automorphism, which one does not matter.
    Pattern bit i set keeps class i whole; clear omits its smallest member and
    stands for the |C_i| sets that omit one member. Every non-representative
    vertex is in the set, so only separating-pair masks made of representatives
    constrain a pattern. Patterns are swept in increasing order: one whose
    pattern without its lowest class resolves is resolving (it keeps a superset),
    every other one is tested against the pair masks with early exit. On a
    twin-free graph this is the sweep over all vertex subsets.
    """
    nv = graph.n_vertices
    max_vertices = min(max_vertices, MAX_RESOLVING_VERTICES)
    if nv > max_vertices:
        raise CapExceededError(f"{nv} vertices exceeds resolving cap {max_vertices}")
    # Singletons take the low bits, so a pattern's weight depends on its high bits only.
    classes = sorted(twin_classes(graph), key=len)
    k = len(classes)
    singles = sum(1 for c in classes if len(c) == 1)
    bit_of = {c[0]: 1 << i for i, c in enumerate(classes)}
    non_reps = sum(1 << v for c in classes for v in c[1:])
    pairs = sorted(
        {sum(bit_of[v] for v in bits(pm)) for pm in _pair_masks(graph) if not pm & non_reps},
        key=lambda m: (m.bit_count(), m),
    )
    # weight[h]: product of the sizes of the twin classes omitted by high bits h.
    weight = [1]
    for c in classes[singles:]:
        weight = [w * len(c) for w in weight] + weight
    res = bytearray(1 << k)
    counts = [0] * (nv + 1)
    # One block of patterns per high part: the tally is weighted once per block.
    for high, w in enumerate(weight):
        tally = [0] * (k + 1)
        for p in range(high << singles, (high + 1) << singles):
            # Exact with one lookup: supersets of resolving sets resolve, all else gets
            # the pair check (p = 0 looks itself up, still 0, and gets the check).
            hit = res[p & (p - 1)]
            if not hit:
                hit = 1
                for pm in pairs:
                    if not p & pm:
                        hit = 0
                        break
            if hit:
                res[p] = 1
                tally[p.bit_count()] += 1
        for size, t in enumerate(tally):
            counts[nv - k + size] += t * w
    beta = next(i for i, cnt in enumerate(counts) if cnt)
    return ResolvingPolynomial(beta, nv, {i: counts[i] for i in range(beta, nv + 1)})
