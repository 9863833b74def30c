"""Finite abelian groups presented as direct products of cyclic groups."""

from __future__ import annotations

import math
import re
from itertools import product
from typing import Iterator, NamedTuple

# Downstream oracles are exponential in the group order; refuse absurd inputs early.
MAX_ORDER = 1 << 20

_FACTOR = re.compile(r"[Zz]([0-9]+)\Z")


class GroupSpecError(ValueError):
    """Malformed or out-of-range group specification."""


class _AbelianGroupFields(NamedTuple):
    moduli: tuple[int, ...]


class AbelianGroup(_AbelianGroupFields):
    """Z_{m1} x ... x Z_{mk} with elements stored as residue tuples.

    Factor order is preserved exactly as given (no reordering, no CRT
    normalization), and elements enumerate in lexicographic order over
    residue vectors; every canonical ordering downstream hangs off that.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> AbelianGroup:
        self = super().__new__(cls, *args, **kwargs)
        if not self.moduli:
            raise GroupSpecError("group needs at least one factor of modulus >= 2")
        bad = [m for m in self.moduli if m < 2]
        if bad:
            raise GroupSpecError(f"moduli must be >= 2, got {bad}")
        if math.prod(self.moduli) > MAX_ORDER:
            raise GroupSpecError(
                f"group order {math.prod(self.moduli)} exceeds cap {MAX_ORDER}"
            )
        return self

    @classmethod
    def _make(cls, iterable) -> AbelianGroup:
        # _replace builds through _make, so it validates too.
        return cls(*iterable)

    @property
    def n(self) -> int:
        """Group order."""
        return math.prod(self.moduli)

    @property
    def r(self) -> int:
        """log2 of the involution count; each even factor contributes one doubling."""
        return sum(1 for m in self.moduli if m % 2 == 0)

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def check_element(self, a: tuple[int, ...]) -> None:
        if len(a) != len(self.moduli):
            raise ValueError(
                f"element {a!r} has {len(a)} coordinates, group has {len(self.moduli)}"
            )
        for x, m in zip(a, self.moduli):
            if not 0 <= x < m:
                raise ValueError(f"coordinate {x} of {a!r} is not reduced mod {m}")

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Componentwise sum mod the respective moduli."""
        self.check_element(a)
        self.check_element(b)
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def sub(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Componentwise difference mod the respective moduli."""
        self.check_element(a)
        self.check_element(b)
        return tuple((x - y) % m for x, y, m in zip(a, b, self.moduli))

    def square(self, a: tuple[int, ...]) -> tuple[int, ...]:
        """a + a, the group "square" in additive notation."""
        self.check_element(a)
        return self.square_unchecked(a)

    def square_unchecked(self, a: tuple[int, ...]) -> tuple[int, ...]:
        """square() for an element already known to be reduced, e.g. one from elements()."""
        return tuple([2 * x % m for x, m in zip(a, self.moduli)])

    def elements(self) -> Iterator[tuple[int, ...]]:
        """All n elements in lexicographic order."""
        return product(*(range(m) for m in self.moduli))

    def is_elementary_abelian_2(self) -> bool:
        """True iff every factor is Z2, i.e. 2**r = n."""
        return all(m == 2 for m in self.moduli)

    def elementary_divisors(self) -> tuple[int, ...]:
        """Sorted prime-power factors of the moduli; equal exactly for isomorphic groups.

        Z6, Z2xZ3 and Z3xZ2 all give (2, 3); Z2xZ8 gives (2, 8) and Z4xZ4 (4, 4).
        """
        powers = []
        for m in self.moduli:
            p = 2
            while m > 1:
                if p * p > m:
                    p = m  # what is left is prime
                q = 1
                while m % p == 0:
                    m //= p
                    q *= p
                if q > 1:
                    powers.append(q)
                p += 1
        return tuple(sorted(powers))


def parse_group_spec(spec: str) -> AbelianGroup:
    """Parse 'Z4xZ2xZ3'-style text (case-insensitive) into an AbelianGroup.

    Z1 factors are stripped; the remaining factor order is preserved, and
    leading zeros of a factor are ignored. Raises GroupSpecError for malformed
    tokens (digits are ASCII only), Z0 factors, specs that are trivial after stripping,
    and orders above MAX_ORDER, including a factor with more digits than MAX_ORDER.
    """
    text = spec.strip()
    if not text:
        raise GroupSpecError("empty group spec")
    moduli = []
    total = 1
    for token in re.split("[xX]", text):
        m = _FACTOR.match(token)
        if not m:
            raise GroupSpecError(f"malformed factor {token!r} in spec {spec!r}")
        digits = m.group(1).lstrip("0") or "0"
        # Bound the digit count before int(), which refuses more than 4300 digits.
        if len(digits) > len(str(MAX_ORDER)):
            raise GroupSpecError(
                f"a factor of {len(digits)} digits exceeds the order cap {MAX_ORDER}"
            )
        value = int(digits)
        if value < 1:
            raise GroupSpecError(f"factor {token!r} in spec {spec!r} must be >= 1")
        total *= value
        if total > MAX_ORDER:
            raise GroupSpecError(f"group order of {spec!r} exceeds cap {MAX_ORDER}")
        if value > 1:
            moduli.append(value)
    if not moduli:
        raise GroupSpecError(f"spec {spec!r} is trivial after stripping Z1 factors")
    return AbelianGroup(tuple(moduli))
