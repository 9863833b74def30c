"""Generalized dihedral group D(G) = G semidirect C2, with C2 acting by inversion.

Elements are (g, s) with g in the abelian base group and s in {+1, -1}.
Multiplication, commutation, the center, and the three-part vertex partition
(center / remaining sign-+1 elements / sign--1 blocks of equal square) live here.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .abelian import AbelianGroup


class ElementaryAbelian2Error(ValueError):
    """The omega partition and the closed-form invariants need a non-abelian D(G)."""


class DihedralElement(NamedTuple):
    g: tuple[int, ...]
    s: int


OMEGA1 = "omega1"
OMEGA2 = "omega2"


def block_label(i: int) -> str:
    """Label of the i-th sign--1 block, 1-based."""
    return f"block{i}"


def part_kind(label: str) -> str:
    """Collapse a vertex label to one of omega1 / omega2 / omega3."""
    if label in (OMEGA1, OMEGA2, "omega3"):
        return label
    if label.startswith("block"):
        return "omega3"
    raise ValueError(f"unknown part label {label!r}")


def d_identity(group: AbelianGroup) -> DihedralElement:
    return DihedralElement(group.identity, 1)


def all_elements(group: AbelianGroup) -> tuple[DihedralElement, ...]:
    """The 2n elements: sign +1 in lexicographic order, then sign -1."""
    gs = list(group.elements())
    return tuple(
        [DihedralElement(g, 1) for g in gs] + [DihedralElement(g, -1) for g in gs]
    )


def _check(group: AbelianGroup, x: DihedralElement) -> None:
    group.check_element(x.g)
    if x.s not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {x.s!r}")


def d_mul(group: AbelianGroup, x: DihedralElement, y: DihedralElement) -> DihedralElement:
    """(g1, s1) * (g2, s2) = (g1 + s1*g2, s1*s2)."""
    _check(group, x)
    _check(group, y)
    g = group.add(x.g, y.g) if x.s == 1 else group.sub(x.g, y.g)
    return DihedralElement(g, x.s * y.s)


CENTRAL = "central"


def commutation_key(group: AbelianGroup, x: DihedralElement) -> object:
    """Class key of x under commutation; the one definition of the criterion.

    A central rotation (sign +1, base squaring to the identity) gets CENTRAL,
    every other sign-+1 element "+", and a reflection (g, -1) the pair
    ("-", g + g). Two elements commute iff one of them is CENTRAL or their
    keys are equal: rotations commute with each other, reflections commute
    iff their bases share a square, and a rotation commutes with a reflection
    iff the rotation is central. x is not validated; commutes() does that.
    """
    if x.s == 1:
        for c, m in zip(x.g, group.moduli):
            if 2 * c % m:
                return "+"
        return CENTRAL
    return ("-", group.square_unchecked(x.g))


def commutes(group: AbelianGroup, x: DihedralElement, y: DihedralElement) -> bool:
    """Commutation test via commutation_key, no multiplication performed."""
    _check(group, x)
    _check(group, y)
    kx, ky = commutation_key(group, x), commutation_key(group, y)
    return kx == CENTRAL or ky == CENTRAL or kx == ky


def commutes_by_multiplication(
    group: AbelianGroup, x: DihedralElement, y: DihedralElement
) -> bool:
    """Definitional check d_mul(x, y) == d_mul(y, x); cross-validates commutes()."""
    return d_mul(group, x, y) == d_mul(group, y, x)


def center(group: AbelianGroup) -> tuple[DihedralElement, ...]:
    """Central elements of D(G), in canonical order.

    For non-abelian D(G) this is omega_partition's omega1: the sign-+1
    involutions, 2**r of them. When G is an elementary abelian 2-group, D(G)
    is abelian and the center is all 2n elements.
    """
    if group.is_elementary_abelian_2():
        return all_elements(group)
    return omega_partition(group).omega1


class OmegaPartition(NamedTuple):
    """Vertex partition of D(G): center, other sign-+1 elements, sign--1 blocks.

    Blocks are the classes of sign--1 elements whose bases share a square,
    ordered by lexicographically smallest square value; members are in
    lexicographic order. vertices() fixes the canonical vertex order used by
    every graph built downstream: omega1, omega2, then the blocks in order.
    """

    omega1: tuple[DihedralElement, ...]
    omega2: tuple[DihedralElement, ...]
    blocks: tuple[tuple[DihedralElement, ...], ...]

    def vertices(self) -> tuple[DihedralElement, ...]:
        return self.omega1 + self.omega2 + tuple(chain.from_iterable(self.blocks))

    def part_labels(self) -> tuple[str, ...]:
        labels = [OMEGA1] * len(self.omega1) + [OMEGA2] * len(self.omega2)
        for i, block in enumerate(self.blocks, start=1):
            labels.extend([block_label(i)] * len(block))
        return tuple(labels)


def omega_partition(group: AbelianGroup) -> OmegaPartition:
    """The commutation classes of D(G), by commutation_key; rejects abelian D(G).

    CENTRAL is omega1, "+" is omega2, and each reflection key is one block.
    """
    if group.is_elementary_abelian_2():
        spec = "x".join(f"Z{m}" for m in group.moduli)
        raise ElementaryAbelian2Error(
            f"D({spec}) is abelian (G elementary abelian 2-group); no omega partition"
        )
    classes: dict[object, list[DihedralElement]] = {}
    for x in all_elements(group):
        classes.setdefault(commutation_key(group, x), []).append(x)
    omega1 = tuple(classes.pop(CENTRAL))
    omega2 = tuple(classes.pop("+"))
    # The reflection keys left are ("-", square), so sorting orders the blocks by square.
    blocks = tuple(tuple(classes[key]) for key in sorted(classes))
    return OmegaPartition(omega1, omega2, blocks)


def format_element(x: DihedralElement) -> str:
    """Text form '(g1,g2,...;s)', e.g. '(3,1;-)'."""
    return "({};{})".format(",".join(str(c) for c in x.g), "+" if x.s == 1 else "-")
