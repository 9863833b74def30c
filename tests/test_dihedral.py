"""D(G) multiplication, commutation criteria, center, and the omega partition."""

import pytest

from commgraph import (
    DihedralElement,
    ElementaryAbelian2Error,
    all_abelian_specs,
    all_elements,
    block_label,
    center,
    commutes,
    commutes_by_multiplication,
    d_identity,
    d_mul,
    format_element,
    omega_partition,
    parse_group_spec,
    part_kind,
)

from helpers import FAMILY14


def test_d_mul_sign_action():
    g = parse_group_spec("Z6")
    a = DihedralElement((1,), 1)
    t = DihedralElement((0,), -1)
    # a then reflect vs reflect then a: the reflection inverts what follows
    assert d_mul(g, a, t) == DihedralElement((1,), -1)
    assert d_mul(g, t, a) == DihedralElement((5,), -1)


def test_identity_and_reflection_orders():
    g = parse_group_spec("Z4xZ3")
    e = d_identity(g)
    for x in all_elements(g):
        assert d_mul(g, e, x) == x
        assert d_mul(g, x, e) == x
        if x.s == -1:
            assert d_mul(g, x, x) == e


def test_d_mul_rejects_bad_elements():
    g = parse_group_spec("Z6")
    with pytest.raises(ValueError):
        d_mul(g, DihedralElement((6,), 1), d_identity(g))
    with pytest.raises(ValueError):
        d_mul(g, DihedralElement((0,), 0), d_identity(g))


def test_all_elements_order_and_count():
    g = parse_group_spec("Z3")
    assert all_elements(g) == (
        DihedralElement((0,), 1),
        DihedralElement((1,), 1),
        DihedralElement((2,), 1),
        DihedralElement((0,), -1),
        DihedralElement((1,), -1),
        DihedralElement((2,), -1),
    )
    assert len(all_elements(parse_group_spec("Z4xZ3"))) == 24


def test_commutes_criteria_examples():
    g = parse_group_spec("Z6")
    # two rotations always commute
    assert commutes(g, DihedralElement((1,), 1), DihedralElement((2,), 1))
    # reflections commute iff their bases share a square
    assert commutes(g, DihedralElement((1,), -1), DihedralElement((4,), -1))
    assert not commutes(g, DihedralElement((1,), -1), DihedralElement((2,), -1))
    # mixed pair commutes iff the rotation is an involution
    assert commutes(g, DihedralElement((3,), 1), DihedralElement((0,), -1))
    assert not commutes(g, DihedralElement((1,), 1), DihedralElement((0,), -1))


def test_commutes_matches_multiplication_exhaustively():
    for spec in all_abelian_specs(12):
        g = parse_group_spec(spec)
        elems = all_elements(g)
        for x in elems:
            for y in elems:
                assert commutes(g, x, y) == commutes_by_multiplication(g, x, y), (
                    spec,
                    x,
                    y,
                )


@pytest.mark.parametrize(
    "spec",
    ["Z3", "Z4", "Z6", "Z9", "Z12", "Z2xZ4", "Z4xZ3", "Z2xZ2xZ3", "Z2xZ2", "Z3xZ3"],
)
def test_center_equals_commutes_with_all_scan(spec):
    g = parse_group_spec(spec)
    elems = all_elements(g)
    scan = [
        x for x in elems if all(commutes_by_multiplication(g, x, y) for y in elems)
    ]
    assert list(center(g)) == scan
    if not g.is_elementary_abelian_2():
        assert len(scan) == 2**g.r


def test_center_sizes():
    assert len(center(parse_group_spec("Z3"))) == 1
    assert len(center(parse_group_spec("Z6"))) == 2
    assert len(center(parse_group_spec("Z2xZ4"))) == 4
    # elementary abelian 2-group: D(G) is abelian, everything is central
    assert len(center(parse_group_spec("Z2xZ2"))) == 8


def test_omega_partition_z6():
    p = omega_partition(parse_group_spec("Z6"))
    assert [x.g for x in p.omega1] == [(0,), (3,)]
    assert [x.g for x in p.omega2] == [(1,), (2,), (4,), (5,)]
    assert [[x.g for x in b] for b in p.blocks] == [[(0,), (3,)], [(1,), (4,)], [(2,), (5,)]]
    assert all(x.s == -1 for b in p.blocks for x in b)


def test_omega_partition_rejects_abelian_dg():
    with pytest.raises(ElementaryAbelian2Error):
        omega_partition(parse_group_spec("Z2xZ2"))


@pytest.mark.parametrize("spec", FAMILY14)
def test_omega_partition_part_sizes(spec):
    g = parse_group_spec(spec)
    p = omega_partition(g)
    c = 2 ** g.r
    assert len(p.omega1) == c
    assert len(p.omega2) == g.n - c
    assert len(p.blocks) == g.n // c
    assert all(len(b) == c for b in p.blocks)
    verts = p.vertices()
    assert len(verts) == 2 * g.n
    assert len(set(verts)) == 2 * g.n
    labels = p.part_labels()
    assert len(labels) == 2 * g.n
    assert labels[0] == "omega1"
    assert labels[-1] == block_label(g.n // c)


@pytest.mark.parametrize("spec", ["Z4", "Z6", "Z2xZ4", "Z3xZ3"])
def test_blocks_collect_equal_squares_in_order(spec):
    g = parse_group_spec(spec)
    p = omega_partition(g)
    squares = []
    for block in p.blocks:
        sq = {g.square(x.g) for x in block}
        assert len(sq) == 1
        squares.append(sq.pop())
        assert list(block) == sorted(block)
    assert squares == sorted(squares)


def test_blocks_are_exactly_the_commuting_classes_of_reflections():
    g = parse_group_spec("Z2xZ4")
    p = omega_partition(g)
    reflections = [x for b in p.blocks for x in b]
    for block in p.blocks:
        x = block[0]
        mates = [y for y in reflections if commutes(g, x, y)]
        assert sorted(mates) == sorted(block)


def test_singleton_blocks_for_odd_order():
    p = omega_partition(parse_group_spec("Z3"))
    assert [len(b) for b in p.blocks] == [1, 1, 1]
    # block order follows square values: 0, then 2 + 2 = 1, then 1 + 1 = 2
    assert [b[0].g for b in p.blocks] == [(0,), (2,), (1,)]


def test_part_kind_and_labels():
    assert part_kind("omega1") == "omega1"
    assert part_kind("omega2") == "omega2"
    assert part_kind("omega3") == "omega3"
    assert part_kind(block_label(7)) == "omega3"
    with pytest.raises(ValueError):
        part_kind("nonsense")


def test_format_element():
    assert format_element(DihedralElement((3, 1), -1)) == "(3,1;-)"
    assert format_element(DihedralElement((0,), 1)) == "(0;+)"
