"""Group spec parsing and abelian group arithmetic."""

import random

import pytest

from commgraph import GroupSpecError, MAX_ORDER, omega_partition, parse_group_spec


def test_parse_single_factor():
    g = parse_group_spec("Z6")
    assert g.moduli == (6,)
    assert g.n == 6
    assert g.r == 1


def test_parse_direct_product_preserves_factor_order():
    assert parse_group_spec("Z4xZ3").moduli == (4, 3)
    assert parse_group_spec("Z3xZ4").moduli == (3, 4)
    assert parse_group_spec("Z2xZ2xZ3").moduli == (2, 2, 3)


def test_parse_is_case_insensitive():
    assert parse_group_spec("z2Xz4").moduli == (2, 4)
    assert parse_group_spec(" Z6 ").moduli == (6,)


def test_parse_strips_trivial_factors():
    assert parse_group_spec("Z1xZ6").moduli == (6,)
    assert parse_group_spec("Z6xZ1xZ1").moduli == (6,)


@pytest.mark.parametrize(
    "bad",
    ["", "  ", "Z", "Zx", "Q5", "Z-3", "Z4x", "xZ4", "Z 4", "Z0", "Z1", "Z1xZ1", "Z4*Z3"]
    + ["Z\u0661\u0662"],  # Z12 in Arabic-Indic digits: digits are ASCII only
)
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(GroupSpecError):
        parse_group_spec(bad)


def test_parse_enforces_order_cap_without_enumerating():
    assert parse_group_spec(f"Z{MAX_ORDER}").n == MAX_ORDER
    with pytest.raises(GroupSpecError):
        parse_group_spec(f"Z{MAX_ORDER + 1}")
    # cap applies to the product, not the individual factors
    with pytest.raises(GroupSpecError):
        parse_group_spec("Z1024xZ1024xZ2")
    # a factor past int()'s 4300-digit limit is refused by its digit count
    with pytest.raises(GroupSpecError):
        parse_group_spec("Z" + "9" * 5000)
    # leading zeros do not count towards that limit
    assert parse_group_spec("Z" + "0" * 5000 + "6").moduli == (6,)


def test_elementary_divisors_identify_the_isomorphism_class():
    for spec in ("Z6", "Z2xZ3", "Z3xZ2"):
        assert parse_group_spec(spec).elementary_divisors() == (2, 3)
    assert parse_group_spec("Z2xZ8").elementary_divisors() == (2, 8)
    assert parse_group_spec("Z8xZ2").elementary_divisors() == (2, 8)
    assert parse_group_spec("Z4xZ4").elementary_divisors() == (4, 4)
    assert parse_group_spec("Z12xZ90").elementary_divisors() == (2, 3, 4, 5, 9)
    assert parse_group_spec(f"Z{MAX_ORDER}").elementary_divisors() == (MAX_ORDER,)
    assert parse_group_spec("Z1048573").elementary_divisors() == (1048573,)  # prime


def test_add_sub_square_examples():
    g = parse_group_spec("Z4xZ3")
    assert g.add((3, 2), (2, 2)) == (1, 1)
    assert g.sub((1, 1), (2, 2)) == (3, 2)
    z6 = parse_group_spec("Z6")
    assert z6.square((4,)) == (2,)
    assert z6.square((3,)) == (0,)


def test_arithmetic_rejects_unreduced_or_misshapen_elements():
    g = parse_group_spec("Z4xZ3")
    with pytest.raises(ValueError):
        g.add((1,), (2, 0))
    with pytest.raises(ValueError):
        g.add((4, 0), (0, 0))
    with pytest.raises(ValueError):
        g.square((0, -1))


def test_elements_enumerate_lexicographically():
    g = parse_group_spec("Z2xZ3")
    assert list(g.elements()) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def involution_bases(g):
    """Bases of omega1, the sign-+1 central elements of D(G): the solutions of g + g = 0."""
    return [x.g for x in omega_partition(g).omega1]


def test_involutions_z2xz4():
    g = parse_group_spec("Z2xZ4")
    assert involution_bases(g) == [(0, 0), (0, 2), (1, 0), (1, 2)]


@pytest.mark.parametrize(
    "spec", ["Z3", "Z4", "Z6", "Z9", "Z12", "Z2xZ4", "Z4xZ3", "Z2xZ2xZ3"]
)
def test_involutions_match_direct_scan_and_count(spec):
    g = parse_group_spec(spec)
    scan = [a for a in g.elements() if g.add(a, a) == g.identity]
    assert involution_bases(g) == scan
    assert len(scan) == 2 ** g.r


def test_two_rank_counts_even_factors():
    assert parse_group_spec("Z9").r == 0
    assert parse_group_spec("Z6").r == 1
    assert parse_group_spec("Z2xZ3").r == 1
    assert parse_group_spec("Z2xZ6").r == 2
    assert parse_group_spec("Z2xZ2xZ3").r == 2


def test_is_elementary_abelian_2():
    assert parse_group_spec("Z2").is_elementary_abelian_2()
    assert parse_group_spec("Z2xZ2xZ2").is_elementary_abelian_2()
    assert not parse_group_spec("Z2xZ4").is_elementary_abelian_2()
    assert not parse_group_spec("Z3").is_elementary_abelian_2()


def test_group_axioms_on_random_samples():
    rng = random.Random(7)
    g = parse_group_spec("Z4xZ3xZ2")
    elems = list(g.elements())
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert g.add(a, b) == g.add(b, a)
        assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))
        assert g.sub(g.add(a, b), b) == a
        assert g.square(g.add(a, b)) == g.add(g.square(a), g.square(b))
