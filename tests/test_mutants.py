"""Branch-local mutants: which formula branches a sweep's oracles guard.

Each mutant changes one branch of one closed formula and agrees with it
elsewhere. A sweep over a small fixed family must exit 2 with a DISAGREE line
naming the invariant. A mutant that today's default caps miss is marked
xfail(strict=True) with its reason, so the mark must go when a check starts
catching it.
"""

import dataclasses

import pytest

from commgraph import cli, detour, invariants, part_kind, resolving

FAMILY = "Z2xZ8,Z4xZ4"  # n = 16, r = 2: q = 4 >= 2**r, 32 vertices
# r = 0 (n = 3, 5), r = 1 (n = 4, 6) and r = 2 with q = n / 2**r of 2, 4 and 5.
TABLE_FAMILY = "Z3,Z5,Z4,Z6,Z2xZ4,Z2xZ8,Z2xZ10"


def _omega1_long_rotation_mutant(formula):
    # With c = 2**r and q >= c the omega1 value is n + c(c-1) - 1; the mutant says
    # n + 2(c-1) - 1, which is the same value whenever r = 1.
    def mutant(n, r, part):
        c = 1 << r
        if part_kind(part) == "omega1" and n // c >= c:
            return n + 2 * (c - 1) - 1
        return formula(n, r, part)

    return mutant


def _sweep_with_mutant(monkeypatch, capsys, *caps):
    monkeypatch.setattr(
        detour, "detour_ecc_formula", _omega1_long_rotation_mutant(detour.detour_ecc_formula)
    )
    code = cli.run(["sweep", FAMILY, "--no-cache", *caps])
    return code, capsys.readouterr().out


def test_detour_omega1_mutant_is_caught_at_a_raised_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out = _sweep_with_mutant(monkeypatch, capsys, "--max-detour-vertices", "32")
    assert code == 2
    assert any(
        line.startswith("DISAGREE ") and " detour.ecc.omega1:" in line for line in out.splitlines()
    ), out


@pytest.mark.xfail(strict=True, reason="32 vertices > detour cap 20")
def test_detour_omega1_mutant_is_caught_at_the_default_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out = _sweep_with_mutant(monkeypatch, capsys)
    assert code == 2
    assert " detour.ecc.omega1:" in out


def _plus_one(value):
    """The formula's value plus 1; for a polynomial, its coefficient at beta + 1."""
    if isinstance(value, resolving.ResolvingPolynomial):
        coeffs = dict(value.coeffs)
        coeffs[value.beta + 1] += 1
        return dataclasses.replace(value, coeffs=coeffs)
    return value + 1


# Branch -> (module, formula, branch test on (n, r, *args), invariant its DISAGREE names),
# with q = n >> r and c = 1 << r.
# Every branch of r >= 1 is bumped only at r >= 2, so each mutant agrees on every row
# with r <= 1; the r = 0 branches are bumped only at n > 3, so Z3 agrees too.
BRANCHES = {
    "degree.omega1": (invariants, "degree_formula",
                      lambda n, r, part: r >= 2 and part_kind(part) == "omega1", "degree.omega1"),
    "degree.omega2": (invariants, "degree_formula",
                      lambda n, r, part: r >= 2 and part_kind(part) == "omega2", "degree.omega2"),
    "degree.omega3": (invariants, "degree_formula",
                      lambda n, r, part: r >= 2 and part_kind(part) == "omega3", "degree.omega3"),
    "edges": (invariants, "edge_count_formula", lambda n, r: r >= 2, "edges"),
    "chromatic": (invariants, "chromatic_number_formula", lambda n, r: r >= 2, "chromatic"),
    "detour.omega1.q<c": (
        detour, "detour_ecc_formula",
        lambda n, r, part: r >= 2 and part_kind(part) == "omega1" and n >> r < 1 << r,
        "detour.ecc.omega1",
    ),
    "detour.omega1.q>=c": (
        detour, "detour_ecc_formula",
        lambda n, r, part: r >= 2 and part_kind(part) == "omega1" and n >> r >= 1 << r,
        "detour.ecc.omega1",
    ),
    "detour.omega23.q<=c": (
        detour, "detour_ecc_formula",
        lambda n, r, part: r >= 2 and part_kind(part) != "omega1" and n >> r <= 1 << r,
        "detour.ecc.omega2",
    ),
    "detour.omega23.q>c": (
        detour, "detour_ecc_formula",
        lambda n, r, part: r >= 2 and part_kind(part) != "omega1" and n >> r > 1 << r,
        "detour.ecc.omega2",
    ),
    "beta.r>=1": (resolving, "metric_dimension_formula", lambda n, r: r >= 2, "resolving.beta"),
    "poly.r>=1": (resolving, "resolving_polynomial_formula", lambda n, r: r >= 2,
                  "resolving.poly"),
    "beta.r=0": (resolving, "metric_dimension_formula", lambda n, r: r == 0 and n > 3,
                 "resolving.beta"),
    "poly.r=0": (resolving, "resolving_polynomial_formula", lambda n, r: r == 0 and n > 3,
                 "resolving.poly"),
}
# The q >= c and q > c branches first occur at Z2xZ8 (32 vertices) and Z2xZ10 (40).
ESCAPES_THE_DEFAULT_CAPS = {"detour.omega1.q>=c", "detour.omega23.q>c"}


def _sweep_with_branch_mutant(monkeypatch, capsys, branch, *caps):
    module, name, in_branch, _ = BRANCHES[branch]
    formula = getattr(module, name)

    def mutant(n, r, *args):
        value = formula(n, r, *args)
        return _plus_one(value) if in_branch(n, r, *args) else value

    monkeypatch.setattr(module, name, mutant)
    code = cli.run(["sweep", TABLE_FAMILY, "--no-cache", *caps])
    return code, capsys.readouterr().out


def _assert_caught(branch, code, out):
    invariant = BRANCHES[branch][3]
    assert code == 2, out
    assert any(
        line.startswith("DISAGREE ") and f" {invariant}:" in line for line in out.splitlines()
    ), out


@pytest.mark.parametrize(
    "branch",
    [
        pytest.param(
            branch,
            marks=pytest.mark.xfail(strict=True, reason="32 and 40 vertices > detour cap 20"),
        )
        if branch in ESCAPES_THE_DEFAULT_CAPS
        else branch
        for branch in BRANCHES
    ],
)
def test_branch_mutant_is_caught_at_the_default_caps(tmp_path, monkeypatch, capsys, branch):
    monkeypatch.chdir(tmp_path)
    _assert_caught(branch, *_sweep_with_branch_mutant(monkeypatch, capsys, branch))


@pytest.mark.parametrize("branch", sorted(ESCAPES_THE_DEFAULT_CAPS))
def test_branch_mutant_is_caught_at_a_raised_detour_cap(tmp_path, monkeypatch, capsys, branch):
    monkeypatch.chdir(tmp_path)
    caps = ["--max-detour-vertices", "40"]
    _assert_caught(branch, *_sweep_with_branch_mutant(monkeypatch, capsys, branch, *caps))
