"""Branch-local mutants: which formula branches a sweep's oracles guard.

Each mutant changes one branch of one closed formula and agrees with it
elsewhere. A sweep over a small fixed family must exit 2 with a DISAGREE line
naming the invariant. A mutant that today's default caps miss is marked
xfail(strict=True) with its reason, so the mark must go when a check starts
catching it.
"""

import pytest

from commgraph import cli, detour, part_kind

FAMILY = "Z2xZ8,Z4xZ4"  # n = 16, r = 2: q = 4 >= 2**r, 32 vertices


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
