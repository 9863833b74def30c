"""Report assembly, sweep families, caching, CSV rows, and the CLI contract."""

import concurrent.futures
import csv
import dataclasses
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from commgraph import (
    CSV_COLUMNS,
    Caps,
    GroupSpecError,
    all_abelian_specs,
    build_report,
    parse_group_spec,
    report_for_spec,
    report_to_row,
    run_sweep,
)
from commgraph import CapExceededError, cli, detour, graph, invariants, resolving
from commgraph import report as report_module
from helpers import brute


def test_report_z6_fields():
    rep = build_report("Z6")
    assert rep["spec"] == "Z6"
    assert rep["moduli"] == [6]
    assert (rep["n"], rep["r"]) == (6, 1)
    assert not rep["abelian"]
    assert rep["blocks"] == 3
    assert rep["vertex_count"] == 12
    assert rep["structure"]["match"] is True
    assert rep["degrees"]["omega1"] == {"formula": 11, "oracle": 11, "agree": True}
    assert rep["degrees"]["omega2"]["formula"] == 5
    assert rep["degrees"]["omega3"]["formula"] == 3
    assert rep["edges"] == {"formula": 30, "oracle": 30, "agree": True}
    assert rep["coloring"] == {"proper": True, "colors": 6, "agree": True}
    assert rep["chromatic"] == {"formula": 6, "oracle": 6, "agree": True}
    assert rep["detour"]["ecc"]["omega1"] == {"formula": 7, "oracle": 7, "agree": True}
    assert rep["detour"]["ecc"]["omega2"] == {"formula": 9, "oracle": 9, "agree": True}
    assert rep["detour"]["radius"]["formula"] == 7
    assert rep["detour"]["diameter"]["formula"] == 9
    assert rep["resolving"]["beta"] == {"formula": 7, "oracle": 7, "agree": True}
    assert rep["resolving"]["poly"]["agree"] is True
    assert rep["resolving"]["poly"]["formula"]["coeffs"]["7"] == "64"
    assert rep["unchecked"] == []
    assert rep["disagreements"] == []
    assert rep["agree_all"] is True
    assert "timings" not in rep


def test_report_beta_comes_from_the_polynomial_sweep(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("must not be called")

    monkeypatch.setattr(resolving, "metric_dimension_oracle", never)
    rep = build_report("Z6")
    assert rep["resolving"]["beta"] == {"formula": 7, "oracle": 7, "agree": True}


def test_report_is_byte_stable():
    a = json.dumps(build_report("Z6"), indent=2)
    b = json.dumps(build_report("Z6"), indent=2)
    assert a == b


def test_report_timings_are_opt_in():
    rep = build_report("Z4", with_timings=True)
    assert set(rep["timings"]) >= {"build", "chromatic", "detour", "poly"}
    assert all(t >= 0 for t in rep["timings"].values())


def test_respellings_agree_everywhere_but_the_spec():
    a = build_report("Z6")
    b = build_report("Z2xZ3")
    assert (a["spec"], a["moduli"]) == ("Z6", [6])
    assert (b["spec"], b["moduli"]) == ("Z2xZ3", [2, 3])
    for key in ("n", "r", "edges", "chromatic", "detour", "resolving", "agree_all"):
        assert a[key] == b[key]


def test_report_abelian_short_circuit():
    rep = build_report("Z2xZ2")
    assert rep["abelian"] is True
    assert rep["graph"] == "K_8"
    assert rep["degree"] == 7
    assert rep["edge_count"] == 28
    assert rep["agree_all"] is True
    assert rep["unchecked"] == []


def test_report_caps_leave_oracles_unchecked():
    rep = build_report("Z2xZ6")  # 24 vertices: over detour and resolving caps
    assert rep["structure"]["match"] is True
    assert rep["edges"]["agree"] is True
    assert rep["chromatic"]["agree"] is True  # the greedy bounds meet: no search, no cap
    assert rep["detour"]["ecc"]["omega1"]["oracle"] == "unchecked"
    assert rep["detour"]["radius"]["agree"] == "unchecked"
    assert rep["resolving"]["beta"]["oracle"] == "unchecked"
    assert rep["resolving"]["poly"]["agree"] == "unchecked"
    assert "detour.ecc.omega1" in rep["unchecked"]
    assert "resolving.beta" in rep["unchecked"]
    assert rep["disagreements"] == []
    assert rep["agree_all"] is True


def test_report_skip_oracles():
    rep = build_report("Z6", Caps(graph=0))
    assert rep["structure"]["match"] == "unchecked"
    assert rep["edges"]["oracle"] == "unchecked"
    assert rep["chromatic"]["oracle"] == "unchecked"
    assert rep["coloring"]["proper"] == "unchecked"
    assert rep["resolving"]["poly"]["oracle"] == "unchecked"
    assert rep["agree_all"] is True
    assert rep["unchecked"] == [
        "structure",
        "degree.omega1",
        "degree.omega2",
        "degree.omega3",
        "edges",
        "coloring",
        "chromatic",
        "detour.ecc.omega1",
        "detour.ecc.omega2",
        "detour.ecc.omega3",
        "detour.radius",
        "detour.diameter",
        "resolving.poly",
        "resolving.beta",
    ]


def test_report_to_row_z6():
    row = report_to_row(build_report("Z6"))
    assert len(row) == len(CSV_COLUMNS)
    expect = {
        "spec": "Z6",
        "n": "6",
        "r": "1",
        "blocks": "3",
        "edges_f": "30",
        "edges_o": "30",
        "chi_f": "6",
        "chi_o": "6",
        "eccO1_f": "7",
        "eccO1_o": "7",
        "eccO23_f": "9",
        "eccO23_o": "9",
        "radD": "7",
        "diamD": "9",
        "beta_f": "7",
        "beta_o": "7",
        "poly_agree": "true",
        "agree_all": "true",
    }
    assert row == [expect[c] for c in CSV_COLUMNS]


def test_report_to_row_abelian_blanks():
    row = dict(zip(CSV_COLUMNS, report_to_row(build_report("Z2xZ2"))))
    assert row["spec"] == "Z2xZ2"
    assert row["n"] == "4"
    assert row["agree_all"] == "true"
    assert row["edges_f"] == ""
    assert row["beta_o"] == ""


def test_all_abelian_specs_order_9():
    assert all_abelian_specs(9) == [
        "Z2",
        "Z3",
        "Z4",
        "Z2xZ2",
        "Z5",
        "Z6",
        "Z2xZ3",
        "Z3xZ2",
        "Z7",
        "Z8",
        "Z2xZ4",
        "Z4xZ2",
        "Z2xZ2xZ2",
        "Z9",
        "Z3xZ3",
    ]


def test_all_abelian_specs_guards():
    with pytest.raises(GroupSpecError):
        all_abelian_specs(1)
    with pytest.raises(GroupSpecError):
        all_abelian_specs(2**21)


def test_cache_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "cache.jsonl")
    first = report_for_spec("Z6", cache_file=path)
    assert first["agree_all"] is True
    cached = report_for_spec("Z6", cache_file=path)
    assert cached == first
    # a respelling with the same (n, r) reuses the entry under its own name
    respelled = report_for_spec("Z3xZ2", cache_file=path)
    assert respelled["spec"] == "Z3xZ2"
    assert respelled["moduli"] == [3, 2]
    assert respelled["edges"] == first["edges"]
    with open(path, encoding="utf-8") as fh:
        assert len(fh.readlines()) == 1
    capsys.readouterr()


def test_cache_key_separates_caps_and_oracle_mode(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    report_for_spec("Z6", cache_file=path)
    report_for_spec("Z6", cache_file=path, caps=Caps(graph=0))
    report_for_spec("Z6", cache_file=path, caps=Caps(detour=10))
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    assert len(lines) == 3
    keys = {json.loads(line)["key"] for line in lines}
    assert len(keys) == 3


def test_cache_skips_corrupt_lines(tmp_path, capsys):
    path = str(tmp_path / "cache.jsonl")
    report_for_spec("Z6", cache_file=path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    again = report_for_spec("Z6", cache_file=path)
    assert again["agree_all"] is True
    err = capsys.readouterr().err
    assert "corrupt cache line 2" in err
    # the corrupt line must not grow the file with a duplicate entry
    with open(path, encoding="utf-8") as fh:
        assert len(fh.readlines()) == 2


def test_cache_file_is_read_once_per_sweep(tmp_path, capsys):
    path = str(tmp_path / "cache.jsonl")
    report_for_spec("Z6", cache_file=path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    capsys.readouterr()
    _, lines, code = run_sweep(["Z3", "Z4", "Z6"], cache_file=path)
    assert code == 0
    assert lines[0] == "rows=3 agree=3 disagree=0 unchecked=0"
    warnings = capsys.readouterr().err.splitlines()
    assert warnings == [f"warning: skipping corrupt cache line 2 in {path}"]


def test_cache_last_entry_wins(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    rep = report_for_spec("Z6", cache_file=path)
    key = report_module.cache_key(parse_group_spec("Z6"), report_module.DEFAULT_CAPS)
    doctored = dict(rep)
    doctored["vertex_count"] = 999
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"key": key, "report": doctored}) + "\n")
    assert report_for_spec("Z6", cache_file=path)["vertex_count"] == 999


def test_cache_keys_by_isomorphism_class_not_by_n_and_r(tmp_path, monkeypatch):
    # Z2xZ8 and Z4xZ4 share (n, r) = (16, 2) but are not isomorphic; Z8xZ2 is Z2xZ8 respelled.
    path = str(tmp_path / "cache.jsonl")
    report_for_spec("Z2xZ8", cache_file=path)
    built = counting_builds(monkeypatch)
    rep = report_for_spec("Z4xZ4", cache_file=path)
    assert built == ["Z4xZ4"]
    assert rep["spec"] == "Z4xZ4" and rep["moduli"] == [4, 4]

    def never(*args):
        raise AssertionError("a cached isomorphism class was rebuilt")

    monkeypatch.setattr(report_module, "build_report", never)
    served = report_for_spec("Z8xZ2", cache_file=path)
    assert served["spec"] == "Z8xZ2" and served["moduli"] == [8, 2]
    with open(path, encoding="utf-8") as fh:
        assert len(fh.readlines()) == 2


def test_no_cache_path_reads_and_writes_nothing(tmp_path, monkeypatch):
    # Only the CLI resolves $COMMGRAPH_CACHE and the default path; a library call has no cache.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COMMGRAPH_CACHE", str(tmp_path / "via-env.jsonl"))

    def never(*args):
        raise AssertionError("a cache lookup without a cache path")

    monkeypatch.setattr(report_module, "cache_get", never)
    assert report_for_spec("Z6")["agree_all"] is True
    _, lines, code = run_sweep(["Z3", "Z4"])
    assert code == 0 and lines[0] == "rows=2 agree=2 disagree=0 unchecked=0"
    assert list(tmp_path.iterdir()) == []


def test_cached_disagreement_is_not_served_to_a_respelling(tmp_path, monkeypatch):
    path = str(tmp_path / "cache.jsonl")
    original = invariants.degree_formula
    monkeypatch.setattr(invariants, "degree_formula", lambda n, r, part: original(n, r, part) + 1)
    assert report_for_spec("Z6", cache_file=path)["agree_all"] is False
    rep = report_for_spec("Z2xZ3", cache_file=path)
    # A served Z6 report would name the Z6 element (0;+), which is not in Z2xZ3.
    assert rep["disagreements"][0]["witness"].startswith("vertex (0,0;+) has degree 11")
    assert not (tmp_path / "cache.jsonl").exists()


def test_timings_bypass_the_cache(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    rep = report_for_spec("Z4", cache_file=path, with_timings=True)
    assert "timings" in rep
    assert not (tmp_path / "cache.jsonl").exists()


def test_run_sweep_summary_and_exit_code():
    reports, lines, code = run_sweep(["Z3", "Z4", "Z6"])
    assert code == 0
    assert [r["spec"] for r in reports] == ["Z3", "Z4", "Z6"]
    assert lines[0] == "rows=3 agree=3 disagree=0 unchecked=0"


def test_run_sweep_counts_unchecked():
    _, lines, code = run_sweep(["Z9"])
    assert code == 0
    assert lines[0] == "rows=1 agree=0 disagree=0 unchecked=1"


def counting_builds(monkeypatch) -> list[str]:
    """Patch report.build_report to record each spec it builds; returns the record."""
    built = []
    original = report_module.build_report

    def counting(spec, *args):
        built.append(spec)
        return original(spec, *args)

    monkeypatch.setattr(report_module, "build_report", counting)
    return built


def test_run_sweep_builds_one_report_per_isomorphism_class(monkeypatch):
    built = counting_builds(monkeypatch)
    specs = ["Z6", "Z2xZ3", "Z3xZ2", "Z12", "Z4xZ3", "Z2xZ6"]
    reports, lines, code = run_sweep(specs)
    assert built == ["Z6", "Z12", "Z2xZ6"]
    assert [(rep["spec"], rep["moduli"]) for rep in reports] == [
        (spec, list(parse_group_spec(spec).moduli)) for spec in specs
    ]
    assert (lines, code) == (["rows=6 agree=3 disagree=0 unchecked=3"], 0)


def test_run_sweep_reports_equal_one_build_per_spelling():
    specs = all_abelian_specs(64)
    reports, _, _ = run_sweep(specs)
    assert len(reports) == 440
    for spec, rep in zip(specs, reports):
        assert json.dumps(rep) == json.dumps(build_report(spec)), spec


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_sweep_disagreeing_class_gives_each_spelling_its_witness(monkeypatch, jobs):
    original = invariants.degree_formula
    monkeypatch.setattr(invariants, "degree_formula", lambda n, r, part: original(n, r, part) + 1)
    reports, lines, code = run_sweep(["Z6", "Z2xZ3"], jobs=jobs)
    assert code == 2
    witnesses = [rep["disagreements"][0]["witness"] for rep in reports]
    assert witnesses[0].startswith("vertex (0;+) has degree 11")
    assert witnesses[1].startswith("vertex (0,0;+) has degree 11")
    assert lines[0] == "rows=2 agree=0 disagree=2 unchecked=0"


def test_default_sweep_decides_every_chromatic_cell():
    reports, lines, _ = run_sweep(all_abelian_specs(96))
    assert lines[0] == "rows=905 agree=16 disagree=0 unchecked=889"
    column = CSV_COLUMNS.index("chi_o")
    cells = [report_to_row(rep)[column] for rep in reports if not rep["abelian"]]
    assert len(cells) == 899
    assert "unchecked" not in cells
    assert not any("chromatic" in rep["unchecked"] for rep in reports)


def test_cli_report_ok(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run(["report", "Z6", "--no-cache"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["spec"] == "Z6"
    assert rep["agree_all"] is True


def test_cli_report_writes_json_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "z4.json"
    assert cli.run(["report", "Z4", "--no-cache", "--json", str(out)]) == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(out.read_text(encoding="utf-8"))
    assert rep["edges"] == {"formula": 16, "oracle": 16, "agree": True}


def test_cli_report_default_cache_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run(["report", "Z4"]) == 0
    assert (tmp_path / ".commgraph-cache.jsonl").exists()
    capsys.readouterr()


def test_cli_cache_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    env_path = tmp_path / "via-env.jsonl"
    monkeypatch.setenv("COMMGRAPH_CACHE", str(env_path))
    assert cli.run(["report", "Z4"]) == 0
    assert env_path.exists()
    assert not (tmp_path / ".commgraph-cache.jsonl").exists()
    capsys.readouterr()


def test_cli_bad_spec_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run(["report", "Q5", "--no-cache"]) == 1
    assert "malformed factor" in capsys.readouterr().err
    # int() refuses more than 4300 digits; the parser must refuse first, in one line.
    assert cli.run(["report", "Z" + "9" * 5000, "--no-cache"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter has no int-to-str digit limit",
)
def test_cli_report_past_the_digit_limit_exits_1(tmp_path, monkeypatch, capsys):
    """n = 2**19, r = 8 and n = 2**15, r = 1: coefficients run past the decimal limit.

    One error line, no output, and the formula fails fast rather than after minutes.
    """
    monkeypatch.chdir(tmp_path)
    for spec in ("Z2xZ2xZ4096xZ2xZ2xZ2xZ2xZ2", "Z32768"):
        t0 = time.perf_counter()
        assert cli.run(["report", spec, "--skip-oracles", "--no-cache"]) == 1, spec
        assert time.perf_counter() - t0 < 20, spec
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "digit limit" in err


def test_cli_usage_errors_exit_1(capsys):
    assert cli.run([]) == 1
    assert cli.run(["report", "Z6", "--bogus-flag"]) == 1
    assert cli.run(["sweep", "all-abelian"]) == 1
    assert cli.run(["sweep", ","]) == 1
    capsys.readouterr()


def test_cli_help_exits_0(capsys):
    assert cli.run(["--help"]) == 0
    assert "report" in capsys.readouterr().out


def test_cli_exports(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    dot = tmp_path / "z4.dot"
    adj = tmp_path / "z4.csv"
    code = cli.run(
        ["report", "Z4", "--no-cache", "--export-dot", str(dot), "--export-adj", str(adj)]
    )
    assert code == 0
    text = dot.read_text(encoding="utf-8")
    assert text.count("subgraph cluster_") == 4
    rows = adj.read_text(encoding="utf-8").strip().split("\n")
    assert len(rows) == 9
    capsys.readouterr()


def test_cli_export_rejects_abelian(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.run(["report", "Z2xZ2", "--no-cache", "--export-dot", str(tmp_path / "x.dot")])
    assert code == 1
    out, err = capsys.readouterr()
    assert "non-abelian" in err
    # The refusal comes before the report: nothing else is printed or written.
    assert out == ""
    assert err.count("\n") == 1
    assert not (tmp_path / "x.dot").exists()


def test_cli_export_obeys_the_graph_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def fail(*args, **kwargs):
        raise AssertionError("export built the graph above the cap")

    monkeypatch.setattr(graph, "build_commuting_graph", fail)
    argv = ["report", "Z64", "--no-cache", "--skip-oracles", "--max-graph-vertices", "8"]
    assert cli.run(argv + ["--export-adj", "a.csv"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "a.csv").exists()


def test_cli_sweep_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "sweep.csv"
    code = cli.run(["sweep", "all-abelian", "--max-order", "9", "--csv", str(out)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "rows=15 agree=13 disagree=0 unchecked=2" in summary
    with open(out, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 16
    specs = [r[0] for r in rows[1:]]
    assert specs == all_abelian_specs(9)


def test_cli_sweep_explicit_family(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run(["sweep", "Z3,Z4,Z6", "--no-cache"]) == 0
    assert "rows=3 agree=3" in capsys.readouterr().out


def test_cli_sweep_reuses_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run(["sweep", "Z3,Z4", "--csv", str(tmp_path / "a.csv")]) == 0
    assert cli.run(["sweep", "Z3,Z4", "--csv", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_text(encoding="utf-8") == (tmp_path / "b.csv").read_text(
        encoding="utf-8"
    )
    with open(tmp_path / ".commgraph-cache.jsonl", encoding="utf-8") as fh:
        assert len(fh.readlines()) == 2  # second sweep was pure cache hits
    capsys.readouterr()


def test_cli_sweep_parallel_matches_serial(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert cli.run(["sweep", "Z3,Z4,Z6,Z2xZ4", "--no-cache", "--csv", str(serial)]) == 0
    assert (
        cli.run(["sweep", "Z3,Z4,Z6,Z2xZ4", "--no-cache", "--jobs", "2", "--csv", str(parallel)])
        == 0
    )
    assert serial.read_text(encoding="utf-8") == parallel.read_text(encoding="utf-8")
    capsys.readouterr()


def test_sweep_pool_is_capped_by_the_work(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # run_sweep imports the pool class only when it needs one, so patch it at its source.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    _, lines, code = run_sweep(["Z3", "Z4", "Z6"], jobs=10**6)
    assert code == 0
    assert lines[0] == "rows=3 agree=3 disagree=0 unchecked=0"
    assert len(sizes) == 1 and 1 <= sizes[0] <= 3


def test_cache_misses_after_a_code_edit(tmp_path):
    package = tmp_path / "pkg" / "commgraph"
    shutil.copytree(
        Path(report_module.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__")
    )
    cache = tmp_path / "cache.jsonl"
    env = dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "commgraph.cli", "report", "Z6", "--cache-file", str(cache)]

    def run():
        return subprocess.run(
            argv, cwd=tmp_path, env=env, capture_output=True, text=True, encoding="utf-8"
        )

    assert run().returncode == 0
    source = package / "invariants.py"
    text = source.read_text(encoding="utf-8")
    edited = text.replace("n * (3 * (1 << r) + n - 2) // 2", "n * (3 * (1 << r) + n - 2) // 2 + 1")
    assert edited != text
    source.write_text(edited, encoding="utf-8")
    second = run()
    assert second.returncode == 2, second.stdout + second.stderr
    assert json.loads(second.stdout)["edges"]["agree"] is False
    # The rewrite keeps only the entry this code's key can hit.
    assert len(cache.read_text(encoding="utf-8").splitlines()) == 1


def test_cli_formula_self_check_failure_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def failing(n, r):
        raise ArithmeticError("coefficient at 2n-1 must be 2n")

    monkeypatch.setattr(resolving, "resolving_polynomial_formula", failing)
    assert cli.run(["report", "Z6", "--no-cache", "--skip-oracles"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: coefficient at 2n-1 must be 2n\n"


def test_report_graph_ceiling_bounds_a_library_cap(monkeypatch):
    # Caps(graph=...) from a library caller cannot lift the build past the ceiling.
    def never(*args, **kwargs):
        raise AssertionError("must not be called")

    monkeypatch.setattr(graph, "MAX_GRAPH_VERTICES", 8)
    monkeypatch.setattr(graph, "build_commuting_graph", never)
    rep = build_report("Z6", caps=Caps(graph=1 << 20))
    assert rep["structure"] == {"match": "unchecked"}
    assert rep["agree_all"] is True


def test_report_resolving_cap_above_the_ceiling_leaves_checks_unchecked():
    # The oracle clamps a library cap to its ceiling and refuses; the report must not raise.
    rep = build_report("Z13", Caps(resolving=30))  # 26 vertices, ceiling 24
    assert rep["vertex_count"] > resolving.MAX_RESOLVING_VERTICES
    assert "resolving.poly" in rep["unchecked"]
    assert "resolving.beta" in rep["unchecked"]
    assert rep["resolving"]["poly"]["oracle"] == "unchecked"
    assert rep["agree_all"] is True


def test_cli_skip_oracles(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run(["report", "Z6", "--no-cache", "--skip-oracles"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["edges"] == {"formula": 30, "oracle": "unchecked", "agree": "unchecked"}
    assert rep["agree_all"] is True


def test_cli_caps_are_adjustable(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run(["report", "Z9", "--no-cache", "--max-resolving-vertices", "18"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["resolving"]["poly"]["agree"] is True
    assert rep["resolving"]["poly"]["oracle"]["coeffs"]["15"] == "72"


def test_cli_structure_witness(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    original = graph.build_structural_graph

    def flipped(n, r):
        g = original(n, r)
        rows = list(g.rows)
        rows[0] ^= 1 << 5
        rows[5] ^= 1 << 0
        return type(g)(tuple(rows), g.part_labels, g.vertices)

    monkeypatch.setattr(graph, "build_structural_graph", flipped)
    assert cli.run(["sweep", "Z6", "--no-cache"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "DISAGREE Z6 structure: adjacency differs at ((0;+), (5;+))" in out


def test_cli_coloring_witness(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(invariants, "construct_coloring", lambda g: [0] * g.n_vertices)
    assert cli.run(["sweep", "Z6", "--no-cache"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "DISAGREE Z6 coloring: constructed coloring proper=False colors=1 expected 6" in out


def test_cli_one_sided_structure_difference_is_a_disagreement(tmp_path, monkeypatch, capsys):
    # Only the structural side has the extra adjacency, so no pair differs both ways.
    monkeypatch.chdir(tmp_path)
    original = graph.build_structural_graph

    def one_sided(n, r):
        g = original(n, r)
        rows = list(g.rows)
        rows[5] ^= 1
        return type(g)(tuple(rows), g.part_labels, g.vertices)

    monkeypatch.setattr(graph, "build_structural_graph", one_sided)
    assert cli.run(["sweep", "Z6", "--no-cache"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "DISAGREE Z6 structure: adjacency differs at ((5;+), (0;+))" in out


def test_cli_polynomial_differing_only_in_beta_is_a_disagreement(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    original = resolving.resolving_polynomial_formula

    def shifted_beta(n, r):
        poly = original(n, r)
        return resolving.ResolvingPolynomial(poly.beta - 1, poly.n_vertices, dict(poly.coeffs))

    monkeypatch.setattr(resolving, "resolving_polynomial_formula", shifted_beta)
    assert cli.run(["sweep", "Z6", "--no-cache"]) == 2
    out = capsys.readouterr().out.splitlines()
    lines = [line for line in out if line.startswith("DISAGREE Z6 resolving.poly: ")]
    assert len(lines) == 1 and "beta" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "Z6", "--no-cache", "--json", "{missing}/x.json"],
        ["sweep", "Z3", "--no-cache", "--csv", "{missing}/x.csv"],
        ["report", "Z4", "--no-cache", "--export-dot", "{missing}/x.dot"],
    ],
    ids=["json", "csv", "export-dot"],
)
def test_cli_unwritable_output_exits_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "no-such-dir"
    assert cli.run([a.format(missing=missing) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no-such-dir" in err


# (flag, Caps field, ceiling) for every cap the CLI bounds.
CEILINGS = [
    ("--max-detour-vertices", "detour", detour.MAX_DETOUR_VERTICES),
    ("--max-resolving-vertices", "resolving", resolving.MAX_RESOLVING_VERTICES),
    ("--max-graph-vertices", "graph", graph.MAX_GRAPH_VERTICES),
]


def test_cli_rejects_resolving_cap_above_ceiling(tmp_path, monkeypatch, capsys):
    # Covers every capped flag; a larger graph cap must fail before any allocation.
    monkeypatch.chdir(tmp_path)

    def never(*args, **kwargs):
        raise AssertionError("must not be called")

    for name in ("build_commuting_graph", "build_structural_graph"):
        monkeypatch.setattr(graph, name, never)
    for name in ("metric_dimension_oracle", "resolving_polynomial_oracle"):
        monkeypatch.setattr(resolving, name, never)
    for flag, _, ceiling in CEILINGS:
        too_big = str(ceiling + 1)
        for argv in (["report", "Z2xZ16"], ["sweep", "Z2xZ16"]):
            assert cli.run([*argv, "--no-cache", flag, too_big]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_rejects_negative_caps_and_jobs_below_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    flags = [f"--max-{field.name}-vertices" for field in dataclasses.fields(Caps)]
    cases = [([command, "Z6", flag, "-1"], flag) for command in ("report", "sweep") for flag in flags]
    cases += [(["sweep", "Z6", "--jobs", jobs], "--jobs") for jobs in ("0", "-3")]
    for argv, flag in cases:
        assert cli.run([*argv, "--no-cache"]) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {flag} is below ") and err.count("\n") == 1, err
    # A graph cap of 0 is --skip-oracles, and one job is the serial sweep.
    assert cli.run(["sweep", "Z6", "--no-cache", "--max-graph-vertices", "0", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == "rows=1 agree=0 disagree=0 unchecked=1\n"


def test_cli_has_no_chromatic_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command in ("report", "sweep"):
        assert cli.run([command, "Z6", "--no-cache", "--max-chromatic-vertices", "24"]) == 1
        assert capsys.readouterr().out == ""
    assert set(cli.CEILINGS) == {field.name for field in dataclasses.fields(Caps)}


def test_cli_detour_cap_above_the_recursion_safe_ceiling_exits_1(tmp_path, monkeypatch, capsys):
    # A 2048-vertex DFS would pass Python's recursion limit; the CLI refuses the cap first.
    monkeypatch.chdir(tmp_path)
    assert cli.run(["report", "Z1024", "--no-cache", "--max-detour-vertices", "4096"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    ceiling = detour.MAX_DETOUR_VERTICES
    assert err == f"error: --max-detour-vertices is above the ceiling {ceiling}\n"


def test_cli_accepts_resolving_cap_at_ceiling(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for flag, field, ceiling in CEILINGS:
        at_ceiling = str(ceiling)
        assert cli.run(["report", "Z3", "--no-cache", flag, at_ceiling]) == 0
        assert json.loads(capsys.readouterr().out)["caps"][field] == int(at_ceiling)


def test_resolving_oracles_honour_the_ceiling(monkeypatch):
    # Past the ceiling the oracles must refuse before any subset work (or allocation).
    def never(*args, **kwargs):
        raise AssertionError("must not be called")

    monkeypatch.setattr(resolving, "_pair_masks", never)
    monkeypatch.setattr(resolving, "twin_lower_bound", never)
    g = brute("Z13")  # 26 vertices
    assert g.n_vertices > resolving.MAX_RESOLVING_VERTICES
    with pytest.raises(CapExceededError):
        resolving.metric_dimension_oracle(g, max_vertices=64)
    with pytest.raises(CapExceededError):
        resolving.resolving_polynomial_oracle(g, max_vertices=64)


def test_detour_oracles_honour_the_ceiling(monkeypatch):
    # Past the ceiling both detour oracles refuse before any twin-class work or search.
    def never(*args, **kwargs):
        raise AssertionError("must not be called")

    monkeypatch.setattr(detour, "twin_classes", never)
    monkeypatch.setattr(detour, "_reachable", never)
    g = brute("Z257")  # 514 vertices
    assert g.n_vertices > detour.MAX_DETOUR_VERTICES
    with pytest.raises(CapExceededError):
        detour.detour_profile(g, max_vertices=4096)
    with pytest.raises(CapExceededError):
        detour.detour_ecc_oracle(g, 0, max_vertices=4096)


def test_a_raised_detour_cap_is_bounded_in_time_and_memory(tmp_path):
    # Z2xZ2xZ12 (96 vertices) overruns the walk DP's state budget: the report must
    # finish and list every detour check as unchecked, under a 1 GiB address space.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(detour.__file__).parent.parent
    argv = [sys.executable, "-m", "commgraph.cli", "report", "Z2xZ2xZ12", "--no-cache",
            "--max-detour-vertices", "96"]
    t0 = time.perf_counter()
    done = subprocess.run(
        argv, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, encoding="utf-8", preexec_fn=limit_memory, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - t0 < 30
    rep = json.loads(done.stdout)
    detour_checks = ["detour.ecc.omega1", "detour.ecc.omega2", "detour.ecc.omega3",
                     "detour.radius", "detour.diameter"]
    assert set(detour_checks) <= set(rep["unchecked"])
    assert rep["disagreements"] == []
