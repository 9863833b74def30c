"""Report assembly, sweep families, caching, CSV rows, and the CLI contract."""

import concurrent.futures
import csv
import errno
import json
import multiprocessing
import os
import re
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
import zlib
from decimal import Decimal
from pathlib import Path

import pytest

from commgraph import (
    CSV_COLUMNS,
    Caps,
    DEFAULT_CAPS,
    GroupSpecError,
    all_abelian_specs,
    build_report,
    omega_partition,
    parse_group_spec,
    report_for_spec,
    report_to_row,
    run_sweep,
)
from commgraph import CapExceededError, cli, detour, graph, invariants, resolving
from commgraph import report as report_module
from helpers import brute, int_max_str_digits
from test_graph import _dot_from_edges


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


def unsealed(line: str) -> dict:
    """The entry of one cache line, read after its seal."""
    return json.loads(line.split(" ", 1)[1])


def skip_warning(path, skipped: int, total: int) -> str:
    return (
        f"warning: skipping {skipped} of {total} lines in cache file {path}: "
        "written by other code, edited or damaged"
    )


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
    keys = {unsealed(line)["key"] for line in lines}
    assert len(keys) == 3


def test_cache_skips_corrupt_lines(tmp_path, capsys):
    path = str(tmp_path / "cache.jsonl")
    report_for_spec("Z6", cache_file=path)
    sealed = Path(path).read_bytes()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    again = report_for_spec("Z6", cache_file=path)
    assert again["agree_all"] is True
    err = capsys.readouterr().err
    assert err == skip_warning(path, 1, 2) + "\n"
    # A run that only hits drops the corrupt line, adds no duplicate entry, and the next is quiet.
    assert Path(path).read_bytes() == sealed
    report_for_spec("Z6", cache_file=path)
    assert capsys.readouterr().err == ""


def test_cache_skips_lines_whose_report_is_not_a_report(tmp_path, capsys):
    # A real key whose report lacks list "unchecked" and "disagreements" or bool "agree_all".
    path = str(tmp_path / "cache.jsonl")
    key = report_module.cache_key(parse_group_spec("Z6"), report_module.DEFAULT_CAPS)
    not_reports = [{}, [1], {"unchecked": [], "disagreements": [], "agree_all": 1}]
    for bad, command in zip(not_reports, ["sweep", "report", "sweep"]):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"key": key, "report": bad}) + "\n")
        assert cli.run([command, "Z6", "--cache-file", path]) == 0
        assert capsys.readouterr().err == skip_warning(path, 1, 1) + "\n"
        # Recomputed, and stored in place of the corrupt line.
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        assert len(lines) == 1 and unsealed(lines[0])["report"]["agree_all"] is True


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
    assert warnings == [skip_warning(path, 1, 2)]


def test_cache_last_entry_wins(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    rep = report_for_spec("Z6", cache_file=path)
    key = report_module.cache_key(parse_group_spec("Z6"), report_module.DEFAULT_CAPS)
    doctored = dict(rep)
    doctored["vertex_count"] = 999
    later = tmp_path / "later.jsonl"
    report_module.cache_put(str(later), {key: doctored})
    with open(path, "ab") as fh:
        fh.write(later.read_bytes())
    assert report_for_spec("Z6", cache_file=path)["vertex_count"] == 999


@pytest.mark.parametrize(
    "damage", ["not utf-8", "detour 5", "bogus disagreement", "edges 999", "other code"]
)
def test_damaged_cache_line_is_skipped_with_one_warning(tmp_path, monkeypatch, capsys, damage):
    # One real Z6 line, damaged: only its seal decides, so nothing of it is served.
    monkeypatch.chdir(tmp_path)
    report_for_spec("Z6", cache_file="real.jsonl")
    seal, data = Path("real.jsonl").read_bytes().rstrip(b"\n").split(b" ", 1)
    entry = json.loads(data)
    report = entry["report"]
    if damage == "detour 5":
        report["detour"] = 5
    elif damage == "bogus disagreement":
        report["disagreements"], report["agree_all"] = [1], False
    else:
        report["edges"]["oracle"] = 999
    line = b"\xff\xfe\n" if damage == "not utf-8" else seal + b" " + json.dumps(entry).encode()
    if damage == "other code":
        with monkeypatch.context() as m:
            m.setattr(report_module, "_code_fingerprint", lambda: 12345)
            report_module.cache_put("other.jsonl", {entry["key"]: report})
        line = Path("other.jsonl").read_bytes()

    def run(argv):
        """Exit code, stdout, stderr and the CSV (None if none) of one CLI run."""
        code = cli.run(argv)
        out, err = capsys.readouterr()
        table = Path("c.csv").read_text(encoding="utf-8") if Path("c.csv").exists() else None
        Path("c.csv").unlink(missing_ok=True)
        return code, out, err, table

    for argv in (["sweep", "Z6", "--csv", "c.csv"], ["report", "Z6"]):
        code, out, err, table = run(argv + ["--no-cache"])
        assert code == 0 and err == ""
        Path("damaged.jsonl").write_bytes(line)
        warning = skip_warning("damaged.jsonl", 1, 1) + "\n"
        assert run(argv + ["--cache-file", "damaged.jsonl"]) == (0, out, warning, table)


def test_cache_put_keeps_the_old_file_when_the_rename_fails(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    report_for_spec("Z6", cache_file=str(path))
    before = path.read_bytes()
    written = []

    def refuse(src, dst):
        written.append(Path(src).read_bytes())
        raise PermissionError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    message = f"cannot write cache file {re.escape(str(path))}: Permission denied"
    with pytest.raises(OSError, match=message):
        report_for_spec("Z4", cache_file=str(path))
    assert len(written) == 1 and len(written[0].splitlines()) == 2
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_cli_names_the_cache_file_it_cannot_write(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    error = "error: cannot write cache file nodir/c.jsonl: No such file or directory\n"
    assert cli.run(["report", "Z6", "--cache-file", "nodir/c.jsonl"]) == 1
    assert capsys.readouterr() == ("", error)
    argv = ["sweep", "Z6,Z4", "--cache-file", "nodir/c.jsonl", "--csv", "s.csv"]
    assert cli.run(argv) == 1
    assert capsys.readouterr() == ("", error)
    assert not Path("s.csv").exists()
    # A cache path that cannot be read is named too.
    assert cli.run(["report", "Z6", "--cache-file", "."]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.rstrip().endswith("'.'")


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


@pytest.mark.parametrize("offset", [1, 2])
def test_run_sweep_disagreeing_class_gives_each_spelling_its_witness(monkeypatch, offset):
    original = invariants.degree_formula
    monkeypatch.setattr(
        invariants, "degree_formula", lambda n, r, part: original(n, r, part) + offset
    )
    reports, lines, code = run_sweep(["Z6", "Z2xZ3"])
    assert code == 2
    witnesses = [rep["disagreements"][0]["witness"] for rep in reports]
    assert witnesses[0] == f"vertex (0;+) has degree 11, formula says {11 + offset}"
    assert witnesses[1] == f"vertex (0,0;+) has degree 11, formula says {11 + offset}"
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


# Z2xZ2 takes the abelian short-circuit; Z8192 (formula only) prints 6.3 MB of JSON.
STREAMED_REPORTS = [("Z6", []), ("Z2xZ2", []), ("Z1024", []), ("Z8192", ["--skip-oracles"])]


@pytest.mark.parametrize("spec, flags", STREAMED_REPORTS, ids=[s for s, _ in STREAMED_REPORTS])
def test_cli_report_bytes_equal_json_dumps(tmp_path, monkeypatch, capsysbinary, spec, flags):
    # stdout and --json carry json.dumps(report, indent=2) and a newline, byte for byte.
    monkeypatch.chdir(tmp_path)
    caps = Caps(graph=0) if flags else DEFAULT_CAPS
    expected = (json.dumps(build_report(spec, caps), indent=2) + "\n").encode()
    assert cli.run(["report", spec, "--no-cache", *flags]) == 0
    assert capsysbinary.readouterr().out == expected
    out = tmp_path / "report.json"
    assert cli.run(["report", spec, "--no-cache", *flags, "--json", str(out)]) == 0
    assert out.read_bytes() == expected


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_report_json_file_is_written_without_the_whole_text(tmp_path, monkeypatch):
    # The report's coefficient strings alone take about the file's size, so the bound
    # leaves no room for a second whole copy of the text, joined or encoded.
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "z8192.json"
    argv = ["report", "Z8192", "--no-cache", "--skip-oracles", "--json", str(out)]
    code, peak = traced_peak(lambda: cli.run(argv))
    assert code == 0
    size = out.stat().st_size
    assert size > 6_000_000
    assert peak < 2.5 * size, f"peak {peak} bytes for a {size}-byte report"


class CountingStream:
    """A text stream that keeps what it is given and counts the write calls."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)


@pytest.mark.parametrize("spec, caps", [("Z6", DEFAULT_CAPS), ("Z8192", Caps(graph=0))])
def test_json_writer_batches_its_writes(spec, caps):
    # An unbuffered stdout makes each write a system call, so tokens are never written
    # one by one: a write carries at least 16 KiB, apart from the last.
    report = build_report(spec, caps)
    stream = CountingStream()
    cli._write_json(report, stream)
    text = "".join(stream.parts)
    assert text == json.dumps(report, indent=2) + "\n"
    assert len(stream.parts) <= len(text) // 16384 + 2


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


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter has no int-to-str digit limit",
)
@pytest.mark.parametrize("kind", [Decimal, int])
def test_poly_json_holds_both_value_types_to_the_digit_limit(kind):
    """str(Decimal) has no digit limit of its own, so _poly_json applies str(int)'s."""
    polys = {
        digits: resolving.ResolvingPolynomial(0, 1, {0: kind("9" * digits), 1: kind(1)})
        for digits in (640, 641, 700)
    }
    message = (
        "^a resolving polynomial coefficient exceeds the 640-digit limit "
        "for integer string conversion$"
    )
    with int_max_str_digits(640):
        assert report_module._poly_json(polys[640])["coeffs"]["0"] == "9" * 640
        for digits in (641, 700):
            with pytest.raises(report_module.ReportTooLargeError, match=message):
                report_module._poly_json(polys[digits])


def test_cli_usage_errors_exit_1(capsys):
    assert cli.run([]) == 1
    assert cli.run(["report", "Z6", "--bogus-flag"]) == 1
    assert cli.run(["sweep", "all-abelian"]) == 1
    assert cli.run(["sweep", ","]) == 1
    capsys.readouterr()


def test_cli_max_order_needs_all_abelian(capsys):
    assert cli.run(["sweep", "Z3,Z4", "--max-order", "5", "--no-cache"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --max-order needs all-abelian\n"


def test_cli_strips_spaces_around_specs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run(["report", " Z6 ", "--no-cache"]) == 0
    assert json.loads(capsys.readouterr().out)["spec"] == "Z6"
    assert cli.run(["sweep", "Z6, Z4", "--no-cache", "--csv", "s.csv"]) == 0
    capsys.readouterr()
    with open("s.csv", encoding="utf-8", newline="") as fh:
        assert [row["spec"] for row in csv.DictReader(fh)] == ["Z6", "Z4"]


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


@pytest.mark.parametrize("flag, to_text", [("--export-dot", graph.to_dot),
                                           ("--export-adj", graph.to_adjacency_csv)])
def test_cli_exports_are_written_without_the_whole_text(
    tmp_path, monkeypatch, capsys, flag, to_text
):
    # Z512's graph has 1024 vertices and about 2 MB of DOT or CSV text; written a row at
    # a time, the export peaks below the size of its own file.
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "z512.export"
    code, peak = traced_peak(
        lambda: cli.run(["report", "Z512", "--no-cache", "--skip-oracles", flag, str(out)])
    )
    assert code == 0
    capsys.readouterr()
    size = out.stat().st_size
    assert size > 2_000_000
    assert peak < size, f"peak {peak} bytes for a {size}-byte export"
    g = brute("Z512")
    assert out.read_bytes() == to_text(g).encode()
    if flag == "--export-dot":
        assert out.read_bytes() == _dot_from_edges(g).encode()


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


def test_cli_sweep_never_starts_a_process(tmp_path, monkeypatch, capsys):
    # --jobs is accepted for compatibility; the sweep is one loop in this process.
    def never(*args, **kwargs):
        raise AssertionError("the sweep started a process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
    monkeypatch.setattr(multiprocessing.Process, "start", never)
    monkeypatch.chdir(tmp_path)
    csvs = {}
    for jobs in ("1", "2"):
        csvs[jobs] = tmp_path / f"jobs{jobs}.csv"
        argv = ["sweep", "Z3,Z4,Z6,Z2xZ4", "--no-cache", "--jobs", jobs, "--csv", str(csvs[jobs])]
        assert cli.run(argv) == 0
    assert csvs["1"].read_text(encoding="utf-8") == csvs["2"].read_text(encoding="utf-8")
    capsys.readouterr()


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
    assert second.stderr == skip_warning(cache, 1, 1) + "\n"
    # The old code's line is dropped, and the disagreeing report is not stored.
    assert cache.read_bytes() == b""
    third = run()
    assert (third.returncode, third.stderr) == (2, "")


def test_code_fingerprint_equals_the_pathlib_listing():
    # The seal's seed is the CRC-32 of each *.py source's name, a NUL and its bytes, in
    # name order; it must not change with the way the sources are listed and read.
    crc = 0
    for path in sorted(Path(report_module.__file__).parent.glob("*.py")):
        crc = zlib.crc32(path.name.encode() + b"\0" + path.read_bytes(), crc)
    assert report_module._code_fingerprint() == crc


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


def test_report_resolving_cap_above_the_ceiling_leaves_checks_unchecked(monkeypatch):
    # Past its vector budget the oracle refuses whatever the cap; the report must not raise.
    monkeypatch.setattr(resolving, "MAX_RESOLVING_VECTORS", 7)
    rep = build_report("Z13", Caps(resolving=30))  # 26 vertices in 3 types: 2**3 vectors
    assert rep["vertex_count"] == 26
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
        ["report", "Z4", "--no-cache", "--export-adj", "{missing}/x.csv"],
    ],
    ids=["json", "csv", "export-dot", "export-adj"],
)
def test_cli_unwritable_output_exits_1(tmp_path, monkeypatch, capsys, argv):
    # Only the one-line error: no report or summary reaches stdout first.
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "no-such-dir"
    assert cli.run([a.format(missing=missing) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no-such-dir" in err


# (flag, Caps field, ceiling) for every cap the CLI bounds.
CEILINGS = [
    ("--max-detour-vertices", "detour", detour.MAX_DETOUR_VERTICES),
    ("--max-resolving-vertices", "resolving", graph.MAX_GRAPH_VERTICES),
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
    flags = [f"--max-{name}-vertices" for name in Caps._fields]
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
    assert set(cli.CEILINGS) == set(Caps._fields)


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
    # Past its ceiling the subset search refuses before any subset work. The polynomial
    # oracle has no vertex ceiling: past its vector budget it refuses before any BFS.
    def never(*args, **kwargs):
        raise AssertionError("must not be called")

    g = brute("Z13")  # 26 vertices
    assert g.n_vertices > resolving.MAX_RESOLVING_VERTICES
    poly = resolving.resolving_polynomial_oracle(g, max_vertices=64)
    assert poly == resolving.resolving_polynomial_formula(13, 0)
    monkeypatch.setattr(resolving, "_pair_masks", never)
    monkeypatch.setattr(resolving, "twin_lower_bound", never)
    monkeypatch.setattr(resolving, "_levels", never)
    with pytest.raises(CapExceededError):
        resolving.metric_dimension_oracle(g, max_vertices=64)
    path = graph.CommutingGraph.from_edges(17, [(v, v + 1) for v in range(16)])  # twin-free
    with pytest.raises(CapExceededError, match="^131072 count vectors "):
        resolving.resolving_polynomial_oracle(path, max_vertices=64)


def test_detour_oracles_honour_the_ceiling(monkeypatch):
    # Past the ceiling both detour oracles refuse before reading the cotree or searching.
    def never(*args, **kwargs):
        raise AssertionError("must not be called")

    monkeypatch.setattr(detour, "_cotree", never)
    monkeypatch.setattr(detour, "levels", never)
    g = brute("Z257")  # 514 vertices
    assert g.n_vertices > detour.MAX_DETOUR_VERTICES
    with pytest.raises(CapExceededError):
        detour.detour_profile(g, max_vertices=4096)
    with pytest.raises(CapExceededError):
        detour.detour_ecc_oracle(g, 0, max_vertices=4096)


def run_cli_in_1gib(tmp_path, *argv):
    """Run the CLI in a child process limited to a 1 GiB address space; (result, seconds)."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(detour.__file__).parent.parent
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "commgraph.cli", *argv], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        encoding="utf-8", preexec_fn=limit_memory, timeout=60,
    )
    return done, time.perf_counter() - t0


def test_a_raised_detour_cap_is_bounded_in_time_and_memory(tmp_path):
    # Z2xZ2xZ12 (96 vertices): the report must decide every detour check, and agree,
    # under a 1 GiB address space.
    done, seconds = run_cli_in_1gib(
        tmp_path, "report", "Z2xZ2xZ12", "--no-cache", "--max-detour-vertices", "96"
    )
    assert done.returncode == 0, done.stderr
    assert seconds < 30
    rep = json.loads(done.stdout)
    checks = [*rep["detour"]["ecc"].values(), rep["detour"]["radius"], rep["detour"]["diameter"]]
    assert len(checks) == 5
    assert all(check["agree"] is True for check in checks), rep["detour"]
    assert not any(name.startswith("detour.") for name in rep["unchecked"])
    assert rep["disagreements"] == []


def test_sweep_at_the_top_of_the_order_range_stops_at_the_row_ceiling(tmp_path):
    # Order 1024 has 51,555 spellings, within the ceiling; 2**20 would never finish.
    assert len(all_abelian_specs(1024)) == 51555
    done, seconds = run_cli_in_1gib(
        tmp_path, "sweep", "all-abelian", "--max-order", str(2**20), "--no-cache"
    )
    assert done.returncode == 1
    assert seconds < 10
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        f"error: all-abelian family exceeds {report_module.MAX_SWEEP_ROWS} rows"
    ]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses and inspect cost about a third of the CLI's import time, and pathlib
    # brings urllib.parse and ipaddress. -S keeps site's .pth hooks, which may import
    # anything, out of sys.modules.
    src = Path(detour.__file__).parent.parent
    unwanted = {"dataclasses", "inspect", "pathlib", "urllib.parse", "ipaddress"}
    code = f"import commgraph.cli, sys; print(sorted({unwanted!r} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    # The records are NamedTuples: read-only, hashable, and validated by _replace too.
    group = parse_group_spec("Z6")
    cg = graph.build_commuting_graph(group, "all")
    records = [
        group, omega_partition(group), cg, detour.detour_profile(cg),
        resolving.resolving_polynomial_formula(group.n, group.r), DEFAULT_CAPS,
    ]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    assert build_report("Z6")["caps"] == DEFAULT_CAPS._asdict()
    assert {cg: 1}[graph.build_commuting_graph(group, "all")] == 1
    with pytest.raises(GroupSpecError):
        group._replace(moduli=(1,))
    with pytest.raises(graph.GraphShapeError):
        cg._replace(part_labels=())
