import contextlib
import gc
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

import betticone.betti_decomposition as betti_decomposition
import betticone.cli as cli
import betticone.coh_decomposition as coh_decomposition
import betticone.diagrams as diagrams
import betticone.exchange as exchange
import betticone.extension as extension
import betticone.tables as tables
from betticone import (CohomologyTable, DegreeSequence, decompose, line_bundle_table,
                       parse_table, serialize_table, validate)
from betticone.cli import main
from betticone.errors import NotInCone, ParseError
from betticone.supernatural import CohDecomposition
from helpers import chain_combination, random_chain, reference_parse

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pure_integral(capsys):
    code, out, _ = run_cli(capsys, "pure", "-d", "0,2,3,4", "--vars", "3",
                           "--integral")
    assert code == 0
    assert out == "diagram window=0 degrees=0,2,3,4 values=1,6,8,3\n"


def test_pure_normalized_default(capsys):
    code, out, _ = run_cli(capsys, "pure", "-d", "0,1,3", "--vars", "2")
    assert code == 0
    assert out == "diagram window=0 degrees=0,1,3 values=1,3/2,1/2\n"


def test_pure_shifted_window_syntax(capsys):
    code, out, _ = run_cli(capsys, "pure", "-d", "1:[1,3,4]", "--vars", "2")
    assert code == 0
    assert out.startswith("diagram window=1 degrees=1,3,4")


def test_pure_bad_sequence_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "pure", "-d", "3,3", "--vars", "2")
    assert code == 2
    assert "parse-error" in err


def test_decompose_xy2(capsys):
    code, out, _ = run_cli(capsys, "decompose", str(FIXTURES / "xy2.bt"))
    assert code == 0
    assert out == ("term 1/3 window=0 degrees=0,1,3 values=2,3,1\n"
                   "term 1/3 window=0 degrees=0,2,3 values=1,3,2\n")


def test_decompose_complex_fixture(capsys):
    code, out, _ = run_cli(capsys, "decompose",
                           str(FIXTURES / "complex_two_windows.bt"))
    assert code == 0
    assert out == ("term 1/2 window=0 degrees=0,1,3 values=2,3,1\n"
                   "term 1/2 window=1 degrees=1,3,4 values=1,3,2\n")


def test_decompose_empty_table(tmp_path, capsys):
    path = tmp_path / "zero.bt"
    path.write_text("betti-table v1\nvars 2\n")
    code, out, _ = run_cli(capsys, "decompose", str(path))
    assert code == 0
    assert out == ""


def test_decompose_not_in_cone(tmp_path, capsys):
    path = tmp_path / "bad.bt"
    path.write_text("betti-table v1\nvars 2\nentry 0 0 1\nentry 1 0 1\n")
    code, _, err = run_cli(capsys, "decompose", str(path))
    assert code == 1
    assert err.startswith("strand-not-increasing:")


def test_member_yes_and_no(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "member", str(FIXTURES / "noncm.bt"))
    assert (code, out) == (0, "in-cone yes\n")
    bad = tmp_path / "bad.bt"
    bad.write_text("betti-table v1\nvars 2\nentry 0 0 1\nentry 1 0 1\n")
    code, out, _ = run_cli(capsys, "member", str(bad))
    assert (code, out) == (0, "in-cone no\n")
    code, out, _ = run_cli(capsys, "member", str(FIXTURES / "pp2_rank3.ct"))
    assert (code, out) == (0, "in-cone yes\n")


def test_supernatural_exchange_output(capsys):
    code, out, _ = run_cli(capsys, "supernatural", "-n", "2", "-f", "0,-3",
                           "-m", "3", "--window", "-6,3")
    assert code == 0
    assert "chi 0 9/2 3/2" in out
    assert "entry 1 -2 3" in out
    parsed_lines = out.splitlines()
    assert parsed_lines[0] == "coh-table v1"


def test_supernatural_window_too_small(capsys):
    code, _, err = run_cli(capsys, "supernatural", "-n", "2", "-f", "0,-3",
                           "--window", "-2,3")
    assert code == 1
    assert err.startswith("window-too-small:")


def test_coh_decompose_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "coh-decompose", str(FIXTURES / "p1_split.ct"),
                           "--check-oracle")
    assert code == 0
    assert out == "term 5 roots=-3\nterm 5 roots=1\n"


def test_tail_guard_fixture(capsys):
    path = str(FIXTURES / "p1_tail_guard.ct")
    assert run_cli(capsys, "member", path) == (0, "in-cone no\n", "")
    assert run_cli(capsys, "coh-decompose", path) == (
        1, "", "not-in-cone: step 2: table vanishes at (0, 4) inside the staircase of 0\n")


def test_coh_decompose_rank3(capsys):
    code, out, _ = run_cli(capsys, "coh-decompose", str(FIXTURES / "pp2_rank3.ct"))
    assert code == 0
    assert out == "term 1 roots=0,-3\nterm 2 roots=0,-2\n"


def test_coh_decompose_integral_presentation(capsys):
    code, out, _ = run_cli(capsys, "coh-decompose", str(FIXTURES / "pp2_rank3.ct"),
                           "--integral")
    assert code == 0
    assert out == ("term 1 roots=0,-3 multiple=1\n"
                   "term 1 roots=0,-2 multiple=2\n")


def test_stillman_tsv(capsys):
    code, out, _ = run_cli(capsys, "stillman", "-e", "2", "-r", "3",
                           "--p-max", "2", "--tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p\tdegrees\tvalues\tintegral\tcodim\tobstruction"
    assert lines[1] == "0\t0,2,4,6\t1,3,3,1\tY\t3\tinconclusive"
    assert lines[3].startswith("2\t0,2,8,10,12,14,16,18\t1,3,42,126,168,120,45,7")


def test_ext_polytope_symmetric(capsys):
    code, out, _ = run_cli(capsys, "ext-polytope",
                           str(FIXTURES / "p1_o_minus2_x5.ct"),
                           str(FIXTURES / "p1_o_plus2_x5.ct"), "--symmetric")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# support (0,-2) (0,-1) (0,0)"
    assert lines[1] == "pattern\tfeasible\tbinding"
    feasible = [l for l in lines if l.endswith("\tY") or "\tY\t" in l]
    assert len(feasible) == 21
    assert lines[-3:] == ["vertex\t0,0,0", "vertex\t5,5,5", "vertex\t5,10,5"]
    assert "0,0,0\tY\t-" in lines
    assert any(l.startswith("5,10,5\tY") for l in lines)
    assert any(l.startswith("5,0,5\tN") for l in lines)


def test_ext_polytope_budget(capsys):
    code, _, err = run_cli(capsys, "ext-polytope",
                           str(FIXTURES / "p1_o_minus2_x5.ct"),
                           str(FIXTURES / "p1_o_plus2_x5.ct"),
                           "--max-points", "5")
    assert code == 1
    assert err.startswith("budget-exceeded:")


def test_pretty_betti(capsys):
    code, out, _ = run_cli(capsys, "pretty", str(FIXTURES / "xy2.bt"))
    assert code == 0
    assert out == "    0  1  2\n0:  1  1  -\n1:  -  1  1\n"


def test_pretty_parse_error_has_line_number(tmp_path, capsys):
    path = tmp_path / "broken.ct"
    path.write_text("coh-table v1\nn 1\nwindow 0\nchi 1 1\n")
    code, _, err = run_cli(capsys, "pretty", str(path))
    assert code == 2
    assert "line 3" in err


def test_huge_exponent_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.ct"
    path.write_text("coh-table v1\nn 1\nwindow 0 1\nchi 1 1\nentry 0 0 1e5000\n")
    code, out, err = run_cli(capsys, "pretty", str(path))
    assert (code, out) == (2, "")
    assert err == "parse-error: line 5: bad rational '1e5000'\n"


def test_multiplicity_uses_the_rational_grammar(capsys):
    code, _, err = run_cli(capsys, "supernatural", "-n", "1", "-f", "0", "-m", "1.5")
    assert code == 2
    assert err == "parse-error: line 0: bad rational '1.5'\n"
    code, out, _ = run_cli(capsys, "supernatural", "-n", "1", "-f", "0", "-m", "3/2")
    assert code == 0 and "chi 0 3/2\n" in out


def test_negative_strand_is_an_invalid_table(tmp_path, capsys):
    path = tmp_path / "neg.bt"
    path.write_text("betti-table v1\nvars 1\nentry 0 0 -1\nentry 1 1 -1\n")
    for command in ("member", "decompose"):
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err == ("invalid-table: entry (0, 0) = -1 is not positive; "
                       "entry (1, 1) = -1 is not positive\n")


def test_validate_pass_and_fail(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "validate", str(FIXTURES / "p2_structure_sheaf.ct"))
    assert (code, out) == (0, "valid\n")
    bad = tmp_path / "bad.ct"
    bad.write_text("coh-table v1\nn 1\nwindow 0 1\nchi 1 0\nentry 0 0 2\n")
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert out.startswith("violation: Euler mismatch")


def test_missing_file_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "validate", "no-such-file.bt")
    assert code == 2
    assert "parse-error" in err


def test_unknown_flag_is_exit_2(capsys):
    assert run_cli(capsys, "decompose", "--frobnicate", "x")[0] == 2


def test_nonpositive_multiplicity_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "supernatural", "-n", "1", "-f", "0", "-m", "0")
    assert code == 2
    assert "usage-error" in err


def test_cli_runs_as_module():
    result = subprocess.run(
        [sys.executable, "-m", "betticone", "decompose", str(FIXTURES / "noncm.bt")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == ("term 1/3 window=0 degrees=0,2,3,4 values=1,6,8,3\n"
                             "term 2/3 window=0 degrees=0,2,3 values=1,3,2\n")


@pytest.mark.parametrize("argv", [["stillman", "-e", "2", "-r", "3", "--p-max", "5"],
                                  ["--help"],
                                  # 259 KB: the closed pipe shows inside the row loop
                                  ["ext-polytope", str(FIXTURES / "p1_o_minus5_narrow.ct"),
                                   str(FIXTURES / "p1_o_plus5_narrow.ct")]])
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_exits_with_the_sigpipe_status_and_no_traceback(argv, unbuffered):
    # buffered, the closed reader shows at the final flush; unbuffered, at
    # the first print
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "betticone", *argv],
                                stdout=write_end, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, b"")


def test_deterministic_output(capsys):
    commands = [
        ("pure", "-d", "0,2,3,4", "--vars", "3", "--integral"),
        ("decompose", str(FIXTURES / "xy2.bt")),
        ("coh-decompose", str(FIXTURES / "pp2_rank3.ct")),
        ("supernatural", "-n", "2", "-f", "0,-3", "-m", "3", "--window", "-6,3"),
        ("stillman", "-e", "2", "-r", "3", "--p-max", "3", "--tsv"),
        ("pretty", str(FIXTURES / "p1_split.ct")),
    ]
    for argv in commands:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        assert first[0] == 0


def _ext_polytope_files(tmp_path, **tables):
    paths = []
    for name, table in tables.items():
        path = tmp_path / f"{name}.ct"
        path.write_text(serialize_table(table))
        paths.append(str(path))
    return paths


def test_ext_polytope_prints_nothing_for_an_invalid_table(tmp_path, capsys):
    paths = _ext_polytope_files(tmp_path, a=CohomologyTable(1, (-3, 3), {(0, 0): 1}, [1, 1]),
                                b=line_bundle_table(1, 5, (-3, 3)))
    code, out, err = run_cli(capsys, "ext-polytope", *paths)
    assert (code, out) == (1, "")
    assert err.startswith("invalid-table: ")


_SPLIT = (FIXTURES / "p1_split.ct").read_text()
_NONPOSITIVE_A = """coh-table v1
n 1
window -3 3
chi 2 1
entry 0 -1 1
entry 0 0 -1
entry 1 0 -3
entry 0 1 3
entry 0 2 4
entry 0 3 5
entry 1 -3 1
"""


@pytest.mark.parametrize("a_text, flags, message", [
    (_NONPOSITIVE_A, ["--symmetric"],
     "A: entry (0, 0) = -1 is not positive; A: entry (1, 0) = -3 is not positive"),
    (_SPLIT + "entry 5 0 7\n", [], "A: entry (5, 0) lies outside rows 0..1"),
    (_SPLIT + "entry 0 40 3\n", [], "A: entry (0, 40) lies outside the window [-6, 4]"),
], ids=["non-positive", "past-the-rows", "past-the-window"])
def test_ext_polytope_refuses_an_entry_its_bounds_would_drop(tmp_path, capsys, a_text,
                                                             flags, message):
    # Each exited 0 while only the split table was validated: the rank
    # bounds read A through its cells, which drop an entry outside the rows
    # or the window, and the other table's entries mask a non-positive one.
    path = tmp_path / "a.ct"
    path.write_text(a_text)
    code, out, err = run_cli(capsys, "ext-polytope", str(path),
                             str(FIXTURES / "p1_split.ct"), *flags)
    assert (code, out, err) == (1, "", f"invalid-table: {message}\n")


_RANK3 = (FIXTURES / "pp2_rank3.ct").read_text()


@pytest.mark.parametrize("a, b, flags, message", [
    (parse_table(_SPLIT.replace("entry 0 0 15", "entry 0 0 16")),
     parse_table(_SPLIT.replace("entry 0 0 15", "entry 0 0 14")), flags,
     "A: Euler mismatch at j = 0: alternating sum 11 != chi 10; "
     "B: Euler mismatch at j = 0: alternating sum 9 != chi 10")
    for flags in ([], ["--symmetric"])
] + [
    (parse_table(_RANK3.replace("entry 0 3 24", "entry 0 3 25") + "entry 1 3 1\n"),
     line_bundle_table(2, 2, (-5, 5)), [],
     "A: interior row 1 touches the window edge at j = 3"),
], ids=["euler-full", "euler-symmetric", "interior-edge"])
def test_ext_polytope_refuses_a_table_that_breaks_its_own_window(tmp_path, capsys, a, b,
                                                                 flags, message):
    # Each exited 0 while only A + B was checked beyond the entries: the two
    # Euler mismatches cancel in the split table, and j = 3 is an interior
    # twist of the split table's window [-5, 5] though A's own edge.
    paths = _ext_polytope_files(tmp_path, a=a, b=b)
    code, out, err = run_cli(capsys, "ext-polytope", *paths, *flags)
    assert (code, out, err) == (1, "", f"invalid-table: {message}\n")


def test_ext_polytope_enumerates_and_validates_once(monkeypatch, capsys):
    calls = dict.fromkeys(["enumerate_patterns", "add_tables", "validate",
                           "cancellation_bounds", "_pattern"], 0)
    for module in (extension, cli, coh_decomposition):
        for name in calls:
            if hasattr(module, name):
                def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    code, out, _ = run_cli(capsys, "ext-polytope", str(FIXTURES / "p1_o_minus2_x5.ct"),
                           str(FIXTURES / "p1_o_plus2_x5.ct"))
    assert code == 0 and out.count("\tY\t") == 55
    # The candidates are enumerated at most once: decide_patterns draws them
    # from a lazy stream, not from enumerate_patterns' list.  The box is read
    # once, and the rank vectors are printed without a pattern dict.
    bounds_calls = calls.pop("cancellation_bounds")
    assert calls.pop("enumerate_patterns") <= 1
    assert calls == {"add_tables": 1, "validate": 1, "_pattern": 0}
    assert bounds_calls == 1


def test_ext_polytope_builds_no_candidate_table(monkeypatch, capsys):
    # The CLI prints each row from its verdict: no copy of the split table,
    # no cancelled copy and no table.  feasible_set, which returns the
    # tables, cancels each of the 55 in the cone on the split table's Rows.
    paths = [str(FIXTURES / name) for name in ("p1_o_minus2_x5.ct", "p1_o_plus2_x5.ct")]
    a, b = map(cli._load, paths)
    assert not hasattr(tables.Numerators, "copy")
    calls = dict.fromkeys(["copy", "table", "_cancel"], 0)
    for owner, name in ((tables.Rows, "copy"), (tables.Rows, "table"),
                        (extension, "_cancel")):
        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)
    code, out, _ = run_cli(capsys, "ext-polytope", *paths)
    assert code == 0 and out.count("\tY\t") == 55
    assert calls == {"copy": 0, "table": 0, "_cancel": 0}
    calls.update(dict.fromkeys(calls, 0))
    assert len(extension.feasible_set(a, b)) == 55
    assert calls == {"copy": 55, "table": 55, "_cancel": 55}


def test_ext_polytope_prints_each_row_as_it_is_decided(monkeypatch):
    # Before the P^1 walk yields its last row, the CLI has written its
    # header and every row before it.
    walk = extension._p1_walk
    out = io.StringIO()
    written = []

    def watched(*args):
        rows = list(walk(*args))
        for k, row in enumerate(rows, 1):
            if k == len(rows):
                written.append(out.getvalue().splitlines())
            yield row
    monkeypatch.setattr(extension, "_p1_walk", watched)
    paths = [str(FIXTURES / name) for name in ("p1_o_minus2_x5.ct", "p1_o_plus2_x5.ct")]
    with contextlib.redirect_stdout(out):
        assert main(["ext-polytope", *paths]) == 0
    [before] = written
    lines = out.getvalue().splitlines()
    assert lines[1] == "pattern\tfeasible\tbinding"
    assert sum(not line.startswith("vertex\t") for line in lines) == 2 + 396
    assert before == lines[:2 + 395]


def test_a_serre_shift_without_symmetric_is_a_usage_error(capsys):
    paths = [str(FIXTURES / name) for name in ("p1_o_minus2_x5.ct", "p1_o_plus2_x5.ct")]
    assert run_cli(capsys, "ext-polytope", *paths, "--serre-shift", "3") == (
        2, "", "usage-error: serre_shift 3 needs mode 'serre-symmetric'\n")
    code, out, _ = run_cli(capsys, "ext-polytope", *paths, "--serre-shift", "-0")
    assert (code, out) == run_cli(capsys, "ext-polytope", *paths)[:2]


def test_outer_row_past_the_window_is_decided(capsys):
    # 4 sigma(-5) on the window [-6, -5]: row 0 starts right of the window,
    # and the greedy reads its corner off the widened table's tail cells
    path = str(FIXTURES / "p1_corner_past_window.ct")
    assert run_cli(capsys, "member", path) == (0, "in-cone yes\n", "")
    for flags in ([], ["--check-oracle"]):
        assert run_cli(capsys, "coh-decompose", path, *flags) == (
            0, "term 4 roots=-5\n", "")
    assert run_cli(capsys, "coh-decompose", path, "--integral") == (
        0, "term 4 roots=-5 multiple=1\n", "")


def test_an_integral_multiple_reads_the_staircase_past_the_window(tmp_path, capsys):
    # sigma_0 seen on the window [0, 0] alone, where it has no cell: its
    # multiple is read off its roots, at the twists 1 and 2 past the window
    path = tmp_path / "sigma0.ct"
    path.write_text("coh-table v1\nn 1\nwindow 0 0\nchi 0 1\n")
    assert run_cli(capsys, "coh-decompose", str(path)) == (0, "term 1 roots=0\n", "")
    assert run_cli(capsys, "coh-decompose", str(path), "--integral") == (
        0, "term 1 roots=0 multiple=1\n", "")


def test_check_oracle_flags_an_oracle_no_against_a_greedy_yes(monkeypatch, capsys):
    def rejects(wide):
        raise NotInCone(0, "stub")
    monkeypatch.setattr(cli, "_p1_oracle", rejects)
    code, out, err = run_cli(capsys, "coh-decompose", str(FIXTURES / "p1_split.ct"),
                             "--check-oracle")
    assert (code, out) == (1, "")
    assert err == "oracle-mismatch: oracle and greedy decomposition disagree\n"


def test_check_oracle_flags_an_oracle_yes_against_a_greedy_no(monkeypatch, capsys):
    path = str(FIXTURES / "p1_tail_guard.ct")
    monkeypatch.setattr(cli, "_p1_oracle", lambda wide: CohDecomposition(()))
    code, out, err = run_cli(capsys, "coh-decompose", path, "--check-oracle")
    assert (code, out) == (1, "")
    assert err == "oracle-mismatch: the oracle decomposes a table the greedy rejects\n"
    monkeypatch.undo()
    assert run_cli(capsys, "coh-decompose", path, "--check-oracle") == run_cli(
        capsys, "coh-decompose", path)


@pytest.mark.parametrize("name", ["p1_split.ct", "p1_tail_guard.ct"])
def test_check_oracle_validates_once(monkeypatch, capsys, name):
    path = str(FIXTURES / name)
    expected = run_cli(capsys, "coh-decompose", path, "--check-oracle")
    calls = []

    def counted(table):
        calls.append(table)
        return validate(table)
    for module in (cli, coh_decomposition):
        monkeypatch.setattr(module, "validate", counted)
    assert run_cli(capsys, "coh-decompose", path, "--check-oracle") == expected
    assert len(calls) == 1


def test_a_byte_order_mark_before_the_header_is_read(tmp_path, capsys):
    path = tmp_path / "bom.bt"
    path.write_text("\ufeff" + (FIXTURES / "xy2.bt").read_text(encoding="utf-8"),
                    encoding="utf-8")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run_cli(capsys, "validate", str(path)) == (0, "valid\n", "")
    assert run_cli(capsys, "member", str(path)) == (0, "in-cone yes\n", "")


def test_a_table_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.bt"
    text = (FIXTURES / "xy2.bt").read_bytes()
    path.write_bytes(text[:20] + b"\xff" + text[20:])
    assert run_cli(capsys, "validate", str(path)) == (
        2, "", f"parse-error: line 0: cannot decode {path}: not UTF-8 (invalid start byte)\n")


@pytest.mark.parametrize("token", ["1_0", "+2", "\u0662", "0x1", "1.0"])
@pytest.mark.parametrize("argv", [
    ["pure", "-d", "0,1", "--vars", "{}"],
    ["pure", "-d", "0,{}", "--vars", "2"],
    ["supernatural", "-n", "1", "-f", "{}"],
    ["supernatural", "-n", "1", "-f", "0", "--window", "-6,{}"],
], ids=["--vars", "-d", "-f", "--window"])
def test_inline_integers_follow_the_exchange_grammar(capsys, argv, token):
    # int() would take each of these tokens; the exchange grammar takes none
    argv = [arg.format(token) for arg in argv]
    assert run_cli(capsys, *argv) == (2, "", f"parse-error: line 0: bad integer {token!r}\n")


@pytest.mark.parametrize("argv, err", [
    (["-e", "0", "-r", "1", "--p-max", "-1"], "e must be >= 1, got 0"),
    (["-e", "2", "-r", "3", "--p-max", "-1"], "p must be >= 0, got -1"),
    (["-e", "2", "-r", "3", "--p-max", "-1", "--tsv"], "p must be >= 0, got -1"),
])
def test_stillman_refuses_bad_parameters_with_a_negative_p_max(capsys, argv, err):
    assert run_cli(capsys, "stillman", *argv) == (2, "", f"usage-error: {err}\n")


def test_a_reversed_window_is_a_parse_error(capsys, tmp_path):
    # The same text as for a table file whose window is reversed.
    expected = (2, "", "parse-error: line 0: empty window (3, -6)\n")
    assert run_cli(capsys, "supernatural", "-n", "2", "-f", "0,-3",
                   "--window", "3,-6") == expected
    path = tmp_path / "reversed.ct"
    path.write_text("coh-table v1\nn 2\nwindow 3 -6\nchi 0 0 0\n")
    assert run_cli(capsys, "validate", str(path)) == expected


def test_check_oracle_converts_the_table_once(monkeypatch, capsys):
    builds = []
    original = tables.Numerators.__init__

    def counted(self, t):
        builds.append(t)
        original(self, t)
    monkeypatch.setattr(tables.Numerators, "__init__", counted)
    assert run_cli(capsys, "coh-decompose", str(FIXTURES / "p1_split.ct"),
                   "--check-oracle") == (0, "term 5 roots=-3\nterm 5 roots=1\n", "")
    assert len(builds) == 1


_INTEGER = st.builds(lambda sign, zeros, n: sign + "0" * zeros + str(n),
                     st.sampled_from(["", "-"]), st.integers(0, 2), st.integers(0, 99))
# A value of a string option: an integer list, maybe in the k:[...] form, or
# a token that starts with "-" without being a number.
_TEXT = st.one_of(st.lists(_INTEGER, min_size=1, max_size=3).map(",".join),
                  st.builds("{}:[{}]".format, _INTEGER, _INTEGER),
                  st.sampled_from(["3/2", "-x", "-1,-2"]))


@st.composite
def _argv(draw):
    """An argv for a random subcommand in shuffled order and mixed forms,
    sometimes with one fault; and whether some value token starts with "-"
    without being a number."""
    command = draw(st.sampled_from(sorted(cli._GRAMMAR)))
    groups, dash_value = [], False
    for names, dest, kind, default, _ in cli._GRAMMAR[command][2]:
        if default is not ... and draw(st.booleans()):
            continue
        if names[0] != "-":
            groups.append([draw(st.sampled_from(["fixtures/xy2.bt", "t.ct"]))])
            continue
        name = draw(st.sampled_from(names.split()))
        if kind is None:
            groups.append([name])
            continue
        value = draw(_INTEGER if kind is cli._int else _TEXT)
        forms = [[name, value], [f"{name}={value}"]]
        if not name.startswith("--"):
            forms.append([name + value])
        groups.append(draw(st.sampled_from(forms)))
        dash_value |= len(groups[-1]) == 2 and value[0] == "-" and not value[1:].isdigit()
    groups = draw(st.permutations(groups))
    fault = draw(st.sampled_from([None] * 4 + ["drop", "unknown", "extra", "no value",
                                               "flag value"]))
    if fault == "drop":
        groups.pop()
    elif fault == "unknown":
        groups.append([draw(st.sampled_from(["--frobnicate", "-z"]))])
    elif fault == "extra":
        groups.append(["extra.bt"])
    elif fault == "no value":
        groups.append([draw(st.sampled_from(["--window", "--max-points", "-n", "-e"]))])
    elif fault == "flag value":
        groups.append(["--integral=1"])
    return [command] + [token for group in groups for token in group], dash_value


def _parsed(parse, argv):
    # The parsed arguments as a dict, or None for a refusal.
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(parse(argv))
    except (SystemExit, ParseError, ValueError):
        return None


@settings(max_examples=400, deadline=None)
@given(_argv())
def test_the_grammar_agrees_with_the_argparse_reference(case):
    argv, dash_value = case
    new, reference = _parsed(cli._parse, argv), _parsed(reference_parse, argv)
    if new is None:
        assert reference is None
    elif reference is not None:
        assert new == reference
    else:  # a value that starts with "-" is taken, where argparse refused it
        assert dash_value


def test_the_argv_strategy_draws_accepted_and_refused_argvs():
    for accepted in (True, False):
        find(_argv(), lambda case: (_parsed(cli._parse, case[0]) is not None) == accepted)


@pytest.mark.parametrize("argv", [["decompose", "fixtures/xy2.bt", "--norm"],
                                  ["decompose", "--", "fixtures/xy2.bt"]])
def test_the_grammar_takes_no_abbreviation_and_no_double_dash(argv):
    assert _parsed(reference_parse, argv) is not None
    assert _parsed(cli._parse, argv) is None


# --- Betti jobs on the reader's int pairs ----------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 48), st.integers(1, 6), st.integers(-2, 2), st.booleans())
def test_decompose_prints_the_library_terms(tmp_path_factory, seed, vars_count, offset,
                                            normalized):
    # Chain combinations with shifted windows, moved by offset homological
    # positions: the CLI's lines are _term_line of the library's terms.
    rng = random.Random(seed)
    seqs = [DegreeSequence(s.start + offset, s.degrees, s.vars)
            for s in random_chain(rng, vars_count, max_terms=8)]
    _, table = chain_combination(rng, seqs)
    path = tmp_path_factory.mktemp("chain") / "t.bt"
    path.write_text(serialize_table(table), encoding="utf-8")
    argv = ["decompose", str(path)] + (["--normalized"] if normalized else [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue() == "".join(
        cli._term_line(coeff, diagram) + "\n"
        for coeff, diagram in decompose(table, normalized=normalized))


def _count_calls(monkeypatch, targets):
    # Wrap each (owner, name) in a counter; the counts, by name.
    calls = {}
    for owner, name in targets:
        calls[name] = 0

        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("argv", [["decompose"], ["decompose", "--normalized"], ["member"]])
def test_betti_jobs_read_the_file_once(monkeypatch, capsys, argv):
    # decompose parses the table and prints the library's terms, one diagram
    # each; member runs the greedy on the reader's pairs and builds neither
    # a table nor a diagram.  Neither builds a Numerators.
    expected = run_cli(capsys, *argv, str(FIXTURES / "chain_v6_120.bt"))
    calls = _count_calls(monkeypatch, [
        (exchange, "parse_table"), (cli, "parse_table"), (diagrams, "_integral"),
        (diagrams, "_normalized"), (betti_decomposition, "_integral"),
        (betti_decomposition, "_normalized"), (tables.Numerators, "__init__")])
    assert run_cli(capsys, *argv, str(FIXTURES / "chain_v6_120.bt")) == expected
    terms = 0 if argv == ["member"] else 120
    assert expected[0] == 0 and len(expected[1].splitlines()) == max(terms, 1)
    assert calls["parse_table"] == (terms > 0)
    assert calls["_integral"] + calls["_normalized"] == terms
    assert calls["__init__"] == 0


@pytest.mark.parametrize("argv", [["member"], ["validate"], ["coh-decompose"],
                                  ["coh-decompose", "--check-oracle"],
                                  ["coh-decompose", "--integral"]])
def test_cohomology_jobs_read_into_one_working_form(monkeypatch, capsys, argv):
    path = str(FIXTURES / "p1_split.ct")
    expected = run_cli(capsys, *argv, path)
    calls = _count_calls(monkeypatch, [(exchange, "parse_table"), (cli, "parse_table"),
                                       (tables.Numerators, "__init__")])
    assert run_cli(capsys, *argv, path) == expected
    assert expected[0] == 0
    assert calls == {"parse_table": 0, "__init__": 1}


@pytest.mark.parametrize("argv", [["decompose"], ["decompose", "--normalized"]])
def test_a_refused_chain_prints_no_term(capsys, argv):
    code, out, err = run_cli(capsys, *argv, str(FIXTURES / "chain_v6_120_dented.bt"))
    assert (code, out) == (1, "")
    assert err.startswith("not-in-cone: step 80:")


# Run as the console script does: main() reads sys.argv.  The atexit hook
# runs after main has returned and reports whether it froze the heap.
ENTRY = ("import atexit, gc, sys\n"
         "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
         "sys.argv = ['betticone'] + sys.argv[1:]\n"
         "from betticone.cli import main\n"
         "sys.exit(main())\n")
PURE = ["pure", "-d", "0,1", "--vars", "1"]


@pytest.mark.parametrize("argv, status, out, err", [
    (PURE, 0, "diagram window=0 degrees=0,1 values=1,1\n", ""),
    (["decompose", "fixtures/chain_v6_120_dented.bt"], 1, "", "not-in-cone: step 80:"),
    (["validate", "no-such-file.bt"], 2, "", "parse-error: "),
])
def test_the_process_entry_freezes_the_heap_on_every_exit(argv, status, out, err):
    result = subprocess.run([sys.executable, "-S", "-c", ENTRY, *argv],
                            capture_output=True, text=True, cwd=FIXTURES.parent)
    assert (result.returncode, result.stdout) == (status, out + "True\n")
    assert result.stderr.startswith(err) and bool(result.stderr) == bool(err)


def _pure_raises(monkeypatch, exc):
    def handler(args):
        raise exc
    monkeypatch.setitem(cli._GRAMMAR, "pure", (handler, *cli._GRAMMAR["pure"][1:]))


@pytest.mark.parametrize("argv, raises, status", [
    (PURE, None, 0),
    (["decompose", str(FIXTURES / "chain_v6_120_dented.bt")], None, 1),
    (["validate", "no-such-file.bt"], None, 2),
    (["decompose", "--frobnicate"], None, 2),
    (PURE, BrokenPipeError, 141),
    (PURE, RuntimeError, None),
])
def test_main_with_an_argv_keeps_a_normal_collector(monkeypatch, argv, raises, status):
    if raises:
        _pure_raises(monkeypatch, raises())
    before = gc.get_freeze_count(), gc.isenabled()
    # a sink with a file descriptor, which the closed-pipe exit redirects
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        if status is None:
            with pytest.raises(raises):
                main(argv)
        else:
            assert main(argv) == status
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_the_process_entry_freezes_when_an_exception_escapes(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["betticone", *PURE])
    _pure_raises(monkeypatch, RuntimeError())
    assert gc.get_freeze_count() == 0
    try:
        with pytest.raises(RuntimeError):
            main()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
