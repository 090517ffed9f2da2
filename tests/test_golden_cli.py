"""Replay recorded CLI runs and parses against ``golden_cli.json``.

Every subcommand that reads a table file is run on every fixture it applies
to; exit status, stdout and stderr must match the recording byte for byte.
A list of exchange texts, most of them malformed, pins each parse result:
the canonical serialization, or the ``ParseError`` line and message.

Rewrite the recording (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden_cli.py

which prints one line for each entry it adds or changes: the argv, then
the old and the new exit status and first line of output.
"""

import contextlib
import functools
import io
import json
import os
from pathlib import Path

import pytest

from betticone import ParseError, parse_table, serialize_table
from betticone.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"


def _commands():
    fixtures = sorted(p.name for p in (ROOT / "fixtures").iterdir())
    commands = []
    for name in fixtures:
        for sub in ("validate", "pretty", "member"):
            commands.append([sub, f"fixtures/{name}"])
    for name in fixtures:
        if name.endswith(".bt"):
            commands.append(["decompose", f"fixtures/{name}"])
            commands.append(["decompose", f"fixtures/{name}", "--normalized"])
    for name in fixtures:
        if name.endswith(".ct"):
            for flags in ([], ["--check-oracle"], ["--integral"]):
                commands.append(["coh-decompose", f"fixtures/{name}", *flags])
    for flags in ([], ["--symmetric"]):
        commands.append(["ext-polytope", "fixtures/p1_o_minus2_x5.ct",
                         "fixtures/p1_o_plus2_x5.ct", *flags])
    # A file of the wrong table kind is refused.
    commands += [["decompose", "fixtures/p1_split.ct"],
                 ["coh-decompose", "fixtures/pure_0134.bt"],
                 ["ext-polytope", "fixtures/pure_0134.bt", "fixtures/p1_split.ct"]]
    # A pair whose corners lie past its window edge, decided on the widened
    # table; the full mode prints 14,400 candidate lines, so the symmetric
    # mode stands for it.
    commands.append(["ext-polytope", "fixtures/p1_o_minus5_narrow.ct",
                     "fixtures/p1_o_plus5_narrow.ct", "--symmetric"])
    # A symmetric pair whose orbit {(0,-2), (0,0)} has caps 12 and 5: a row
    # at the shared value 5 binds (0,0) alone; (0,-4) and (0,-3) are forced
    # to zero.
    commands.append(["ext-polytope", "fixtures/p1_split.ct",
                     "fixtures/p1_corner_past_window.ct", "--symmetric"])
    # A P^2 pair with a nonempty candidate box, decided by the greedy.
    for flags in ([], ["--symmetric"]):
        commands.append(["ext-polytope", "fixtures/pp2_rank3.ct", "fixtures/p2_o_plus2.ct",
                         *flags])
    # Commands with inline arguments, some integers with signs or leading zeros.
    commands += [["stillman", "-e", "2", "-r", "3", "--p-max", "2"],
                 ["stillman", "-e", "2", "-r", "3", "--p-max", "2", "--tsv"],
                 ["supernatural", "-n", "2", "-f", "0,-3", "--pretty"],
                 ["supernatural", "-n", "02", "-f", "-0,-3", "--window", "-007,2"],
                 ["supernatural", "-n", "2", "-f", "0,-3", "--window", "-6,3"],
                 ["pure", "-d", "1:[1,3,4]", "--vars", "3"],
                 ["pure", "-d", "-3,-1,0", "--vars", "2", "--integral"],
                 ["ext-polytope", "fixtures/p1_o_minus2_x5.ct", "fixtures/p1_o_plus2_x5.ct",
                  "--symmetric", "--serre-shift", "-0", "--max-points", "0400"],
                 ["ext-polytope", "fixtures/p1_o_minus2_x5.ct", "fixtures/p1_o_plus2_x5.ct",
                  "--max-points", "007"]]
    # Refusals: tables over different P^n, and malformed inline arguments.
    commands += [["ext-polytope", "fixtures/p1_split.ct", "fixtures/p2_structure_sheaf.ct"],
                 ["supernatural", "-n", "2", "-f", "1"],
                 ["supernatural", "-n", "2", "-f", "0,-3", "--window", "1"],
                 ["supernatural", "-n", "2", "-f", "0,-3", "--window", "1,2,3"]]
    # Help, before or after the subcommand, and the grammar's refusals: no
    # command, an unknown command or option, a missing value or required
    # option, an extra positional, an abbreviation, "--", and a value that
    # starts with "-" without being a number (taken as the value).
    commands += [["--help"], ["-h"]]
    commands += [[sub, "--help"] for sub in ("pure", "decompose", "member", "supernatural",
                                             "coh-decompose", "stillman", "ext-polytope",
                                             "pretty", "validate")]
    commands += [["stillman", "-e", "2", "-h"], [], ["frobnicate"],
                 ["decompose", "fixtures/xy2.bt", "--frobnicate"],
                 ["pure", "--vars", "1", "-d"], ["pure", "-d", "0,1"],
                 ["member", "fixtures/xy2.bt", "fixtures/noncm.bt"],
                 ["decompose", "fixtures/xy2.bt", "--norm"],
                 ["decompose", "--", "fixtures/xy2.bt"],
                 ["supernatural", "-n", "1", "-f", "0", "-m", "-x"]]
    return commands


B = "betti-table v1\n"
C = "coh-table v1\n"
COH = C + "n 1\nwindow 0 1\nchi 1 1\n"

# Exchange texts for the parser, in the grammar and out of it.
TEXTS = [
    "", "# only a comment\n\n", "wat v1\n", "betti-table v2\n",
    "betti-table   v1\nvars 2\n", "\ufeffbetti-table v1\nvars 2\n",
    B, B + "vars 2\nvars 3\n", B + "vars 2\nvars x\n", B + "vars\nvars 2\n",
    B + "vars 2 3\n", B + "vars\n", B + "vars x\n", B + "vars 0\n", B + "vars -3\n",
    B + "vars 007\n", B + "vars -0\n", B + "entry 0 0 1\n",
    B + "entry 0 0 1\nvars 0\n", B + "vars 2\nentry 0 0\n",
    B + "vars 2\nentry 0 0 1 2\n", B + "vars 2\nentry a 0 1\n",
    B + "vars 2\nentry 0 b 1\n", B + "vars 2\nentry 0 0 x\n",
    B + "vars 2\nentry 0 0 1\nentry 0 0 1\n", B + "vars 2\nentry 0 0 1\nentry 0 0 x\n",
    B + "vars 2\nentry 0 0 0\nentry -1 -2 -3/6\n", B + "vars 2\nwindow 0 1\n",
    B + "vars 2\nn 1\n", B + "vars 2\nchi 1\n", B + B, B + "vars 2\nVARS 2\n",
    B + "vars 2\r\nentry 0 0 1\r\n", B + "  vars\t2  \n\n  # note\nentry 1 2 3\n",
    B + "vars 2\nentry 0 0 1/0\n", B + "vars 2\nentry 0 0 1.5\n",
    B + "vars 2\nentry 0 0 1e3\n",
    C, C + "window 0 1\nchi 1 1\n", C + "n 1\nchi 1 1\n", C + "n 1\nwindow 0 1\n",
    C + "chi 1 1\n", C + "n 1\nn 1\n", C + "n 1\nwindow 0 1\nwindow 0 1\n",
    C + "n 1\nwindow 0 1\nchi 1 1\nchi 1 1\n", C + "n 1\nwindow 0 1\nchi 1 1\nchi x\n",
    C + "n\n", C + "n 1 2\n", C + "n x\n", C + "window 0\n", C + "window 0 1 2\n",
    C + "window 0 x\n", C + "window x 0\n", C + "n 1\nwindow 1 0\nchi 1 1\n",
    C + "n 2\nwindow 0 1\nchi 1 2\n", C + "n 1\nwindow 0 1\nchi\n",
    C + "n 0\nwindow 0 1\nchi\n", C + "n 0\nwindow 0 1\nchi 1\n",
    C + "n -1\nwindow 0 1\nchi\n", C + "n 1\nwindow 0 1\nchi 1 x\n",
    C + "n 1\nwindow 0 1\nchi 1 1/0\n", C + "chi 1 2 3\nn 1\nwindow 0 1\n",
    C + "entry 0 0 1\nn 1\nwindow 0 1\nchi 1 1\n", COH + "vars 2\n",
    COH + "entry 0 0\n", COH + "entry 0 0 1\nentry 0 0 2\n", COH + "entry 0 x 1\n",
    COH + "entry 0 0 -0\nentry 1 5 7/3\nentry 9 -4 -2/4\n", COH + C,
    C + "n 2\nwindow -3 3\nchi 1 3/2 1/2\nentry 0 0 1\nentry 2 -3 1\n",
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _parse(text):
    try:
        return {"text": text, "table": serialize_table(parse_table(text))}
    except ParseError as exc:
        return {"text": text, "error": str(exc)}


@functools.cache
def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(_commands())),
                         ids=[" ".join(argv) for argv in _commands()])
def test_cli_output_matches_the_recording(index, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = _load()["commands"][index]
    assert _run(expected["argv"]) == expected


def test_the_recording_covers_every_command():
    assert [c["argv"] for c in _load()["commands"]] == _commands()
    assert [p["text"] for p in _load()["parses"]] == TEXTS


def test_parse_results_match_the_recording():
    for expected in _load()["parses"]:
        assert _parse(expected["text"]) == expected


def _summary(entry):
    # An entry's exit status and first line of output, stdout first.
    if entry is None:
        return "(none)"
    text = entry.get("stdout") or entry.get("stderr") or entry.get("table") \
        or entry.get("error", "")
    first = text.partition("\n")[0]
    return f"{entry.get('code', '-')} {first!r}"


if __name__ == "__main__":
    os.chdir(ROOT)
    record = {"commands": [_run(argv) for argv in _commands()],
              "parses": [_parse(text) for text in TEXTS]}
    old = _load() if GOLDEN.exists() else {"commands": [], "parses": []}
    for kind, key in (("commands", "argv"), ("parses", "text")):
        before = {json.dumps(e[key]): e for e in old[kind]}
        after = {json.dumps(e[key]): e for e in record[kind]}
        for name in [*after, *(name for name in before if name not in after)]:
            if before.get(name) != after.get(name):
                print(f"{' '.join(json.loads(name)) if kind == 'commands' else name}: "
                      f"{_summary(before.get(name))} -> {_summary(after.get(name))}")
    GOLDEN.write_text(json.dumps(record, indent=1, ensure_ascii=True) + "\n",
                      encoding="utf-8")
