"""Replay seeded cohomology inputs through ``cli.main`` against one sha256.

The inputs are P^1-P^3 tables written with ``bench/gen.py`` (which never
imports betticone), plus every ``.ct`` fixture:

- chain sums of supernatural tables with fractional multiplicities, up to
  1,500 twists wide;
- dented copies (part of two stacked cells cancelled, chi unchanged);
- tables with chi = 0;
- chain sums written on a window cut inside their staircase.

Each runs under ``coh-decompose`` with and without ``--integral`` and
``--check-oracle``, ``member`` and ``validate``.  One sha256 over every
(argv, stdout, stderr, exit status) pins the output: a change that means
to keep the output byte-identical must leave ``DIGEST`` as it is.
"""

import hashlib
import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

from betticone import cli

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

COMMANDS = (["coh-decompose"], ["coh-decompose", "--integral"],
            ["coh-decompose", "--check-oracle"],
            ["coh-decompose", "--integral", "--check-oracle"], ["member"], ["validate"])
CASES = 61
DIGEST = "1f521343ccfc182494736650fc9d77e58cda156ecbe13d9be471b460260a5872"


def _dent(table, rng):
    # Cancel part of the smaller of two stacked cells (i, j), (i + 1, j) from
    # both, as gen.cancel_p1 does on P^1: the alternating sum keeps chi.
    stacked = sorted((i, j) for i, j in table.cells if (i + 1, j) in table.cells)
    i, j = rng.choice(stacked)
    c = Fraction(min(table.cells[(i, j)], table.cells[(i + 1, j)]), 2 * table.den)
    if table.n == 1:
        return gen.cancel_p1(table, j, c)
    cells = dict(table.cells)
    for key in ((i, j), (i + 1, j)):
        cells[key] -= c * table.den
    return gen.CohTable(table.n, table.window, cells, table.chi, table.den)


def _inputs():
    """(file name, exchange text) for every replayed input, in order."""
    rng = random.Random(2009)
    for n in (1, 2, 3):
        for width, count in ((40, 4), (300, 12), (1500, 30)):
            window = (-width // 2, width - width // 2 - 1)
            chain = gen.root_chain(rng, n, count, *window)
            terms = [(Fraction(rng.randint(1, 9), rng.randint(1, 4)), roots)
                     for roots in chain]
            table = gen.supernatural_sum(n, window, terms)
            yield f"p{n}_w{width}_sum.ct", table.text()
            yield f"p{n}_w{width}_dented.ct", _dent(table, rng).text()
            # inside the staircase: from f_n of the first term to f_1 of the
            # last, then each edge moved in by 1-3 twists
            lo, hi = chain[0][-1], chain[-1][0]
            yield f"p{n}_w{width}_cut.ct", gen.supernatural_sum(n, (lo, hi), terms).text()
            lo += rng.randint(1, 3)
            cut = (lo, max(lo, hi - rng.randint(1, 3)))
            yield f"p{n}_w{width}_cut_in.ct", gen.supernatural_sum(n, cut, terms).text()
        zero = [0] * (n + 1)
        yield f"p{n}_chi0_empty.ct", gen.CohTable(n, (-3, 4), {}, zero, 1).text()
        yield f"p{n}_chi0_stacked.ct", gen.CohTable(
            n, (-3, 4), {(0, 1): 2, (1, 1): 2, (n - 1, -2): 5, (n, -2): 5}, zero, 1).text()
        yield f"p{n}_chi0_mismatch.ct", gen.CohTable(n, (-3, 4), {(0, 2): 1}, zero, 1).text()
    for path in sorted((ROOT / "fixtures").glob("*.ct")):
        yield path.name, path.read_text()


def test_seeded_cohomology_inputs_replay_byte_identically(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digest, cases = hashlib.sha256(), 0
    for name, text in _inputs():
        (tmp_path / name).write_text(text)
        cases += 1
        for command in COMMANDS:
            argv = [command[0], name, *command[1:]]
            status = cli.main(argv)
            out, err = capsys.readouterr()
            digest.update(json.dumps([argv, out, err, status]).encode())
    assert cases == CASES
    assert digest.hexdigest() == DIGEST
