"""Replay seeded cohomology inputs through ``cli.main``, each family against
one sha256.

The first family's inputs are P^1-P^3 tables written with ``bench/gen.py``
(which never imports betticone), plus every ``.ct`` fixture:

- chain sums of supernatural tables with fractional multiplicities, up to
  1,500 twists wide;
- dented copies (part of two stacked cells cancelled, chi unchanged);
- tables with chi = 0;
- chain sums written on a window cut inside their staircase.

Each runs under ``coh-decompose`` with and without ``--integral`` and
``--check-oracle``, ``member`` and ``validate``.

The second family's inputs are ``ext-polytope`` pairs (A, B): line bundles
and sums of supernatural tables on P^1, small P^2 sums written with the
same generators, the ``.ct`` fixture pairs, A or B with an entry past its
window, and an Euler mismatch in A that B's cancels.  Each pair runs in
full mode, with ``--symmetric`` and with ``--symmetric --serre-shift``.

One sha256 over every (argv, stdout, stderr, exit status) of a family pins
its output: a change that means to keep the output byte-identical must
leave ``DIGEST`` and ``EXT_DIGEST`` as they are.
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
EXT_COMMANDS = (["ext-polytope"], ["ext-polytope", "--symmetric"],
                ["ext-polytope", "--symmetric", "--serre-shift", "1"])
EXT_CASES = 23
EXT_DIGEST = "e1342fdb651bb257ef5275f82e0a3500cbfba9e0e89c144399408fd0b36996bb"


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


def _with_entry(table, key, value):
    # table with its cell at key set to value, over its den.
    return gen.CohTable(table.n, table.window, {**table.cells, key: value * table.den},
                        table.chi, table.den)


def _pairs():
    """((A name, A text), (B name, B text)) for every replayed
    ``ext-polytope`` pair, in order."""
    def pair(name, a, b):
        return (f"{name}_a.ct", a.text()), (f"{name}_b.ct", b.text())
    for k, m, a_window, b_window in ((2, 3, (-6, 4), (-6, 4)), (3, 2, (-7, 5), (-5, 6)),
                                     (4, 1, (-7, 5), (-7, 5)), (1, 4, (-4, 2), (-4, 2))):
        yield pair(f"p1_o{k}_x{m}", gen.line_bundle_p1(-k, m, a_window),
                   gen.line_bundle_p1(k, m, b_window))
    rng = random.Random(38)
    for terms in (1, 2, 3):
        # A's roots lie right of B's, so B's row 0 meets A's row 1
        sums = [gen.supernatural_sum(1, (-6, 6), [
                    (Fraction(rng.randint(1, 6), rng.randint(1, 2)), roots)
                    for roots in gen.root_chain(rng, 1, terms, lo, hi)])
                for lo, hi in ((0, 6), (-6, 0))]
        yield pair(f"p1_sums{terms}", *sums)
    # On P^2, B's row 1 meets A's row 2 where B's roots straddle A's f_2.
    for k, (window, a_terms, b_terms) in enumerate((
            ((-5, 3), [(2, (2, 1))], [(2, (1, -3))]),
            ((-6, 4), [(Fraction(3, 2), (2, 1))], [(1, (1, -4))]),
            ((-5, 3), [(2, (1, 0))], [(2, (1, -4))]),
            ((-6, 4), [(2, (2, 0))], [(2, (1, -4))]))):
        yield pair(f"p2_sum{k}", gen.supernatural_sum(2, window, a_terms),
                   gen.supernatural_sum(2, window, b_terms))
    rng = random.Random(42)
    chains = gen.root_chain(rng, 2, 2, 0, 4), gen.root_chain(rng, 2, 2, -6, 4)
    yield pair("p2_chains", *(gen.supernatural_sum(2, (-6, 4), [(q, roots) for roots in chain])
                              for q, chain in zip((2, Fraction(3, 2)), chains)))
    for names in (("p1_o_minus2_x5", "p1_o_plus2_x5"),
                  ("p1_o_minus5_narrow", "p1_o_plus5_narrow"),
                  ("p1_split", "p1_tail_guard"), ("p1_corner_a5_b5", "p1_corner_a5_b10"),
                  ("pp2_rank3", "p2_o_plus2"), ("pp2_rank3_part1", "pp2_rank3_part2"),
                  ("p2_structure_sheaf", "p2_o_plus2")):
        yield tuple((f"{name}.ct", (ROOT / "fixtures" / f"{name}.ct").read_text())
                    for name in names)
    a, b = gen.line_bundle_p1(-2, 5, (-6, 4)), gen.line_bundle_p1(2, 5, (-6, 4))
    yield pair("p1_a_past_window", _with_entry(a, (0, 6), 3), b)
    yield pair("p1_b_past_window", a, _with_entry(b, (1, -8), 1))
    # A gains 1 at (0, 2) and B loses it: A + B keeps its Euler identity
    yield pair("p1_euler", _with_entry(a, (0, 2), a.cells[(0, 2)] + 1),
               _with_entry(b, (0, 2), b.cells[(0, 2)] - 1))
    a = gen.supernatural_sum(2, (-5, 3), [(2, (2, 1))])
    yield pair("p2_a_past_window", _with_entry(a, (2, -7), 1),
               gen.supernatural_sum(2, (-5, 3), [(2, (1, -3))]))


def _replay(tmp_path, capsys, inputs, commands):
    """(cases, sha256): the number of inputs, each a list of (file name,
    text) written to tmp_path, and the sha256 over every (argv, stdout,
    stderr, exit status) of each command run on each input's files."""
    digest, cases = hashlib.sha256(), 0
    for files in inputs:
        for name, text in files:
            (tmp_path / name).write_text(text)
        cases += 1
        for command in commands:
            argv = [command[0], *(name for name, _ in files), *command[1:]]
            status = cli.main(argv)
            out, err = capsys.readouterr()
            digest.update(json.dumps([argv, out, err, status]).encode())
    return cases, digest.hexdigest()


def test_seeded_cohomology_inputs_replay_byte_identically(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inputs = ([file] for file in _inputs())
    assert _replay(tmp_path, capsys, inputs, COMMANDS) == (CASES, DIGEST)


def test_seeded_ext_polytope_pairs_replay_byte_identically(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _replay(tmp_path, capsys, _pairs(), EXT_COMMANDS) == (EXT_CASES, EXT_DIGEST)
