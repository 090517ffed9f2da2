"""Replay seeded inputs through ``cli.main`` and pin every byte it prints.

Four families.  The first three are each pinned by one sha256 over every
(argv, stdout, stderr, exit status), so a change that means to keep the
output byte-identical must leave ``DIGEST``, ``EXT_DIGEST`` and
``BETTI_DIGEST`` as they are.

The cohomology family's inputs are P^1-P^3 tables written with
``bench/gen.py`` (which never imports betticone), plus every ``.ct`` fixture:

- chain sums of supernatural tables with fractional multiplicities, up to
  1,500 twists wide;
- dented copies (part of two stacked cells cancelled, chi unchanged);
- tables with chi = 0;
- chain sums written on a window cut inside their staircase.

Each runs under ``coh-decompose`` with and without ``--integral`` and
``--check-oracle``, ``member`` and ``validate``.

The ext family's inputs are ``ext-polytope`` pairs (A, B): line bundles
and sums of supernatural tables on P^1, small P^2 sums written with the
same generators, the ``.ct`` fixture pairs, A or B with an entry past its
window, and an Euler mismatch in A that B's cancels.  Each pair runs in
full mode, with ``--symmetric`` and with ``--symmetric --serre-shift``.

The Betti family's inputs are seeded chain combinations of pure diagrams
(1-12 variables, up to 300 terms, some moving their window), a copy of each
with one entry cut to a third, a zero table and every ``.bt`` fixture, each
under ``decompose``, ``decompose --normalized`` and ``member``.  Its output
is also checked for meaning with ``bench/check.py``, which shares no code
with the library: every decomposition recomposes its input exactly, with
vanishing moments and in the fan order, and every undented table is a member.

The ci family holds the larger single runs, each checked on its own: the
stdout sha256 and exit status 0 of a 572-term Betti chain, a 1,000-twist
P^3 table, an 800-twist P^1 table and its dented copy and two full-mode
``ext-polytope`` pairs; the stdout and stderr of the dented copy's refusal;
and the exit status 1 and stderr prefix of three refusals.

Run it without pytest, on the bare interpreter, as::

    PYTHONPATH=src python -S tests/test_replay.py

which replays every family and exits 1 on any mismatch.
"""

import hashlib
import importlib.util
import io
import json
import os
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from betticone import cli

ROOT = Path(__file__).resolve().parent.parent


def _bench(name):
    # a module of bench/, loaded from its file
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = sys.modules["gen"] = _bench("gen")  # check.py imports it by name
check = _bench("check")

COMMANDS = (["coh-decompose"], ["coh-decompose", "--integral"],
            ["coh-decompose", "--check-oracle"],
            ["coh-decompose", "--integral", "--check-oracle"], ["member"], ["validate"])
CASES = 61
DIGEST = "1f521343ccfc182494736650fc9d77e58cda156ecbe13d9be471b460260a5872"
EXT_COMMANDS = (["ext-polytope"], ["ext-polytope", "--symmetric"],
                ["ext-polytope", "--symmetric", "--serre-shift", "1"])
EXT_CASES = 23
EXT_DIGEST = "e1342fdb651bb257ef5275f82e0a3500cbfba9e0e89c144399408fd0b36996bb"
BETTI_COMMANDS = (["decompose"], ["decompose", "--normalized"], ["member"])
BETTI_CASES = 23
BETTI_DIGEST = "58ecaac821b3365b70994887bc0deed993e323d5d4881ed034cdbb83f83eb769"


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


def _betti_tables():
    """(file name, vars, entries) for every generated Betti input, in order:
    each chain combination, then a copy with its middle entry cut to a third
    (which the greedy mostly refuses), and last a zero table."""
    rng = random.Random(2008)
    for vars_count, length, shifts in ((1, 3, False), (2, 8, True), (3, 12, False),
                                       (4, 40, True), (6, 120, True), (8, 200, False),
                                       (12, 300, True)):
        entries = gen.betti_combination(rng, gen.betti_chain(rng, vars_count, length, shifts))
        yield f"seeded_v{vars_count}_{length}.bt", vars_count, entries
        key = sorted(entries)[len(entries) // 2]
        yield (f"seeded_v{vars_count}_{length}_dented.bt", vars_count,
               {**entries, key: entries[key] / 3})
    yield "zero_v3.bt", 3, {}


def _betti_inputs(tables):
    """(file name, exchange text) for the generated tables, then every
    ``.bt`` fixture."""
    yield from ((name, gen.betti_text(vars_count, entries))
                for name, vars_count, entries in tables)
    for path in sorted((ROOT / "fixtures").glob("*.bt")):
        yield path.name, path.read_text()


def _capture(argv):
    """(stdout, stderr, exit status) of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    return out.getvalue(), err.getvalue(), status


def _replay(directory, jobs):
    """[argv, stdout, stderr, exit status] of each argv of every (files,
    argvs) job, run in ``directory`` once the job's (file name, text) files
    are written there."""
    records = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for files, argvs in jobs:
            for name, text in files:
                path = Path(name)
                path.parent.mkdir(exist_ok=True)
                path.write_text(text)
            records += ([argv, *_capture(argv)] for argv in argvs)
    finally:
        os.chdir(cwd)
    return records


def _family(directory, inputs, commands):
    """(cases, sha256, records): the number of inputs, each a list of (file
    name, text), and the sha256 over the record of each command run on each
    input's files, named after the subcommand."""
    jobs = ((files, [[command[0], *(name for name, _ in files), *command[1:]]
                     for command in commands]) for files in inputs)
    records = _replay(directory, jobs)
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record).encode())
    return len(records) // len(commands), digest.hexdigest(), records


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _ci_jobs():
    """(files, [(argv, (exit status, what is checked, its pin))]) for each
    ci case, in order.  "stdout" and "stdout+stderr" pin a sha256 of that
    output; "stderr prefix" pins the start of stderr."""
    def fixture(name):
        return f"fixtures/{name}", (ROOT / "fixtures" / name).read_text()

    yield [fixture("chain_v6_120_dented.bt")], [
        (["decompose", "fixtures/chain_v6_120_dented.bt"],
         (1, "stderr prefix", "not-in-cone: step 80:"))]
    # 572 terms over 10 variables: coefficients and values of up to 16 digits
    rng = random.Random(572)
    chain = gen.betti_chain(rng, 10, 572, True)
    yield [("chain_v10_572.bt", gen.betti_text(10, gen.betti_combination(rng, chain)))], [
        (["decompose", "chain_v10_572.bt"],
         (0, "stdout", "3e4039839d4c21a46f736a802fdf0e4f2c1208e9c8b48a9a4c0fe0310e315864")),
        (["decompose", "--normalized", "chain_v10_572.bt"],
         (0, "stdout", "9c65f532f06bcc41c669a22aced75c522093898acb1b44f8abdc7e638acf497f"))]
    # a 12-term P^3 chain with fractional multiplicities, so the greedy's
    # peels rescale the row form as well as subtract on sigma's row
    # segments; with --integral, 9 of its 12 terms print a multiple of 3 or 6
    rng = random.Random(1000)
    window = (-500, 499)
    chain = gen.root_chain(rng, 3, 12, *window)
    terms = [(Fraction(rng.randint(1, 9), rng.randint(1, 4)), roots) for roots in chain]
    yield [("p3_wide_1000.ct", gen.supernatural_sum(3, window, terms).text())], [
        (["coh-decompose", "p3_wide_1000.ct"],
         (0, "stdout", "288d0da222771a98e1916613b452bbfde548bb701cf9f30998558629c1332b9e")),
        (["coh-decompose", "--integral", "p3_wide_1000.ct"],
         (0, "stdout", "bf491626236199d9f67b9963b32143058094d967f5129d03f28cbf0f0a604889")),
        (["member", "p3_wide_1000.ct"],
         (0, "stdout", "f0f5e3131e3bef00f3b3745f36cf903302bcd6e6fd1985eb5de43470d777cfea"))]
    # a 40-term P^1 chain over 800 twists, and a copy with half the smaller
    # cell cancelled from both rows mid-window, which the greedy refuses
    # after 6 peels and the second differences refuse
    rng = random.Random(800)
    window = (-400, 399)
    chain = gen.root_chain(rng, 1, 40, *window)
    terms = [(Fraction(rng.randint(1, 9), rng.randint(1, 4)), roots) for roots in chain]
    table = gen.supernatural_sum(1, window, terms)
    both = sorted(j for i, j in table.cells if i == 0 and (1, j) in table.cells)
    j = both[len(both) // 2]
    half = Fraction(min(table.cells[(0, j)], table.cells[(1, j)]), 2 * table.den)
    yield [("p1_wide_800.ct", table.text()),
           ("p1_wide_800_dented.ct", gen.cancel_p1(table, j, half).text())], [
        (["coh-decompose", "--check-oracle", "p1_wide_800.ct"],
         (0, "stdout", "fcceb157bf346245321db2e256c2cae95016bf73b51083c38a5a91ee73a26386")),
        (["member", "p1_wide_800.ct"],
         (0, "stdout", "f0f5e3131e3bef00f3b3745f36cf903302bcd6e6fd1985eb5de43470d777cfea")),
        (["coh-decompose", "--check-oracle", "p1_wide_800_dented.ct"],
         (1, "stdout+stderr", "f34df8c001c05a092dab29482e18dd75f01375a78bf92f13d998926bc0ce3b62")),
        (["member", "p1_wide_800_dented.ct"],
         (0, "stdout", "3b15c69d84ea743734da057a899882f9d4ab5766372cfc3f2876a92325d0077d"))]
    bad = "coh-table v1\nn 1\nwindow 0 1\nchi 1 1\nentry 0 0 1\nentry 0 1 2\nentry 0 5 3\n"
    yield [("bad.ct", bad), fixture("p1_split.ct")], [
        (["ext-polytope", "bad.ct", "fixtures/p1_split.ct"],
         (1, "stderr prefix", "invalid-table: A: "))]
    # A gains 1 at (0, 0) and B loses it: A + B keeps its Euler identity
    split = fixture("p1_split.ct")[1]
    yield [(name, re.sub(r"(?m)^entry 0 0 15$", f"entry 0 0 {value}", split))
           for name, value in (("euler_a.ct", 16), ("euler_b.ct", 14))], [
        (["ext-polytope", "euler_a.ct", "euler_b.ct"],
         (1, "stderr prefix", "invalid-table: A: Euler mismatch at j = 0"))]
    # 14,400 full-mode candidates, 14,406 lines; the golden file keeps only
    # --symmetric
    yield [fixture("p1_o_minus5_narrow.ct"), fixture("p1_o_plus5_narrow.ct")], [
        (["ext-polytope", "fixtures/p1_o_minus5_narrow.ct", "fixtures/p1_o_plus5_narrow.ct"],
         (0, "stdout", "7a9f4314c543999055b096dc9a2324cd2cc1384ef59a20040689c59ab0148f5d"))]
    # A = 2 sigma(2, 1) and B = 2 sigma(1, -5) on [-7, 5], written by the
    # CLI: 11,340 full-mode candidates, 11,359 lines.  The greedy decides
    # them in 11,978 peels, 11,108 of which bring a new denominator and
    # rescale the row form before subtracting on sigma's row segments.
    yield [(name, _capture(["supernatural", "-n", "2", "-f", roots, "-m", "2",
                            "--window", "-7,5"])[0])
           for name, roots in (("p2_sigma_2_1_x2.ct", "2,1"), ("p2_sigma_1_m5_x2.ct", "1,-5"))], [
        (["ext-polytope", "p2_sigma_2_1_x2.ct", "p2_sigma_1_m5_x2.ct"],
         (0, "stdout", "e3347102244891229162adb7cd7f306ed59d4ba33e76327554caabd6e43c431a"))]


def test_seeded_cohomology_inputs_replay_byte_identically(tmp_path):
    got = _family(tmp_path, ([file] for file in _inputs()), COMMANDS)[:2]
    assert got == (CASES, DIGEST), got


def test_seeded_ext_polytope_pairs_replay_byte_identically(tmp_path):
    got = _family(tmp_path, _pairs(), EXT_COMMANDS)[:2]
    assert got == (EXT_CASES, EXT_DIGEST), got


def test_seeded_betti_inputs_replay_byte_identically_and_recompose(tmp_path):
    tables = list(_betti_tables())
    cases, digest, records = _family(
        tmp_path, ([file] for file in _betti_inputs(tables)), BETTI_COMMANDS)
    assert (cases, digest) == (BETTI_CASES, BETTI_DIGEST), (cases, digest)
    for (name, vars_count, entries), (plain, normalized, member) in zip(
            tables, zip(*[iter(records)] * len(BETTI_COMMANDS))):
        in_cone = member[1] == "in-cone yes\n"
        assert in_cone or "dented" in name, name
        for (argv, out, _, status), flag in ((plain, False), (normalized, True)):
            assert status == (0 if in_cone else 1), argv
            problems = check.check_betti_decomposition(out, vars_count, entries, flag)
            assert not in_cone or not problems, (argv, problems)


def test_the_ci_cases_print_their_pinned_bytes(tmp_path):
    jobs = list(_ci_jobs())
    records = _replay(tmp_path, ((files, [argv for argv, _ in runs]) for files, runs in jobs))
    mismatches = []
    for (argv, out, err, status), (_, (want_status, what, pin)) in zip(
            records, (run for _, runs in jobs for run in runs)):
        got = {"stdout": _sha256(out), "stdout+stderr": _sha256(out + err),
               "stderr prefix": err[:len(pin)]}[what]
        if (status, got) != (want_status, pin):
            mismatches.append(f"{' '.join(argv)}: exit {status}, {what} {got!r}")
    assert not mismatches, mismatches


if __name__ == "__main__":
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            with tempfile.TemporaryDirectory() as directory:
                try:
                    test(Path(directory))
                except AssertionError as exc:
                    failed += 1
                    print(f"FAIL {name}: {exc}")
                else:
                    print(f"ok   {name}")
    sys.exit(1 if failed else 0)
