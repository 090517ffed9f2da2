import random
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betticone.cli as cli
import betticone.coh_decomposition as coh_decomposition
import betticone.supernatural as supernatural
import betticone.tables as tables
from betticone import (CohomologyTable, InvalidTable, NotInCone, NotStaircase,
                       RootSequence, WindowTooSmall, add_tables,
                       corner_roots, decompose_cohomology, is_member,
                       line_bundle_table, p1_oracle, parse_table,
                       peel_supernatural, scale, serialize_table,
                       supernatural_table, validate)
from betticone.supernatural import CohDecomposition
from betticone.tables import combine
from helpers import (chi_neutral_dent, random_root_chain,
                     reference_decompose_cohomology, reference_p1_oracle,
                     reference_widened_peel, root_chain_combination)

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def rank3_bundle():
    return CohomologyTable(
        2, (-5, 3),
        {(0, 1): 5, (0, 2): 13, (0, 3): 24, (1, -2): 1, (1, -1): 2,
         (2, -3): 3, (2, -4): 10, (2, -5): 20},
        [0, F(7, 2), F(3, 2)])


def split_table():
    return CohomologyTable(
        1, (-6, 4),
        {(0, j): v for j, v in zip(range(-2, 5), (5, 10, 15, 20, 30, 40, 50))}
        | {(1, j): v for j, v in zip(range(0, -7, -1), (5, 10, 15, 20, 30, 40, 50))},
        [10, 10])


def test_peel_rank3_first_step():
    g = rank3_bundle()
    q, remainder = peel_supernatural(g, RootSequence(2, (0, -3)))
    assert q == 1  # binding corner: row 1 at twist -2
    assert remainder.value(1, -2) == 0
    assert remainder.value(0, 1) == 3
    assert validate(remainder) == []


def test_peel_rank3_second_step():
    g = rank3_bundle()
    _, remainder = peel_supernatural(g, RootSequence(2, (0, -3)))
    q, final = peel_supernatural(remainder, RootSequence(2, (0, -2)))
    assert q == 2
    assert final.is_zero()


def test_peel_sigma_itself():
    t = supernatural_table(RootSequence(2, (1, -2)), F(7, 3), (-4, 3))
    q, remainder = peel_supernatural(t, RootSequence(2, (1, -2)))
    assert q == F(7, 3)
    assert remainder.is_zero()


def test_decompose_rank3_bundle():
    dec = decompose_cohomology(rank3_bundle())
    assert [(c, r.roots) for c, r in dec] == [(1, (0, -3)), (2, (0, -2))]


def test_decompose_reproduces_displayed_sum():
    part1 = supernatural_table(RootSequence(2, (0, -3)), 3, (-5, 3))
    part2 = supernatural_table(RootSequence(2, (0, -2)), 2, (-5, 3))
    assert add_tables(scale(part1, F(1, 3)), part2) == rank3_bundle()


def test_decompose_split_table():
    dec = decompose_cohomology(split_table())
    assert [(c, r.roots) for c, r in dec] == [(5, (-3,)), (5, (1,))]


def test_decompose_unit_multiple():
    t = supernatural_table(RootSequence(1, (-1,)), 10, (-6, 4))
    dec = decompose_cohomology(t)
    assert [(c, r.roots) for c, r in dec] == [(10, (-1,))]


def test_decompose_rejects_invalid_table():
    bad = CohomologyTable(1, (0, 1), {(0, 0): 2}, [1, 0])
    with pytest.raises(InvalidTable):
        decompose_cohomology(bad)


def test_decompose_rejects_support_hole():
    # asymmetric cancellation of 10 at twist -1 alone: valid table, but row 0
    # vanishes at a twist the corner staircase must cover
    t = CohomologyTable(
        1, (-6, 4),
        {(0, -2): 5, (0, 0): 15, (0, 1): 20, (0, 2): 30, (0, 3): 40, (0, 4): 50,
         (1, 0): 5, (1, -2): 15, (1, -3): 20, (1, -4): 30, (1, -5): 40,
         (1, -6): 50},
        [10, 10])
    assert validate(t) == []
    with pytest.raises(NotInCone):
        decompose_cohomology(t)


def test_oracle_split_table():
    dec = p1_oracle(split_table())
    assert [(c, r.roots) for c, r in dec] == [(5, (-3,)), (5, (1,))]


def test_oracle_rejects_nonconvex_cancellation():
    # symmetric cancellation (a, b) = (5, 0): row-0 increments 10, 0, 10
    t = CohomologyTable(
        1, (-6, 4),
        {(0, -1): 10, (0, 0): 10, (0, 1): 20, (0, 2): 30, (0, 3): 40, (0, 4): 50,
         (1, -1): 10, (1, -2): 10, (1, -3): 20, (1, -4): 30, (1, -5): 40,
         (1, -6): 50},
        [10, 10])
    with pytest.raises(NotInCone) as info:
        p1_oracle(t)
    assert "j = -1" in str(info.value)


def test_oracle_single_sigma():
    t = supernatural_table(RootSequence(1, (2,)), 7, (-3, 5))
    assert [(c, r.roots) for c, r in p1_oracle(t)] == [(7, (2,))]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_round_trip_on_p1_chains(seed):
    rng = random.Random(seed)
    chain = random_root_chain(rng, 1)
    expected, total = root_chain_combination(rng, chain)
    dec = decompose_cohomology(total)
    assert list(dec) == expected
    oracle = p1_oracle(total)
    assert list(oracle) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_round_trip_on_p2_chains(seed):
    rng = random.Random(seed)
    chain = random_root_chain(rng, 2)
    expected, total = root_chain_combination(rng, chain)
    dec = decompose_cohomology(total)
    assert list(dec) == expected
    # chain property of the output
    roots = [r.roots for _, r in dec]
    for f, g in zip(roots, roots[1:]):
        assert all(a <= b for a, b in zip(f, g))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_each_peel_zeroes_a_window_entry(seed):
    rng = random.Random(seed)
    chain = random_root_chain(rng, rng.randint(1, 3))
    _, total = root_chain_combination(rng, chain)
    steps = 0
    work = total
    from betticone import corner_roots
    while not work.is_zero():
        before = len(work.entries)
        _, work = peel_supernatural(work, corner_roots(work))
        assert len(work.entries) < before
        steps += 1
    assert steps <= len(total.entries)


def tail_guard_table():
    return parse_table((FIXTURES / "p1_tail_guard.ct").read_text())


def test_valid_table_stopped_at_a_tail_cell():
    # the second peel leaves the first tail twist right of the window empty
    t = tail_guard_table()
    assert validate(t) == []
    with pytest.raises(NotInCone) as info:
        decompose_cohomology(t)
    assert type(info.value) is NotInCone
    assert str(info.value) == "step 2: table vanishes at (0, 4) inside the staircase of 0"
    with pytest.raises(NotInCone) as info:
        p1_oracle(t)
    assert str(info.value) == "step 0: negative second difference -4 at j = 1"


def test_is_member_takes_cohomology_tables():
    assert is_member(rank3_bundle())
    assert is_member(split_table())
    assert not is_member(tail_guard_table())
    with pytest.raises(InvalidTable):
        is_member(CohomologyTable(1, (0, 2), {(0, 1): -1}, [0, 0]))


def sigma_minus1_table():
    return parse_table((FIXTURES / "p1_sigma_minus1.ct").read_text())


@pytest.mark.parametrize("table", [lambda: line_bundle_table(1, 0, (0, 5)),
                                   sigma_minus1_table])
def test_a_root_one_twist_past_the_window_is_decided(table):
    # O on P^1 is sigma_{-1}, whose root lies one twist left of the window
    t = table()
    assert validate(t) == [] and t == supernatural_table(RootSequence(1, (-1,)))
    for decomposer in (p1_oracle, decompose_cohomology):
        assert [(c, r.roots) for c, r in decomposer(t)] == [(1, (-1,))]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48), st.integers(0, 2))
def test_every_peel_remainder_is_valid(seed, dents):
    # the peel binds on the tail cells too, and refuses a remainder whose
    # chi's leading coefficient has turned negative
    rng = random.Random(seed)
    _, work = root_chain_combination(rng, random_root_chain(rng, rng.randint(1, 3)))
    for _ in range(dents):
        work = chi_neutral_dent(rng, work)
    if validate(work):
        return
    for _ in range(len(work.entries) + 1):
        if work.is_zero():
            break
        try:
            _, work = peel_supernatural(work, corner_roots(work))
        except (NotInCone, WindowTooSmall):
            break
        assert validate(work) == []


def test_a_peel_binding_past_the_window_leaves_a_valid_remainder():
    # A P^1 table on [-10, -2] with chi(j) = 77/2 + 7 j.  Its window alone
    # allows 7 sigma_{-6}, which leaves chi = -7/2 and a negative right tail;
    # the tail cell at j = -1 allows only 63/10.
    t = random_greedy_input(random.Random(123))
    assert t.window == (-10, -2) and t.chi == (F(77, 2), 7)
    q, rest = peel_supernatural(t, RootSequence(1, (-6,)))
    assert q == F(63, 10)
    assert rest.window == t.window and rest.chi == (F(7, 10), F(7, 10))
    assert validate(rest) == []


def test_a_peel_whose_remainder_turns_its_lead_negative_is_refused():
    # Every cell n + 1 twists past the window stays >= 0, yet the leading
    # chi coefficient 3 - q / 2 of the remainder falls below 0.
    entries = {(0, j): v for j, v in zip(range(1, 6), (7, 19, 37, 61, 91))}
    entries |= {(2, j): v for j, v in zip(range(-5, 1), (61, 37, 19, 7, 1, 1))}
    t = CohomologyTable(2, (-5, 5), entries, [1, 3, 3])
    assert validate(t) == []
    with pytest.raises(NotInCone, match="^step 0: the remainder is not a valid table: "
                                         "leading chi coefficient -1/72 is negative$"):
        peel_supernatural(t, RootSequence(2, (0, -1)))


@pytest.mark.parametrize("table", [rank3_bundle, split_table, tail_guard_table])
def test_decompose_validates_once(monkeypatch, table):
    calls = []

    def counted(t):
        calls.append(t)
        return validate(t)
    monkeypatch.setattr(coh_decomposition, "validate", counted)
    try:
        decompose_cohomology(table())
    except NotInCone:
        pass
    assert len(calls) == 1


def random_p1_table(rng):
    """A P^1 chain combination, then up to two moves (a chi-neutral dent, a
    narrower window, a stray cell) so that every oracle outcome turns up."""
    _, t = root_chain_combination(rng, random_root_chain(rng, 1, max_terms=6))
    for _ in range(rng.randint(0, 2)):
        move = rng.randrange(3)
        lo, hi = t.window
        if move == 0:
            t = chi_neutral_dent(rng, t)
        elif move == 1:
            lo, hi = lo + rng.randint(0, 4), hi - rng.randint(0, 4)
            if lo <= hi:
                t = CohomologyTable(1, (lo, hi), {(i, j): v for (i, j), v in t.entries.items()
                                                  if lo <= j <= hi}, t.chi)
        else:
            stray = CohomologyTable(1, t.window, {(rng.randint(0, 1), rng.randint(lo, hi)): 1})
            t = combine(t, stray)
    return t


def outcome(oracle, t):
    try:
        return [(c, r.roots) for c, r in oracle(t)]
    except (InvalidTable, NotInCone) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_oracle_matches_the_supernatural_rebuild(seed):
    t = random_p1_table(random.Random(seed))
    assert outcome(p1_oracle, t) == outcome(reference_p1_oracle, t)


def test_oracle_builds_no_supernatural_table(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return supernatural_table(*args)
    assert not hasattr(coh_decomposition, "supernatural_table")
    monkeypatch.setattr(supernatural, "supernatural_table", counted)
    assert len(p1_oracle(split_table())) == 2
    assert len(p1_oracle(line_bundle_table(1, 0, (0, 5)))) == 1
    with pytest.raises(NotInCone):
        p1_oracle(tail_guard_table())
    assert calls == []


@pytest.mark.parametrize("table, accepted", [
    (split_table, True), (tail_guard_table, False),
    (lambda: line_bundle_table(1, 0, (0, 5)), True)])
def test_oracle_decides_a_working_form_on_ints(monkeypatch, table, accepted):
    # Given the Numerators, the oracle reads the Rows widened by two tail
    # twists on each side, leaves the Numerators as they are, and goes back
    # neither to a CohomologyTable nor to Fraction arithmetic; only its
    # terms and its refusal text are Fractions.
    t = table()
    expected = outcome(p1_oracle, t)
    work = tables.Numerators(t)
    before = numerators_state(work)
    read = []
    reader = coh_decomposition._p1_oracle

    def spied(wide):
        read.append(rows_state(wide))
        return reader(wide)
    monkeypatch.setattr(coh_decomposition, "_p1_oracle", spied)
    built = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            built.append(name)
            return original(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(tables.Rows, "table", counted("table", tables.Rows.table))
    monkeypatch.setattr(CohomologyTable, "__init__",
                        counted("CohomologyTable", CohomologyTable.__init__))
    trusted = CohomologyTable._trusted.__func__
    monkeypatch.setattr(CohomologyTable, "_trusted",
                        classmethod(counted("CohomologyTable", trusted)))
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__eq__", "__lt__", "__le__",
                 "__gt__", "__ge__", "__bool__"):
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    got = outcome(p1_oracle, work)
    ops = list(built)
    monkeypatch.undo()
    assert ops == []
    assert got == expected and isinstance(got, list) == accepted
    assert read == [widened_state(t)]
    assert numerators_state(work) == before


def numerators_state(work):
    # Everything a Numerators holds, copied.
    return work.n, work.window, work.den, dict(work.entries), list(work.chi)


def rows_state(rows):
    # Everything a Rows holds, copied.
    return rows.n, rows.window, rows.width, rows.den, list(rows.chi), list(rows.cells)


def widened_state(t):
    # rows_state of the Rows of table t: t.value on rows 0..n over its window
    # widened by n + 1 twists on each side, as numerators over the common
    # denominator of t's Numerators.
    n, (lo, hi) = t.n, t.window
    work = tables.Numerators(t)
    twists = range(lo - n - 1, hi + n + 2)
    return (n, (twists[0], twists[-1]), len(twists), work.den, list(work.chi),
            [t.value(i, j) * work.den for i in range(n + 1) for j in twists])


@pytest.mark.parametrize("table", [
    rank3_bundle,
    lambda: scale(supernatural_table(RootSequence(3, (2, 0, -1)), 1, (-3, 3)), F(5, 2))])
def test_the_working_form_is_widened_by_its_tail_cells(table):
    # On P^2 and P^3 too (n even flips the left tail's sign), _valid returns
    # new Rows widened by n + 1 twists on each side to exactly the table's
    # cells there, with the same den and chi, and leaves the Numerators be.
    t = table()
    n, (lo, hi) = t.n, t.window
    W = lo - n - 1, hi + n + 1
    work = tables.Numerators(t)
    before = numerators_state(work)
    wide = coh_decomposition._valid(work)
    assert isinstance(wide, tables.Rows)
    assert rows_state(wide) == widened_state(t)
    assert wide.window == W and wide.den == work.den and wide.chi == work.chi
    assert any(wide.cells[n * wide.width:n * wide.width + lo - W[0]])
    assert numerators_state(work) == before


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48), st.integers(1, 3), st.integers(0, 2), st.booleans())
def test_valid_returns_the_widened_rows_and_changes_nothing(seed, n, dents, cut):
    # A P^1-P^3 chain sum, dented up to twice and maybe cut to a window
    # inside its staircase: _valid's Rows hold, cell by cell, the rows of
    # the table on the window widened by n + 1 twists, with its den and chi;
    # neither _valid nor an entry point given the Numerators changes them.
    rng = random.Random(seed)
    _, t = root_chain_combination(rng, random_root_chain(rng, n))
    for _ in range(dents):
        t = chi_neutral_dent(rng, t)
    lo, hi = t.window
    if cut and hi - lo > 8:
        lo, hi = lo + rng.randint(0, 4), hi - rng.randint(0, 4)
        t = CohomologyTable(n, (lo, hi), {(i, j): v for (i, j), v in t.entries.items()
                                          if lo <= j <= hi}, t.chi)
    W = lo - n - 1, hi + n + 1
    wt = CohomologyTable(n, W, t.cells(*W), t.chi)
    work = tables.Numerators(t)
    before = numerators_state(work)
    try:
        wide = coh_decomposition._valid(work)
    except InvalidTable:
        assert validate(t)
    else:
        assert validate(t) == []
        assert (wide.n, wide.window, wide.width) == (n, W, W[1] - W[0] + 1)
        assert wide.den == tables.Numerators(wt).den
        assert [F(c, wide.den) for c in wide.chi] == list(wt.chi)
        for i in range(n + 1):
            row = [wt.value(i, j) for j in range(W[0], W[1] + 1)]
            assert [F(v, wide.den) for v in wide.cells[i * wide.width:(i + 1) * wide.width]] \
                == row
    assert numerators_state(work) == before
    entry_points = [is_member, validate, decompose_cohomology] + [p1_oracle] * (n == 1)
    for entry_point in entry_points:
        try:
            entry_point(work)
        except (InvalidTable, NotInCone):
            pass
        assert numerators_state(work) == before, entry_point.__name__


@pytest.mark.parametrize("table", [rank3_bundle, split_table, tail_guard_table])
def test_cohomology_member_builds_no_terms(monkeypatch, capsys, tmp_path, table):
    # is_member drains the greedy's steps and the CLI's member calls it on
    # the file's Numerators: neither builds a decomposition, which
    # decompose_cohomology does once.
    t = table()
    path = tmp_path / "t.ct"
    path.write_text(serialize_table(t))
    calls = {"__init__": 0, "_trusted": 0}
    init, trusted = CohDecomposition.__init__, CohDecomposition._trusted.__func__

    def counted_init(self, *args, **kwargs):
        calls["__init__"] += 1
        init(self, *args, **kwargs)

    def counted_trusted(cls, *fields):
        calls["_trusted"] += 1
        return trusted(cls, *fields)
    monkeypatch.setattr(CohDecomposition, "__init__", counted_init)
    monkeypatch.setattr(CohDecomposition, "_trusted", classmethod(counted_trusted))
    in_cone = table is not tail_guard_table
    assert is_member(t) is in_cone
    assert cli.main(["member", str(path)]) == 0
    assert capsys.readouterr().out == f"in-cone {'yes' if in_cone else 'no'}\n"
    assert calls == {"__init__": 0, "_trusted": 0}
    try:
        decompose_cohomology(t)
    except NotInCone:
        pass
    assert calls == {"__init__": in_cone, "_trusted": 0}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48), st.integers(0, 2))
def test_every_successful_peel_drops_a_cell_and_adds_none(seed, dents):
    # the greedy loop needs no step bound: each peel that succeeds leaves
    # strictly fewer stored cells, also on tables outside the cone
    rng = random.Random(seed)
    _, work = root_chain_combination(rng, random_root_chain(rng, rng.randint(1, 3)))
    for _ in range(dents):
        work = chi_neutral_dent(rng, work)
    if validate(work):
        return
    while not work.is_zero():
        try:
            _, rest = peel_supernatural(work, corner_roots(work))
        except (NotInCone, WindowTooSmall):
            break
        assert set(rest.entries) < set(work.entries)
        work = rest


def shifted_tail_guard_table(rng):
    """The tail-guard fixture scaled by a random rational and moved by a
    random twist: the greedy stops there for the same reason."""
    t = tail_guard_table()
    s, m = rng.randint(-6, 6), F(rng.randint(1, 7), rng.randint(1, 3))
    c0, c1 = t.chi
    return CohomologyTable(1, (t.window[0] + s, t.window[1] + s),
                           {(i, j + s): m * v for (i, j), v in t.entries.items()},
                           [m * (c0 - c1 * s), m * c1])


def random_greedy_input(rng):
    """A P^1-P^3 chain combination, or the tail-guard fixture moved about,
    followed by up to two moves: a chi-neutral dent or bump, a narrower
    window, a stray cell, or a sigma on the same window added with a small
    coefficient of either sign.  Every outcome of the greedy turns up."""
    if rng.random() < 0.2:
        t = shifted_tail_guard_table(rng)
    else:
        _, t = root_chain_combination(
            rng, random_root_chain(rng, rng.randint(1, 3), max_terms=5))
    n = t.n
    for _ in range(rng.randint(0, 2)):
        move = rng.randrange(5)
        lo, hi = t.window
        if move == 0:
            t = chi_neutral_dent(rng, t)
        elif move == 1:
            i = rng.randint(0, n - 1)
            bump = {}
            for j in rng.sample(range(lo + 1, hi), max(0, min(hi - lo - 1, rng.randint(1, 4)))):
                bump[(i, j)] = bump[(i + 1, j)] = F(rng.randint(1, 6), rng.randint(1, 3))
            t = combine(t, CohomologyTable(n, t.window, bump))
        elif move == 2:
            lo, hi = lo + rng.randint(0, 4), hi - rng.randint(0, 4)
            if lo <= hi:
                t = CohomologyTable(n, (lo, hi), {(i, j): v for (i, j), v in t.entries.items()
                                                  if lo <= j <= hi}, t.chi)
        elif move == 3:
            stray = {(rng.randint(0, n), rng.randint(lo, hi)): F(rng.randint(1, 5),
                                                                rng.randint(1, 3))}
            t = combine(t, CohomologyTable(n, t.window, stray))
        else:
            inner = range(lo + 1, hi)
            if len(inner) >= n and rng.random() < 0.5:
                roots = RootSequence(n, sorted(rng.sample(inner, n), reverse=True))
                sigma = supernatural_table(roots, 1, t.window)
            else:
                sigma = line_bundle_table(n, rng.randint(-hi - n - 2, -lo + 2), t.window)
            room = min((t.value(i, j) / v for (i, j), v in sigma.entries.items()),
                       default=0)
            c = F(rng.randint(1, 8), rng.randint(1, 3))
            if room > 0 and rng.random() < 0.7:
                c = -room * F(rng.randint(1, 10), 10)
            t = combine(t, sigma, c)
    return t


def greedy_outcome(decomposer, t):
    try:
        return [(c, r.roots) for c, r in decomposer(t)]
    except (InvalidTable, NotInCone) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_integer_greedy_matches_the_fraction_greedy(seed):
    t = random_greedy_input(random.Random(seed))
    assert greedy_outcome(decompose_cohomology, t) == \
        greedy_outcome(reference_decompose_cohomology, t)


def test_the_differential_inputs_reach_every_outcome():
    seen = set()
    for seed in range(400):
        result = greedy_outcome(decompose_cohomology, random_greedy_input(random.Random(seed)))
        seen.add(result[0] if isinstance(result, tuple) else "terms")
    assert seen == {"terms", InvalidTable, NotInCone, NotStaircase}


def test_the_widened_greedy_decides_every_valid_table():
    # No valid table is refused for its window (WindowTooSmall would end the
    # test), every decomposition sums back to its table, and on P^1 the
    # oracle gives the greedy's answer.
    counts = {"terms": 0, "no": 0, "p1": 0}
    for seed in range(2000):
        t = random_greedy_input(random.Random(seed))
        if validate(t):
            continue
        result = greedy_outcome(decompose_cohomology, t)
        if isinstance(result, list):
            rebuilt = CohomologyTable(t.n, t.window)
            for c, roots in result:
                rebuilt = add_tables(rebuilt, supernatural_table(RootSequence(t.n, roots), c))
            assert rebuilt == t, seed
        counts["terms" if isinstance(result, list) else "no"] += 1
        if t.n == 1:
            oracle = outcome(p1_oracle, t)
            assert isinstance(oracle, list) == isinstance(result, list), seed
            if isinstance(oracle, list):
                assert oracle == result, seed
            counts["p1"] += 1
    assert min(counts.values()) > 400


def test_a_negative_far_tail_is_not_in_the_cone():
    # validate reads the tails n + 1 twists past the window only and misses
    # chi(11) < 0; an emptied working form would certify the table, so the
    # greedy must refuse it.
    t = parse_table((FIXTURES / "p2_far_tail.ct").read_text())
    assert validate(t) == []
    assert t.value(0, 11) == F(-1, 2)
    assert not is_member(t)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_every_decomposition_is_a_chain_of_roots(seed):
    # decompose_valid does not check this: no peel adds a cell, so no
    # corner root can move down from one step to the next
    try:
        dec = decompose_cohomology(random_greedy_input(random.Random(seed)))
    except (InvalidTable, NotInCone):
        return
    for (_, f), (_, h) in zip(dec, list(dec)[1:]):
        assert all(a <= b for a, b in zip(f.roots, h.roots))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_peel_supernatural_matches_the_fraction_peel(seed):
    t = random_greedy_input(random.Random(seed))
    if validate(t) or t.is_zero():
        return
    roots = corner_roots_or_none(t)
    if roots is None:
        return

    def peel(peeler):
        try:
            q, rest = peeler(t, roots)
            return q, rest.window, rest.entries, rest.chi
        except (NotInCone, WindowTooSmall) as exc:
            return type(exc), str(exc)
    assert peel(peel_supernatural) == peel(reference_widened_peel)


def wide_chain_input(rng):
    """A P^1-P^3 chain combination on a window up to 300 twists wide, its
    roots spread across it and its multiplicities fractions, so that the
    greedy's denominators grow; half the time dented once or twice
    (``chi_neutral_dent``), which mostly makes the greedy refuse mid-way."""
    n = rng.randint(1, 3)
    width = rng.randint(n + 3, 300)
    lo = rng.randint(-width, width)
    roots = sorted(rng.sample(range(lo + 1, lo + width - 1), n), reverse=True)
    chain = [RootSequence(n, roots)]
    for _ in range(rng.randint(0, 4)):
        stride = max(1, width // 8)
        moved = []
        for k, f in enumerate(chain[-1].roots):
            top = lo + width - 2 if k == 0 else moved[-1] - 1
            moved.append(min(f + rng.randint(0, stride), top))
        if tuple(moved) != chain[-1].roots:
            chain.append(RootSequence(n, moved))
    t = CohomologyTable(n, (lo, lo + width - 1))
    for roots in chain:
        q = F(rng.randint(1, 9), rng.choice([1, 2, 3, 5, 6, 7]))
        t = add_tables(t, supernatural_table(roots, q, t.window))
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            t = chi_neutral_dent(rng, t)
    return t


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_the_row_greedy_matches_the_fraction_greedy_on_wide_windows(seed):
    t = wide_chain_input(random.Random(seed))
    assert greedy_outcome(decompose_cohomology, t) == \
        greedy_outcome(reference_decompose_cohomology, t)
    if not t.is_zero():
        roots = corner_roots(t)

        def peel(peeler):
            try:
                q, rest = peeler(t, roots)
                return q, rest.window, rest.entries, rest.chi
            except NotInCone as exc:
                return type(exc), str(exc)
        assert peel(peel_supernatural) == peel(reference_widened_peel)


def test_the_wide_inputs_reach_both_peel_branches_and_refusals(monkeypatch):
    # A peel with c / p in lowest terms rescales the whole row form when
    # p > 1 and touches only sigma's cells when p = 1; with q = c n! / (den p)
    # that p is the denominator of q den / n!.
    branches = {"p = 1": 0, "p > 1": 0}
    peel = coh_decomposition._peel

    def counted(work, roots, *args):
        den = work.den
        q = peel(work, roots, *args)
        ratio = F(*q) * den / factorial(roots.n)
        branches["p > 1" if ratio.denominator > 1 else "p = 1"] += 1
        return q
    monkeypatch.setattr(coh_decomposition, "_peel", counted)
    refused_after_peels = 0
    for seed in range(60):
        try:
            decompose_cohomology(wide_chain_input(random.Random(seed)))
        except NotInCone as exc:
            refused_after_peels += exc.step > 0
    assert min(branches.values()) > 10 and refused_after_peels > 5


def test_a_refusal_names_the_peels_done_before_it(monkeypatch):
    peels = []
    peel = coh_decomposition._peel

    def counted(*args):
        q = peel(*args)
        peels.append(q)
        return q
    monkeypatch.setattr(coh_decomposition, "_peel", counted)
    steps = set()
    for seed in range(400):
        t = random_greedy_input(random.Random(seed))
        peels.clear()
        try:
            decompose_cohomology(t)
        except NotInCone as exc:
            assert exc.step == len(peels)
            assert str(exc).startswith(f"step {len(peels)}: ")
            steps.add(exc.step)
        except InvalidTable:
            pass
    assert 0 in steps and len(steps) > 1


def corner_roots_or_none(t):
    try:
        return corner_roots(t)
    except (NotInCone, WindowTooSmall):
        return None


def every_second_twist_table(width):
    """The P^1 sum of sigma_f over every odd f in [1, width - 2], one unit
    each, on the window [0, width - 1]: row 0 at j is sum_{f < j} (j - f),
    row 1 is sum_{f > j} (f - j)."""
    roots = range(1, width - 1, 2)
    entries = {}
    for j in range(width):
        below = sum(j - f for f in roots if f < j)
        above = sum(f - j for f in roots if f > j)
        entries.update({key: v for key, v in (((0, j), below), ((1, j), above)) if v})
    return CohomologyTable(1, (0, width - 1), entries, [-sum(roots), len(roots)])


def test_wide_p1_greedy_builds_no_fraction_table(monkeypatch):
    t = every_second_twist_table(801)
    calls = {"peel": 0, "supernatural_table": 0, "combine": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted
    monkeypatch.setattr(coh_decomposition, "_peel", counting("peel", coh_decomposition._peel))
    assert not hasattr(coh_decomposition, "supernatural_table")
    monkeypatch.setattr(supernatural, "supernatural_table",
                        counting("supernatural_table", supernatural_table))
    monkeypatch.setattr(tables, "combine", counting("combine", tables.combine))
    dec = decompose_cohomology(t)
    assert [(c, r.roots) for c, r in dec] == [(1, (f,)) for f in range(1, 800, 2)]
    assert calls == {"peel": 400, "supernatural_table": 0, "combine": 0}


def test_integral_multiples_build_no_supernatural_table(monkeypatch, tmp_path, capsys):
    # coh-decompose --integral reads each term's multiple off sigma's int
    # cells at n + 1 twists past its first root, and builds no sigma
    path = tmp_path / "wide.ct"
    path.write_text(serialize_table(every_second_twist_table(801)))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return supernatural_table(*args, **kwargs)
    monkeypatch.setattr(supernatural, "supernatural_table", counted)
    monkeypatch.setattr(cli, "supernatural_table", counted)
    assert cli.main(["coh-decompose", str(path), "--integral"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"term 1 roots={f} multiple=1" for f in range(1, 800, 2)]
    assert calls == []


def test_integral_multiples_cost_n_plus_one_root_products_a_term(monkeypatch, tmp_path,
                                                                  capsys):
    # 400 terms on P^1: --integral adds 2 root products each, whatever the window
    path = tmp_path / "wide.ct"
    path.write_text(serialize_table(every_second_twist_table(801)))
    calls = []

    def counted(factors):
        calls.append(1)
        return prod(factors)
    monkeypatch.setattr(supernatural, "prod", counted)
    counts = []
    for flags in ([], ["--integral"]):
        calls.clear()
        assert cli.main(["coh-decompose", str(path), *flags]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 400
        counts.append(len(calls))
    assert counts[1] - counts[0] == 800


def random_p1_form(rng):
    """Any P^1 table, valid or not: up to 30 entries on rows -1..2 at twists
    in and just past a window 1-13 wide, entries and chi possibly negative
    or fractional."""
    def number():
        return F(rng.randint(-20, 20), rng.randint(1, 6))
    lo = rng.randint(-10, 10)
    hi = lo + rng.randint(0, 12)
    entries = {(rng.randint(-1, 2), rng.randint(lo - 1, hi + 1)): number()
               for _ in range(rng.randint(0, 30))}
    return CohomologyTable(1, (lo, hi), entries, [number(), number()])


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_the_second_differences_always_reconstruct_chi(seed):
    # Widened as _valid widens, without its validation, the second
    # differences M_f satisfy (-sum f M_f, sum M_f) = 2 den (c_0, c_1) on
    # every form, so the P^1 verdict needs nothing but their signs.
    work = tables.Numerators(random_p1_form(random.Random(seed)))
    w = tables.Rows(work)
    diffs = coh_decomposition._second_differences(w)
    c0, c1 = w.chi
    assert sum(diffs.values()) == 2 * c1
    assert -sum(f * m for f, m in diffs.items()) == 2 * c0


def test_oracle_refuses_tables_off_p1():
    with pytest.raises(ValueError, match="^oracle only applies on P\\^1, got n = 2$"):
        p1_oracle(line_bundle_table(2, 0, (-4, 2)))


@pytest.mark.parametrize("table", [rank3_bundle, split_table, tail_guard_table])
def test_decompose_converts_to_numerators_once(monkeypatch, table):
    # validate and the greedy share one working form.
    g = table()
    built = []
    init = tables.Numerators.__init__

    def counted(self, t):
        built.append(t)
        init(self, t)
    monkeypatch.setattr(tables.Numerators, "__init__", counted)
    try:
        decompose_cohomology(g)
    except NotInCone:
        pass
    assert built == [g]
