import random
from ast import literal_eval
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betticone.betti_decomposition as betti_decomposition
import betticone.tables as tables
from betticone import (BettiTable, DegreeSequence, InvalidTable, NotInCone,
                       StrandNotIncreasing, decompose, is_chain, is_member,
                       min_strand, normalized_diagram, parse_table, peel, recompose,
                       smallest_integral, validate)
from helpers import (chain_combination, random_chain, random_degree_sequence,
                     reference_decompose, reference_peel)

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

XY2 = {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}
NONCM = {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}
COMPLEX = {(0, 0): 1, (1, 1): 2, (2, 3): 2, (3, 4): 1}


def test_min_strand_xy2():
    strand = min_strand(BettiTable(2, XY2))
    assert (strand.start, strand.degrees) == (0, (0, 1, 3))


def test_min_strand_noncm():
    strand = min_strand(BettiTable(3, NONCM))
    assert (strand.start, strand.degrees) == (0, (0, 2, 3, 4))


def test_min_strand_complex_caps_length():
    strand = min_strand(BettiTable(2, COMPLEX))
    assert (strand.start, strand.degrees) == (0, (0, 1, 3))


def test_min_strand_zero_table():
    with pytest.raises(ValueError):
        min_strand(BettiTable(2))


def test_peel_xy2():
    b = BettiTable(2, XY2)
    q, remainder = peel(b, DegreeSequence(0, (0, 1, 3), 2))
    # against the smallest integral diagram (2,3,1) this is the 1/3 step
    assert q == F(2, 3)
    assert remainder.entries == {(0, 0): F(1, 3), (1, 2): F(1), (2, 3): F(2, 3)}


def test_peel_noncm_steps():
    b = BettiTable(3, NONCM)
    q, remainder = peel(b, DegreeSequence(0, (0, 2, 3, 4), 3))
    assert q == F(1, 3)
    q2, remainder2 = peel(remainder, DegreeSequence(0, (0, 2, 3), 3))
    assert q2 == F(2, 3)
    assert remainder2.is_zero()


def test_peel_refuses_an_absent_strand_position():
    # the first absent position along the strand is the one reported
    with pytest.raises(ValueError) as info:
        peel(BettiTable(2, {(0, 0): 1}), DegreeSequence(0, (0, 1, 2), 2))
    assert str(info.value) == "strand position (1, 1) absent from table"


def test_peel_refuses_a_negative_strand_entry():
    b = BettiTable(2, {(0, 0): 1, (1, 1): -2, (2, 2): 1})
    with pytest.raises(ValueError) as info:
        peel(b, DegreeSequence(0, (0, 1, 2), 2))
    assert str(info.value) == "scale factor must be nonnegative, got -1"


def test_peel_reports_a_negative_entry_before_an_absent_one():
    # the minimum ratio is taken before either refusal, and a negative ratio
    # lies below the zero ratio of an absent position
    b = BettiTable(2, {(0, 0): 1, (2, 2): -3})
    with pytest.raises(ValueError) as info:
        peel(b, DegreeSequence(0, (0, 1, 2), 2))
    assert str(info.value) == "scale factor must be nonnegative, got -3"


@pytest.mark.parametrize("entries", [
    {(0, 0): 1, (1, 1): 0, (2, 2): 1}, {(0, 0): 1, (1, 1): -2, (2, 2): 1, (3, 3): -1}])
def test_decompose_refuses_an_invalid_table_once(monkeypatch, entries):
    # A stored zero or a negative entry is an invalid table, not a failed
    # peel; validate runs only to word the refusal.
    b = BettiTable(2, entries)
    calls = []

    def counted(t):
        calls.append(t)
        return validate(t)
    monkeypatch.setattr(betti_decomposition, "validate", counted)
    for normalized in (False, True):
        with pytest.raises(InvalidTable) as info:
            decompose(b, normalized)
        assert info.value.violations == validate(b)
    assert len(calls) == 2
    decompose(BettiTable(2, XY2))
    assert len(calls) == 2


def test_decompose_xy2():
    terms = list(decompose(BettiTable(2, XY2)))
    assert [(c, d.sequence.degrees, d.values) for c, d in terms] == [
        (F(1, 3), (0, 1, 3), (2, 3, 1)),
        (F(1, 3), (0, 2, 3), (1, 3, 2)),
    ]


def test_decompose_noncm():
    terms = list(decompose(BettiTable(3, NONCM)))
    assert [(c, d.sequence.degrees, d.values) for c, d in terms] == [
        (F(1, 3), (0, 2, 3, 4), (1, 6, 8, 3)),
        (F(2, 3), (0, 2, 3), (1, 3, 2)),
    ]


def test_decompose_complex_two_windows():
    terms = list(decompose(BettiTable(2, COMPLEX)))
    assert [(c, d.sequence.start, d.sequence.degrees, d.values) for c, d in terms] == [
        (F(1, 2), 0, (0, 1, 3), (2, 3, 1)),
        (F(1, 2), 1, (1, 3, 4), (1, 3, 2)),
    ]


def test_decompose_normalized_flag():
    terms = list(decompose(BettiTable(2, XY2), normalized=True))
    assert [(c, d.values) for c, d in terms] == [
        (F(2, 3), (1, F(3, 2), F(1, 2))),
        (F(1, 3), (1, 3, 2)),
    ]


def test_decompose_zero_table():
    assert len(decompose(BettiTable(2))) == 0


def test_recompose_round_trips_fixtures():
    for vars_count, entries in ((2, XY2), (3, NONCM), (2, COMPLEX)):
        b = BettiTable(vars_count, entries)
        assert recompose(decompose(b)) == b


def test_recompose_empty_and_single():
    from betticone import BettiDecomposition
    assert recompose(BettiDecomposition(()), vars=2).is_zero()
    diagram = smallest_integral(normalized_diagram(DegreeSequence(0, (0, 1, 3), 2)))
    dec = BettiDecomposition(((F(1), diagram),))
    assert recompose(dec) == diagram.table()


def test_decompose_pure_diagram_single_term():
    diagram = normalized_diagram(DegreeSequence(0, (0, 1, 3), 2))
    terms = list(decompose(diagram.table()))
    # the normalized diagram is half of the smallest integral one
    assert len(terms) == 1
    assert terms[0][0] == F(1, 2)
    assert terms[0][1].values == (2, 3, 1)


def test_same_entries_more_variables_is_one_ray():
    terms = list(decompose(BettiTable(3, COMPLEX)))
    assert [(c, d.sequence.degrees, d.values) for c, d in terms] == [
        (F(1), (0, 1, 3, 4), (1, 2, 2, 1)),
    ]


def test_koszul_table_is_member():
    assert is_member(BettiTable(2, {(0, 0): 1, (1, 1): 2, (2, 2): 1}))


def test_two_step_member_example():
    assert is_member(BettiTable(2, {(0, 0): 2, (1, 1): 1}))


def test_equal_entry_pair_is_pure():
    # the moment equation for (0, 1) forces equal entries, and they are
    assert is_member(BettiTable(2, {(0, 0): 1, (1, 1): 1}))


def test_equal_degrees_not_member():
    b = BettiTable(2, {(0, 0): 1, (1, 0): 1})
    with pytest.raises(StrandNotIncreasing):
        decompose(b)
    assert not is_member(b)


def test_gap_between_windows_not_member():
    # a strand that stops on an empty column cannot be continued by a
    # later window unless it already had maximal length
    assert not is_member(BettiTable(3, {(0, 0): 1, (2, 5): 1}))


def test_decompose_chain_property():
    terms = decompose(BettiTable(3, NONCM))
    assert is_chain(terms.sequences())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_chain_round_trip(seed):
    rng = random.Random(seed)
    seqs = random_chain(rng, vars_count=rng.randint(1, 5))
    expected, table = chain_combination(rng, seqs)
    result = list(decompose(table))
    assert [(c, d.sequence, d.values) for c, d in result] == \
        [(c, d.sequence, d.values) for c, d in expected]
    assert recompose(decompose(table)) == table
    assert is_chain([d.sequence for _, d in result])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_peel_reduces_support_on_strand(seed):
    rng = random.Random(seed)
    seqs = random_chain(rng, vars_count=rng.randint(1, 5))
    _, table = chain_combination(rng, seqs)
    steps = 0
    work = table
    while not work.is_zero():
        strand = min_strand(work)
        before = len(work.entries)
        _, work = peel(work, strand)
        assert len(work.entries) < before
        steps += 1
    assert steps <= len(table.entries)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_every_successful_peel_drops_a_cell_and_adds_none(seed):
    # the greedy loop needs no step bound: each peel that succeeds leaves
    # strictly fewer stored cells, also on tables outside the cone
    rng = random.Random(seed)
    _, work = chain_combination(rng, random_chain(rng, vars_count=rng.randint(1, 5)))
    entries = dict(work.entries)
    for _ in range(rng.randint(0, 3)):
        entries[(rng.randint(0, 5), rng.randint(-10, 10))] = F(rng.choice([-2, -1, 1, 3]))
    work = BettiTable(work.vars, entries)
    while not work.is_zero():
        try:
            _, rest = peel(work, min_strand(work))
        except ValueError:
            break
        assert set(rest.entries) < set(work.entries)
        work = rest


def random_betti_input(rng):
    """A chain combination (shifted windows included), then up to three
    moves: a stray positive cell, a negative cell, a dropped cell or a
    rescaled one, so that every outcome of the greedy turns up."""
    _, table = chain_combination(rng, random_chain(rng, vars_count=rng.randint(1, 5)))
    entries = dict(table.entries)
    for _ in range(rng.randint(0, 3)):
        move = rng.randrange(4)
        if move == 0:
            entries[(rng.randint(-1, 5), rng.randint(-12, 12))] = F(rng.randint(1, 9),
                                                                    rng.randint(1, 3))
        elif move == 1:
            entries[(rng.randint(0, 5), rng.randint(-12, 12))] = F(-rng.randint(1, 3))
        elif entries:
            key = rng.choice(sorted(entries))
            if move == 2:
                del entries[key]
            else:
                entries[key] *= F(rng.randint(1, 5), rng.randint(1, 5))
    return BettiTable(table.vars, entries)


def betti_outcome(t, decomposer, normalized):
    try:
        return [(c, d.sequence, d.values) for c, d in decomposer(t, normalized)]
    except (InvalidTable, NotInCone, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 48), st.booleans())
def test_in_place_greedy_matches_the_copying_greedy(seed, normalized):
    t = random_betti_input(random.Random(seed))
    assert betti_outcome(t, decompose, normalized) == \
        betti_outcome(t, reference_decompose, normalized)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48), st.integers(-4, 4))
def test_integer_diagrams_match_the_reference_on_shifted_chains(seed, shift):
    # The greedy peels smallest-integral diagrams and derives the
    # normalized terms from them; the reference peels first-entry-1 ones.
    rng = random.Random(seed)
    seqs = [DegreeSequence(s.start + shift, s.degrees, s.vars)
            for s in random_chain(rng, vars_count=rng.randint(1, 6), max_terms=6)]
    expected, table = chain_combination(rng, seqs)
    for normalized in (False, True):
        assert betti_outcome(table, decompose, normalized) == \
            betti_outcome(table, reference_decompose, normalized)
    assert [(c, d) for c, d in decompose(table)] == expected


def long_chain(rng, vars_count, length):
    """Degree sequences on one window, each raising one degree by 1."""
    degrees = list(range(vars_count + 1))
    seqs = [DegreeSequence(0, tuple(degrees), vars_count)]
    while len(seqs) < length:
        k = rng.randrange(vars_count + 1)
        if k == vars_count or degrees[k] + 1 < degrees[k + 1]:
            degrees[k] += 1
            seqs.append(DegreeSequence(0, tuple(degrees), vars_count))
    return seqs


def six_hundred_term_chain():
    """A positive combination of the smallest integral diagrams along a
    600-term chain on 12 variables: the table, coefficients and chain."""
    rng = random.Random(600)
    seqs = long_chain(rng, 12, 600)
    entries = {}
    coeffs = []
    for seq in seqs:
        c = F(rng.randint(1, 9), rng.randint(1, 4))
        coeffs.append(c)
        for key, v in smallest_integral(normalized_diagram(seq)).table().entries.items():
            entries[key] = entries.get(key, 0) + c * v
    return BettiTable(12, entries), coeffs, seqs


def test_decompose_copies_no_table_and_reads_minima_from_heaps(monkeypatch):
    table, coeffs, seqs = six_hundred_term_chain()
    calls = {"combine": 0, "first_twists": 0}
    for module in (tables, betti_decomposition):
        for name in calls:
            def counted(*args, _name=name, _original=getattr(tables, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    result = decompose(table)
    assert [(c, d.sequence) for c, d in result] == list(zip(coeffs, seqs))
    assert calls["combine"] == 0 and calls["first_twists"] <= 1


def test_decompose_subtracts_divides_and_compares_no_fraction(monkeypatch):
    # The greedy runs on int pairs: only each term's coefficient and its
    # diagram's values are built as Fractions.
    table, coeffs, seqs = six_hundred_term_chain()
    calls = {}
    for name in ("__sub__", "__rsub__", "__truediv__", "__rtruediv__", "__eq__",
                 "__lt__", "__le__", "__gt__", "__ge__"):
        def counted(*args, _name=name, _original=getattr(F, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(F, name, counted)
    result = decompose(table)
    normalized = decompose(table, normalized=True)
    assert calls == {}
    monkeypatch.undo()
    assert [(c, d.sequence) for c, d in result] == list(zip(coeffs, seqs))
    assert [c for c, _ in normalized] == [c * d.values[0] for c, d in result]


def test_decompose_checks_no_degree_sequence(monkeypatch):
    # Each strand is strictly increasing and at most vars + 1 long by
    # construction, so none goes through the checking constructor.
    table, coeffs, seqs = six_hundred_term_chain()
    checked = []
    post_init = DegreeSequence.__post_init__

    def counted(self):
        checked.append(self)
        post_init(self)
    monkeypatch.setattr(DegreeSequence, "__post_init__", counted)
    result = decompose(table)
    assert checked == []
    monkeypatch.undo()
    assert [(c, d.sequence) for c, d in result] == list(zip(coeffs, seqs))


def recorded_drops(b):
    """``decompose(b)`` with ``_peel`` wrapped: its outcome, and for each
    peel the cells it dropped and those cells' columns' minima before it."""
    original = betti_decomposition._peel
    drops = []

    def recording(work, seq, w):
        minima = {}
        for i, d in work:
            minima[i] = min(d, minima.get(i, d))
        before = set(work)
        result = original(work, seq, w)
        dropped = sorted(before - set(work))
        drops.append((dropped, [(i, minima[i]) for i, _ in dropped]))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(betti_decomposition, "_peel", recording)
        outcome = betti_outcome(b, decompose, False)
    return outcome, drops


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_every_cell_a_peel_drops_was_its_column_minimum(seed):
    # decompose pops a column's stack only where the peel dropped its top
    _, drops = recorded_drops(random_betti_input(random.Random(seed)))
    for dropped, minima in drops:
        assert dropped and dropped == minima


def test_the_long_chain_peels_drop_column_minima_only():
    table, coeffs, seqs = six_hundred_term_chain()
    outcome, drops = recorded_drops(table)
    assert [(c, s) for c, s, _ in outcome] == list(zip(coeffs, seqs))
    assert len(drops) == 600
    assert all(dropped and dropped == minima for dropped, minima in drops)


def test_one_peel_can_empty_two_columns_down_to_their_next_degree():
    # (0,1,2) and (0,2,4) both have integral values 1,2,1: the first peel
    # drops (1,1) and (2,2) together, leaving columns 1 and 2 at 2 and 4
    low, high = DegreeSequence(0, (0, 1, 2), 2), DegreeSequence(0, (0, 2, 4), 2)
    entries = {}
    for seq in (low, high):
        for key, v in smallest_integral(normalized_diagram(seq)).table().entries.items():
            entries[key] = entries.get(key, 0) + v
    outcome, drops = recorded_drops(BettiTable(2, entries))
    assert [dropped for dropped, _ in drops] == [[(1, 1), (2, 2)], [(0, 0), (1, 2), (2, 4)]]
    assert [(c, s) for c, s, _ in outcome] == [(1, low), (1, high)]


def test_the_dented_chain_is_refused_after_exactly_step_peels():
    # the refusal comes before the strand that breaks the chain is peeled,
    # not after the whole table has been
    outcome, drops = recorded_drops(
        parse_table((FIXTURES / "chain_v6_120_dented.bt").read_text()))
    assert outcome[0] is NotInCone and outcome[1].startswith("step 80: ")
    assert len(drops) == 80


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_a_refusal_comes_after_exactly_step_peels(seed):
    outcome, drops = recorded_drops(random_betti_input(random.Random(seed)))
    if isinstance(outcome, tuple) and issubclass(outcome[0], NotInCone):
        assert outcome[1].startswith(f"step {len(drops)}: ")


def read_strands(b):
    """The strands ``decompose(b)`` reads, recorded by wrapping ``_strand_info``."""
    original = betti_decomposition._strand_info
    strands = []

    def recording(minima, vars):
        strands.append(original(minima, vars))
        return strands[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(betti_decomposition, "_strand_info", recording)
        betti_outcome(b, decompose, False)
    return strands


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 48), st.booleans())
def test_each_strand_starts_no_earlier_and_dominates_the_last(seed, chain):
    # The two clauses of the fan order the greedy no longer checks: a peel
    # only raises column minima and never refills a column.
    rng = random.Random(seed)
    if chain:
        seqs = random_chain(rng, vars_count=rng.randint(1, 6), max_terms=6)
        _, b = chain_combination(rng, seqs)
    else:
        b = random_betti_input(rng)
    strands = read_strands(b)
    for last, seq in zip(strands, strands[1:]):
        assert seq.start >= last.start
        for i in range(seq.start, min(last.end, seq.end) + 1):
            assert seq.degrees[i - seq.start] >= last.degrees[i - last.start]


def strand_table(rng):
    """A degree sequence (its window shifted) and a table whose strand
    cells sit on or above a multiple of its pure diagram, then up to three
    of them made absent, zero or negative, and a few cells off the strand."""
    base = random_degree_sequence(rng, max_vars=7)
    seq = DegreeSequence(rng.randint(-3, 3), base.degrees, base.vars)
    strand = [(seq.start + k, d) for k, d in enumerate(seq.degrees)]
    q = F(rng.randint(1, 9), rng.randint(1, 5))
    entries = {}
    for key, v in zip(strand, normalized_diagram(seq).values):
        entries[key] = q * v + rng.choice([0, F(rng.randint(1, 9), rng.randint(1, 7))])
    for _ in range(rng.randint(0, 3)):
        key = rng.choice(strand)
        move = rng.randrange(3)
        if move == 0:
            entries.pop(key, None)
        else:
            entries[key] = F(0) if move == 1 else F(-rng.randint(1, 9), rng.randint(1, 3))
    for _ in range(rng.randint(0, 3)):
        entries[(rng.randint(-4, 10), rng.randint(-25, 25))] = F(rng.randint(-3, 9),
                                                                 rng.randint(1, 4))
    return BettiTable(seq.vars, entries), seq


def peel_outcome(peeler, b, seq):
    try:
        q, remainder = peeler(b, seq)
    except ValueError as exc:
        return str(exc)
    return q, remainder.vars, remainder.entries


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_peel_matches_the_fraction_peel(seed):
    b, seq = strand_table(random.Random(seed))
    assert peel_outcome(peel, b, seq) == peel_outcome(reference_peel, b, seq)


def test_the_strand_tables_reach_every_peel_outcome():
    kinds = set()
    for seed in range(300):
        b, seq = strand_table(random.Random(seed))
        outcome = peel_outcome(peel, b, seq)
        if not isinstance(outcome, str):
            kinds.add("peeled")
        elif outcome.startswith("scale factor"):
            kinds.add("negative")
        else:
            binding = literal_eval(outcome.removeprefix("strand position ")
                                   .removesuffix(" absent from table"))
            kinds.add("stored zero" if binding in b.entries else "absent")
    assert kinds == {"peeled", "negative", "stored zero", "absent"}
