from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticone import (BettiTable, CohomologyTable, ParseError, parse_table,
                       pretty_betti, pretty_cohomology, serialize_table)
from betticone.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_round_trip_all_fixtures():
    for path in sorted(FIXTURES.iterdir()):
        text = path.read_text()
        table = parse_table(text)
        again = parse_table(serialize_table(table))
        assert again == table, path.name


def test_serialize_is_canonical():
    t = BettiTable(2, {(1, 2): 1, (0, 0): 2})
    assert serialize_table(t) == (
        "betti-table v1\nvars 2\nentry 0 0 2\nentry 1 2 1\n")


def test_parse_accepts_comments_and_blank_lines():
    text = "# leading comment\n\nbetti-table v1\nvars 2\n# mid comment\nentry 0 0 1\n"
    assert parse_table(text) == BettiTable(2, {(0, 0): 1})


def test_parse_rational_entries():
    text = "betti-table v1\nvars 2\nentry 0 0 2/3\nentry 1 2 -1/3\n"
    t = parse_table(text)
    assert t.value(0, 0) * 3 == 2
    assert t.value(1, 2) * 3 == -1


def test_parse_duplicate_entry_is_error():
    text = "betti-table v1\nvars 2\nentry 0 0 1\nentry 0 0 2\n"
    with pytest.raises(ParseError) as info:
        parse_table(text)
    assert info.value.line_no == 4


def test_parse_unknown_header():
    with pytest.raises(ParseError):
        parse_table("wat v1\n")
    with pytest.raises(ParseError):
        parse_table("")


def test_parse_missing_directives():
    with pytest.raises(ParseError):
        parse_table("betti-table v1\nentry 0 0 1\n")
    with pytest.raises(ParseError):
        parse_table("coh-table v1\nn 1\nwindow 0 1\n")


def test_parse_chi_arity():
    text = "coh-table v1\nn 2\nwindow 0 1\nchi 1 2\n"
    with pytest.raises(ParseError) as info:
        parse_table(text)
    assert "3 coefficients" in str(info.value)


def test_parse_bad_tokens():
    with pytest.raises(ParseError):
        parse_table("betti-table v1\nvars x\n")
    with pytest.raises(ParseError):
        parse_table("betti-table v1\nvars 2\nentry 0 0 1/0\n")


@pytest.mark.parametrize("token", ["1.5", "1e3", "1_5", "+3", "1/-2", "0x10",
                                   "\u0661", "1e5000", "1/0"])
def test_parse_rejects_tokens_outside_the_rational_grammar(token):
    text = f"coh-table v1\nn 1\nwindow 0 1\nchi 1 1\nentry 0 0 {token}\n"
    with pytest.raises(ParseError) as info:
        parse_table(text)
    assert info.value.line_no == 5
    assert info.value.message == f"bad rational {token!r}"
    with pytest.raises(ParseError) as info:
        parse_table(f"coh-table v1\nn 1\nwindow 0 1\nchi 1 {token}\n")
    assert info.value.line_no == 4


def test_parse_accepts_the_rational_grammar():
    text = "coh-table v1\nn 1\nwindow 0 1\nchi -0 007/14\nentry 0 0 -12/8\n"
    t = parse_table(text)
    assert t.chi == (0, Fraction(1, 2))
    assert t.entries == {(0, 0): Fraction(-3, 2)}


# One template per integer field; the token replaces {} and the error names
# the line it sits on.
INTEGER_FIELDS = [
    ("betti-table v1\nvars {}\n", 2),
    ("betti-table v1\nvars 2\nentry {} 0 1\n", 3),
    ("betti-table v1\nvars 2\nentry 0 {} 1\n", 3),
    ("coh-table v1\nn {}\nwindow 0 1\nchi 1 1\n", 2),
    ("coh-table v1\nn 1\nwindow {} 1\nchi 1 1\n", 3),
    ("coh-table v1\nn 1\nwindow 0 {}\nchi 1 1\n", 3),
    ("coh-table v1\nn 1\nwindow 0 1\nchi 1 1\nentry {} 0 1\n", 5),
    ("coh-table v1\nn 1\nwindow 0 1\nchi 1 1\nentry 0 {} 1\n", 5),
]


@pytest.mark.parametrize("token", ["1_0", "+2", "\u0662", "1.0", "0x1"])
def test_parse_rejects_tokens_outside_the_integer_grammar(token, tmp_path, capsys):
    for template, line_no in INTEGER_FIELDS:
        text = template.format(token)
        with pytest.raises(ParseError) as info:
            parse_table(text)
        assert info.value.line_no == line_no
        assert info.value.message == f"bad integer {token!r}"
        path = tmp_path / "table.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"parse-error: line {line_no}: bad integer {token!r}\n"


def test_parse_rejects_numbers_past_the_digit_limit():
    digits = "9" * 5000
    with pytest.raises(ParseError) as info:
        parse_table(f"betti-table v1\nvars {digits}\n")
    assert info.value.message == f"bad integer {digits!r}"
    with pytest.raises(ParseError) as info:
        parse_table(f"betti-table v1\nvars 2\nentry 0 0 1/{digits}\n")
    assert info.value.message == f"bad rational {'1/' + digits!r}"


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
cells = st.dictionaries(st.tuples(st.integers(-4, 6), st.integers(-30, 30)),
                        rationals, max_size=12)


@st.composite
def exchange_tables(draw):
    if draw(st.booleans()):
        return BettiTable(draw(st.integers(1, 12)), draw(cells))
    n = draw(st.integers(1, 4))
    lo = draw(st.integers(-20, 20))
    window = (lo, lo + draw(st.integers(0, 15)))
    chi = draw(st.lists(rationals, min_size=n + 1, max_size=n + 1))
    return CohomologyTable(n, window, draw(cells), chi)


@settings(max_examples=150, deadline=None)
@given(exchange_tables(), st.randoms(use_true_random=False))
def test_round_trip_with_comments_blanks_and_shuffled_lines(t, rnd):
    text = serialize_table(t)
    header, *body = text.splitlines()
    rnd.shuffle(body)
    lines = [header] + body
    for _ in range(rnd.randint(0, 4)):
        lines.insert(rnd.randint(0, len(lines)), rnd.choice(["", "  ", "# note", "  #x 1 2"]))
    parsed = parse_table("\n".join(lines) + "\n")
    assert parsed == t
    assert serialize_table(parsed) == text
    assert serialize_table(parse_table(serialize_table(parsed))) == text


def test_pretty_betti_grid():
    t = parse_table((FIXTURES / "xy2.bt").read_text())
    assert pretty_betti(t) == (
        "    0  1  2\n"
        "0:  1  1  -\n"
        "1:  -  1  1\n")


def test_pretty_betti_zero_table():
    assert pretty_betti(BettiTable(2)) == "(zero table)\n"


def test_pretty_cohomology_grid():
    t = parse_table((FIXTURES / "p2_structure_sheaf.ct").read_text())
    assert pretty_cohomology(t) == (
        "     -3  -2  -1  0  1  2   3\n"
        "h2:   6   3   1  -  -  -   -\n"
        "h1:   -   -   -  -  -  -   -\n"
        "h0:   -   -   -  1  3  6  10\n")


def test_pretty_cohomology_zero_window():
    t = CohomologyTable(1, (-1, 1))
    out = pretty_cohomology(t)
    assert out == (
        "     -1  0  1\n"
        "h1:   -  -  -\n"
        "h0:   -  -  -\n")
