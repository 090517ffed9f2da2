from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticone import (BettiTable, CohomologyTable, ParseError, parse_table,
                       pretty_betti, pretty_cohomology, serialize_table)
from betticone.cli import main
from helpers import reference_parse_table

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


# --- the int-pair reader against the Fraction reference -------------------

def _outcome(parse, text):
    """A parse's table as its fields, or its ParseError as (line, message)."""
    try:
        t = parse(text)
    except ParseError as exc:
        return "error", exc.line_no, exc.message
    assert all(type(v) is Fraction for v in t.entries.values())
    if isinstance(t, BettiTable):
        return "betti", t.vars, t.entries
    return "coh", t.n, t.window, t.chi, t.entries


def _mostly(good, odd, one_in=10):
    # odd about one time in one_in, else good (and good when shrunk)
    return st.integers(0, one_in).flatmap(lambda k: odd if k == one_in // 2 else good)


_ODD_TOKENS = ["-0", "007", "+5", "٥", "5_0", "1/0", "1/00", "3/-4", "2/4", "-6/8",
               "0/3", "1/07", "1.5", "1e3", "x", "-", "/", "1/", "/2", "1/2/3", "²"]
_odd = st.sampled_from(_ODD_TOKENS)
_index = _mostly(st.integers(-30, 30).map(str), _odd, 30)
_number = _mostly(st.integers(-12, 12).map(str)
                  | st.fractions(min_value=-9, max_value=9, max_denominator=6).map(str), _odd, 20)


@st.composite
def _entry_line(draw):
    # Mostly the form serialize_table writes; sometimes other whitespace, a
    # missing or an extra token, or a comment after the value.
    tokens = ["entry", draw(_index), draw(_index), draw(_number)]
    tokens = draw(_mostly(st.just(tokens), st.sampled_from([tokens[:3], tokens + ["# x"]]), 30))
    seps = draw(st.lists(_mostly(st.just(" "), st.sampled_from(["  ", "\t", " \xa0", "\x0b"]), 20),
                         min_size=3, max_size=3))
    line = tokens[0] + "".join(sep + tok for sep, tok in zip(seps, tokens[1:]))
    return draw(_mostly(st.just(line), st.sampled_from(
        [" " + line, "\t" + line, line + " ", line + "\xa0", "\u2028" + line]), 20))


@st.composite
def exchange_texts(draw):
    """A Betti or cohomology text of mostly well-formed lines in any order,
    with comments, blank lines and mixed line ends, and now and then odd
    whitespace, a byte-order mark, a faulty directive or a duplicate entry."""
    if draw(st.booleans()):
        lines = ["betti-table v1", "vars " + draw(_mostly(st.sampled_from("1234"),
                                                          st.sampled_from(["0", "1_0", "2 3"])))]
    else:
        n = draw(st.integers(1, 3))
        size = draw(_mostly(st.just(n + 1), st.sampled_from([n, n + 2])))
        lines = ["coh-table v1", f"n {n}",
                 "window " + draw(_mostly(st.sampled_from(["-2 3", "0 0", "-04 -1"]),
                                          st.sampled_from(["4 1", "0", "0 x"]))),
                 "chi " + " ".join(draw(st.lists(_number, min_size=size, max_size=size)))]
    entries = draw(st.lists(_entry_line(), max_size=12))
    if entries and draw(_mostly(st.just(False), st.just(True), 5)):
        entries.append(draw(st.sampled_from(entries)))
    lines[1:] = draw(st.permutations(lines[1:] + entries))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "   ", "# entry 0 0 1", "\t#x", "\x0c", "\u2028"])))
    ends = draw(st.lists(_mostly(st.sampled_from(["\n", "\r\n"]),
                                 st.sampled_from(["\r", "\x0c", "\u2028", "\x85", " "]), 20),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return draw(_mostly(st.just(text), st.just("\ufeff" + text)))


@settings(max_examples=400, deadline=None)
@given(exchange_texts())
def test_parse_table_is_the_token_by_token_reader(text):
    assert _outcome(parse_table, text) == _outcome(reference_parse_table, text)


@pytest.mark.parametrize("token", ["+5", "٥", "5_0", "1/0", "3/-4", "-0", "9" * 4301,
                                   "9" * 4300],
                         ids=lambda t: f"{len(t)} digits" if len(t) > 9 else t)
@pytest.mark.parametrize("template", [
    "betti-table v1\nvars 3\nentry 0 0 1\nentry {} 1 2\n",
    "betti-table v1\nvars 3\nentry 0 0 1\nentry 1 {} 2\n",
    "betti-table v1\nvars 3\nentry 0 0 1\nentry 1 1 {}\n",
    "coh-table v1\nn 1\nwindow 0 2\nchi 1 1\nentry 0 {} 7/2\n",
    "coh-table v1\nn 1\nwindow 0 2\nchi 1 1\nentry 0 1 {}\n",
], ids=["i", "j", "betti value", "coh twist", "coh value"])
def test_odd_tokens_read_as_the_reference_reads_them(template, token):
    text = template.format(token)
    outcome = _outcome(parse_table, text)
    assert outcome == _outcome(reference_parse_table, text)
    # -0 and 4,300 digits are integers and rationals, 3/-4 is neither, and
    # 4,301 digits pass the grammar but not int()'s digit limit
    assert (outcome[0] != "error") == (token in ("-0", "9" * 4300))


@pytest.mark.parametrize("first, second", [("entry 2 5 1", "entry\t2 5 3/2"),
                                           ("  entry 2 5 1", "entry 2 5 3/2"),
                                           ("entry 2 5 1", "entry 2 5 1/0")])
def test_a_duplicate_is_found_however_each_copy_is_written(first, second):
    # The key repeats whatever the spacing or the value, and is reported
    # before the value of the second copy is read.
    text = f"betti-table v1\nvars 3\n{first}\n# c\n{second}\n"
    with pytest.raises(ParseError) as info:
        parse_table(text)
    assert (info.value.line_no, info.value.message) == (5, "duplicate entry (2, 5)")
    assert _outcome(parse_table, text) == _outcome(reference_parse_table, text)
