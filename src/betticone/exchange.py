"""Line-oriented exchange format plus the traditional display grids.

Two UTF-8 formats, dispatched on the first non-comment line:

    betti-table v1          coh-table v1
    vars <v>                n <n>
    entry <i> <j> <q>       window <j_lo> <j_hi>
    ...                     chi <c_0> ... <c_n>
                            entry <i> <j> <q>

Rationals are written num or num/den, lines starting with '#' are comments,
entries may appear in any order, and a repeated (i, j) is a parse error.
The pretty printers emit the human-readable grids (Betti entry (i, j) at
column i, row j - i; cohomology entry (i, j) at display column j + i with
row 0 at the bottom) and are not meant to be re-parsed.
"""

import re
from fractions import Fraction

from .errors import ParseError
from .tables import BettiTable, CohomologyTable, _trusted

BETTI_HEADER = "betti-table v1"
COH_HEADER = "coh-table v1"
RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(token, line_no=0):
    """Parse num or num/den strictly: no decimals, exponents or underscores."""
    if RATIONAL.fullmatch(token):
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):  # zero denominator, digit limit
            pass
    raise ParseError(line_no, f"bad rational {token!r}")


def _int(token, line_no):
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"bad integer {token!r}") from None


def _lines(text):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line.split()


def parse_table(text):
    """Parse either exchange format, returning the table."""
    lines = _lines(text)
    try:
        line_no, first = next(lines)
    except StopIteration:
        raise ParseError(0, "empty input") from None
    header = " ".join(first)
    if header == BETTI_HEADER:
        return _parse_betti(lines)
    if header == COH_HEADER:
        return _parse_coh(lines)
    raise ParseError(line_no, f"unknown header {header!r}")


def _parse_entry(parts, line_no, entries):
    # Stores int keys and Fraction values, the tables' own form: the parsers
    # pass the entries on as they are and build an empty table only to
    # check the other fields.
    if len(parts) != 4:
        raise ParseError(line_no, "entry lines read: entry <i> <j> <value>")
    i = _int(parts[1], line_no)
    j = _int(parts[2], line_no)
    if (i, j) in entries:
        raise ParseError(line_no, f"duplicate entry ({i}, {j})")
    entries[(i, j)] = parse_rational(parts[3], line_no)


def _parse_betti(lines):
    vars_count = None
    entries = {}
    for line_no, parts in lines:
        if parts[0] == "vars":
            if vars_count is not None:
                raise ParseError(line_no, "repeated vars line")
            if len(parts) != 2:
                raise ParseError(line_no, "vars lines read: vars <v>")
            vars_count = _int(parts[1], line_no)
        elif parts[0] == "entry":
            _parse_entry(parts, line_no, entries)
        else:
            raise ParseError(line_no, f"unknown directive {parts[0]!r}")
    if vars_count is None:
        raise ParseError(0, "missing vars line")
    try:
        empty = BettiTable(vars_count)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None
    return _trusted(BettiTable, entries, vars=empty.vars)


def _parse_coh(lines):
    n = window = chi = None
    entries = {}
    for line_no, parts in lines:
        if parts[0] == "n":
            if n is not None:
                raise ParseError(line_no, "repeated n line")
            if len(parts) != 2:
                raise ParseError(line_no, "n lines read: n <n>")
            n = _int(parts[1], line_no)
        elif parts[0] == "window":
            if window is not None:
                raise ParseError(line_no, "repeated window line")
            if len(parts) != 3:
                raise ParseError(line_no, "window lines read: window <j_lo> <j_hi>")
            window = (_int(parts[1], line_no), _int(parts[2], line_no))
        elif parts[0] == "chi":
            if chi is not None:
                raise ParseError(line_no, "repeated chi line")
            chi = [parse_rational(tok, line_no) for tok in parts[1:]]
            chi_line = line_no
        elif parts[0] == "entry":
            _parse_entry(parts, line_no, entries)
        else:
            raise ParseError(line_no, f"unknown directive {parts[0]!r}")
    if n is None:
        raise ParseError(0, "missing n line")
    if window is None:
        raise ParseError(0, "missing window line")
    if chi is None:
        raise ParseError(0, "missing chi line")
    if len(chi) != n + 1:
        raise ParseError(chi_line, f"chi needs {n + 1} coefficients, got {len(chi)}")
    try:
        empty = CohomologyTable(n, window, (), chi)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None
    return _trusted(CohomologyTable, entries, n=empty.n, window=empty.window, chi=empty.chi)


def serialize_table(t):
    """Canonical exchange text: entries sorted by (i, j), no comments."""
    if isinstance(t, BettiTable):
        lines = [BETTI_HEADER, f"vars {t.vars}"]
    else:
        lines = [COH_HEADER, f"n {t.n}",
                 f"window {t.window[0]} {t.window[1]}",
                 "chi " + " ".join(str(c) for c in t.chi)]
    for (i, j) in t.support():
        lines.append(f"entry {i} {j} {t.entries[(i, j)]}")
    return "\n".join(lines) + "\n"


def _grid(col_labels, row_labels, cells):
    widths = [max(len(label), max((len(row[c]) for row in cells), default=0))
              for c, label in enumerate(col_labels)]
    label_width = max(len(label) for label in row_labels)
    out = [" " * label_width + "  "
           + "  ".join(label.rjust(w) for label, w in zip(col_labels, widths))]
    for label, row in zip(row_labels, cells):
        out.append(label.rjust(label_width) + "  "
                   + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(out) + "\n"


def pretty_betti(t):
    """Grid with column i, row j - i; dashes mark absent entries."""
    if t.is_zero():
        return "(zero table)\n"
    cols = sorted({i for i, _ in t.entries})
    rows = sorted({j - i for i, j in t.entries})
    col_range = range(cols[0], cols[-1] + 1)
    row_range = range(rows[0], rows[-1] + 1)
    cells = [[str(t.entries.get((i, k + i), "-")) for i in col_range]
             for k in row_range]
    return _grid([str(i) for i in col_range],
                 [f"{k}:" for k in row_range], cells)


def pretty_cohomology(t):
    """Grid with row i = h^i (top row h^n) and entry (i, j) at column j + i."""
    lo, hi = t.window
    if t.entries:
        positions = [j + i for i, j in t.entries]
        col_range = range(min(positions), max(positions) + 1)
    else:
        col_range = range(lo, hi + 1)
    cells = []
    labels = []
    for i in range(t.n, -1, -1):
        labels.append(f"h{i}:")
        cells.append([str(t.entries.get((i, c - i), "-")) for c in col_range])
    return _grid([str(c) for c in col_range], labels, cells)
