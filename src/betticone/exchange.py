"""Line-oriented exchange format plus the traditional display grids.

Two UTF-8 formats, dispatched on the first non-comment line:

    betti-table v1          coh-table v1
    vars <v>                n <n>
    entry <i> <j> <q>       window <j_lo> <j_hi>
    ...                     chi <c_0> ... <c_n>
                            entry <i> <j> <q>

Integers are ASCII ``-?[0-9]+`` and rationals ``-?[0-9]+(/[0-9]+)?``; any
other token is a parse error.  Lines starting with '#' are comments, entries
may appear in any order, and a repeated (i, j) is a parse error.  One loop
reads both formats, driven by ``DIRECTIVES``.

One reader, ``_read``, turns a file into the header's checked fields and
the entries as reduced int (numerator, positive denominator) pairs, token
by token (``_int``, ``_rational``), with no ``Fraction`` per entry.
``parse_table`` wraps the pairs in ``Fraction``s without reducing them
again (``tables._table``); the CLI's ``member`` hands a Betti table's pairs to the greedy as
they are, and its ``member``, ``validate`` and ``coh-decompose`` build a
cohomology table's ``Numerators`` from them (``tables``).
The pretty printers emit the human-readable grids (Betti entry (i, j) at
column i, row j - i; cohomology entry (i, j) at display column j + i with
row 0 at the bottom) and are not meant to be re-parsed.
"""

from math import gcd

from .errors import ParseError
from .tables import BettiTable, CohomologyTable, _fraction, _table

BETTI_HEADER = "betti-table v1"
COH_HEADER = "coh-table v1"

# Each header's directives besides ``entry``, in the order a missing one is
# reported: the usage of a line of integers, or None for chi's rationals.
DIRECTIVES = {
    BETTI_HEADER: {"vars": "<v>"},
    COH_HEADER: {"n": "<n>", "window": "<j_lo> <j_hi>", "chi": None},
}


def _digits(token):
    # ASCII digits only: str.isdigit alone takes other scripts' digits too.
    return token.isascii() and token.isdigit()


def parse_rational(token, line_no=0):
    """Parse num or num/den strictly: no decimals, exponents or underscores."""
    return _fraction(*_rational(token, line_no))


def _rational(token, line_no=0):
    # parse_rational's value as a reduced int pair (num, den), den > 0.
    num, slash, den = token.partition("/")
    if _digits(num.removeprefix("-")) and (not slash or _digits(den)):
        try:
            num = int(num)
            den = int(den) if slash else 1
        except ValueError:  # digit limit
            pass
        else:
            if den:
                g = gcd(num, den)
                return num // g, den // g
    raise ParseError(line_no, f"bad rational {token!r}")


def _int(token, line_no=0):
    if _digits(token.removeprefix("-")):
        try:
            return int(token)
        except ValueError:  # digit limit
            pass
    raise ParseError(line_no, f"bad integer {token!r}")


def _checked(cls, *fields):
    # An empty table, built only to run the constructor's checks on the fields.
    try:
        return cls(*fields)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def parse_table(text):
    """Parse either exchange format, returning the table.

    The reader's reduced int pairs become the table's Fraction values in
    one pass, and none is reduced again.
    """
    return _table(*_read(text))


def _read(text):
    """(cls, fields, pairs) for either exchange format: the table's class,
    its checked fields besides the entries ((vars,) or (n, window, chi), in
    slot order) and its entries as reduced int (num, den) pairs, den > 0."""
    lines = enumerate(text.splitlines(), start=1)
    for line_no, raw in lines:
        header = " ".join(raw.split())
        if header and not header.startswith("#"):
            break
    else:
        raise ParseError(0, "empty input")
    directives = DIRECTIVES.get(header)
    if directives is None:
        raise ParseError(line_no, f"unknown header {header!r}")
    fields = {}
    line_of = {}
    entries = {}
    for line_no, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        name = parts[0]
        if name == "entry":
            if len(parts) != 4:
                raise ParseError(line_no, "entry lines read: entry <i> <j> <value>")
            key = (_int(parts[1], line_no), _int(parts[2], line_no))
            if key in entries:
                raise ParseError(line_no, f"duplicate entry {key}")
            entries[key] = _rational(parts[3], line_no)
        elif name not in directives:
            raise ParseError(line_no, f"unknown directive {name!r}")
        elif name in fields:
            raise ParseError(line_no, f"repeated {name} line")
        else:
            usage = directives[name]
            if usage is None:
                values = [parse_rational(tok, line_no) for tok in parts[1:]]
            elif len(parts) != len(usage.split()) + 1:
                raise ParseError(line_no, f"{name} lines read: {name} {usage}")
            else:
                values = [_int(tok, line_no) for tok in parts[1:]]
            fields[name] = values
            line_of[name] = line_no
    for name in directives:
        if name not in fields:
            raise ParseError(0, f"missing {name} line")
    if header == BETTI_HEADER:
        return BettiTable, (_checked(BettiTable, *fields["vars"]).vars,), entries
    (n,), chi = fields["n"], fields["chi"]
    if len(chi) != n + 1:
        raise ParseError(line_of["chi"], f"chi needs {n + 1} coefficients, got {len(chi)}")
    empty = _checked(CohomologyTable, n, tuple(fields["window"]), (), chi)
    return CohomologyTable, (empty.n, empty.window, empty.chi), entries


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
