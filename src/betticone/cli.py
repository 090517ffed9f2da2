"""Command-line front end.

One subcommand per operation family, deterministic stdout, and three exit
statuses: 0 success, 1 domain errors (printed as ``code: detail``), 2 usage
or parse errors.
"""

import argparse
import re
import sys

from .betti_decomposition import decompose, is_member
from .coh_decomposition import decompose_cohomology, decompose_valid, p1_oracle
from .diagrams import DegreeSequence, integral_diagram, normalized_diagram
from .errors import BettiConeError, NotInCone, OracleMismatch, ParseError
from .exchange import (_int, parse_rational, parse_table, pretty_betti,
                       pretty_cohomology, serialize_table)
from .extension import cancellation_bounds, decide_patterns, polytope_vertices
from .stillman import scan
from .supernatural import RootSequence, _integral_multiple, supernatural_table
from .tables import BettiTable, CohomologyTable, validate

# Flags whose values may start with a minus sign; they are glued to the flag
# before argparse sees them, since bare "-6,3" looks like an option.
_ABSORB = {"--window", "--roots", "-f", "--degrees", "-d", "--serre-shift"}


def _absorb_negative_values(argv):
    out = []
    skip = False
    for k, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _ABSORB and k + 1 < len(argv) and re.match(r"^-\d", argv[k + 1]):
            nxt = argv[k + 1]
            out.append(f"{tok}={nxt}" if tok.startswith("--") else tok + nxt)
            skip = True
        else:
            out.append(tok)
    return out


def _load(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:  # -sig drops a byte-order mark
            text = fh.read()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(0, f"cannot decode {path}: not UTF-8 ({exc.reason})") from None
    return parse_table(text)


def _integers(text):
    # Each token, like each integer flag (type=_int), in the exchange grammar.
    return tuple(_int(tok) for tok in text.split(","))


def _parse_degrees_arg(text, vars_count):
    match = re.fullmatch(r"(.*):\[(.*)\]", text)
    start, body = (_int(match.group(1)), match.group(2)) if match else (0, text)
    try:
        return DegreeSequence(start, _integers(body), vars_count)
    except ValueError as exc:
        raise ParseError(0, f"bad degree sequence {text!r}: {exc}") from None


def _parse_roots_arg(text, n):
    try:
        return RootSequence(n, _integers(text))
    except ValueError as exc:
        raise ParseError(0, f"bad root sequence {text!r}: {exc}") from None


def _parse_window_arg(text):
    try:
        lo, hi = _integers(text)
    except ValueError:
        raise ParseError(0, f"bad window {text!r}, expected lo,hi") from None
    if lo > hi:  # as the exchange parser words it
        raise ParseError(0, f"empty window {(lo, hi)}")
    return lo, hi


def _fmt_seq(values):
    return ",".join(str(v) for v in values)


def _term_line(coeff, diagram):
    seq = diagram.sequence
    return (f"term {coeff} window={seq.start} degrees={_fmt_seq(seq.degrees)} "
            f"values={_fmt_seq(diagram.values)}")


def _cmd_pure(args):
    seq = _parse_degrees_arg(args.degrees, args.vars)
    diagram = integral_diagram(seq) if args.integral else normalized_diagram(seq)
    print(f"diagram window={seq.start} degrees={_fmt_seq(seq.degrees)} "
          f"values={_fmt_seq(diagram.values)}")
    return 0


def _cmd_decompose(args):
    table = _load(args.table)
    if not isinstance(table, BettiTable):
        raise ParseError(0, "decompose expects a Betti table file")
    for coeff, diagram in decompose(table, normalized=args.normalized):
        print(_term_line(coeff, diagram))
    return 0


def _cmd_member(args):
    print(f"in-cone {'yes' if is_member(_load(args.table)) else 'no'}")
    return 0


def _cmd_supernatural(args):
    roots = _parse_roots_arg(args.roots, args.n)
    window = _parse_window_arg(args.window) if args.window else None
    table = supernatural_table(roots, parse_rational(args.multiplicity), window)
    if args.pretty:
        print(pretty_cohomology(table), end="")
    else:
        print(serialize_table(table), end="")
    return 0


def _oracle_terms(table):
    # The P^1 oracle's terms, or None when it finds the table outside the cone.
    try:
        return tuple(p1_oracle(table).terms)
    except NotInCone:
        return None


def _cmd_coh_decompose(args):
    table = _load(args.table)
    if not isinstance(table, CohomologyTable):
        raise ParseError(0, "coh-decompose expects a cohomology table file")
    if args.check_oracle and table.n == 1:
        # The oracle validates the table, so the greedy need not again.
        expected = _oracle_terms(table)
        try:
            result = decompose_valid(table)
        except NotInCone:
            if expected is not None:
                raise OracleMismatch("the oracle decomposes a table the greedy rejects") from None
            raise
        if expected != tuple(result.terms):
            raise OracleMismatch("oracle and greedy decomposition disagree")
    else:
        result = decompose_cohomology(table)
    for coeff, roots in result:
        if args.integral:
            s = _integral_multiple(roots, table.window)
            print(f"term {coeff / s} roots={roots} multiple={s}")
        else:
            print(f"term {coeff} roots={roots}")
    return 0


def _cmd_stillman(args):
    rows = scan(args.e, args.r, args.p_max)
    if args.tsv:
        print("p\tdegrees\tvalues\tintegral\tcodim\tobstruction")
        for row in rows:
            print(f"{row.p}\t{_fmt_seq(row.sequence.degrees)}\t"
                  f"{_fmt_seq(row.diagram.values)}\t{'Y' if row.integral else 'N'}\t"
                  f"{row.obstruction.codim}\t{row.obstruction.verdict}")
    else:
        for row in rows:
            print(f"p={row.p} degrees={_fmt_seq(row.sequence.degrees)} "
                  f"values={_fmt_seq(row.diagram.values)} "
                  f"integral={'yes' if row.integral else 'no'} "
                  f"codim={row.obstruction.codim} "
                  f"obstruction={row.obstruction.verdict}")
    return 0


def _cmd_ext_polytope(args):
    A = _load(args.a)
    B = _load(args.b)
    if not (isinstance(A, CohomologyTable) and isinstance(B, CohomologyTable)):
        raise ParseError(0, "ext-polytope expects two cohomology table files")
    mode = "serre-symmetric" if args.symmetric else "full"
    decided = decide_patterns(A, B, mode=mode, budget=args.max_points,
                              serre_shift=args.serre_shift)
    bounds = cancellation_bounds(A, B)
    support = sorted(bounds)
    caps = {key: int(bounds[key]) for key in support}
    print("# support " + " ".join(f"({i},{j})" for i, j in support))
    print("pattern\tfeasible\tbinding")
    for pattern, table in decided:
        vec = tuple(pattern.get(key, 0) for key in support)
        ok = table is not None
        binding = [f"{i},{j}" for (i, j) in support
                   if pattern.get((i, j), 0) == caps[(i, j)] and caps[(i, j)] > 0]
        print(f"{_fmt_seq(vec)}\t{'Y' if ok else 'N'}\t"
              + (";".join(binding) if ok and binding else "-"))
    feasible_patterns = [p for p, table in decided if table is not None]
    for pattern in polytope_vertices(feasible_patterns, support):
        print(f"vertex\t{_fmt_seq(pattern.get(key, 0) for key in support)}")
    return 0


def _cmd_pretty(args):
    table = _load(args.table)
    if isinstance(table, BettiTable):
        print(pretty_betti(table), end="")
    else:
        print(pretty_cohomology(table), end="")
    return 0


def _cmd_validate(args):
    table = _load(args.table)
    problems = validate(table)
    if not problems:
        print("valid")
        return 0
    for problem in problems:
        print(f"violation: {problem}")
    return 1


def _parser():
    parser = argparse.ArgumentParser(
        prog="betticone",
        description="Exact decomposition of Betti and cohomology tables "
                    "into extremal diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pure", help="pure diagram of a degree sequence")
    p.add_argument("-d", "--degrees", required=True,
                   help="degree sequence, e.g. 0,2,3,4 or 1:[1,3,4]")
    p.add_argument("--vars", type=_int, required=True)
    p.add_argument("--integral", action="store_true",
                   help="smallest integral multiple instead of first entry 1")
    p.set_defaults(handler=_cmd_pure)

    p = sub.add_parser("decompose", help="greedy chain decomposition of a Betti table")
    p.add_argument("table")
    p.add_argument("--normalized", action="store_true",
                   help="report coefficients against first-entry-1 diagrams")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("member", help="cone membership of a table file")
    p.add_argument("table")
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("supernatural", help="supernatural table from a root sequence")
    p.add_argument("-n", type=_int, required=True)
    p.add_argument("-f", "--roots", required=True, help="roots, e.g. 0,-3")
    p.add_argument("-m", "--multiplicity", default="1")
    p.add_argument("--window", help="lo,hi (default: smallest legal window)")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_supernatural)

    p = sub.add_parser("coh-decompose",
                       help="greedy supernatural decomposition of a cohomology table")
    p.add_argument("table")
    p.add_argument("--check-oracle", action="store_true",
                   help="cross-check against the second-difference oracle on P^1")
    p.add_argument("--integral", action="store_true",
                   help="rescale terms to integral window entries")
    p.set_defaults(handler=_cmd_coh_decompose)

    p = sub.add_parser("stillman", help="virtual pure diagram family scan")
    p.add_argument("-e", type=_int, required=True)
    p.add_argument("-r", type=_int, required=True)
    p.add_argument("--p-max", type=_int, required=True)
    p.add_argument("--tsv", action="store_true")
    p.set_defaults(handler=_cmd_stillman)

    p = sub.add_parser("ext-polytope",
                       help="feasible cancellation patterns of an extension")
    p.add_argument("a", metavar="A.ct")
    p.add_argument("b", metavar="B.ct")
    p.add_argument("--symmetric", action="store_true",
                   help="restrict to Serre-symmetric patterns")
    p.add_argument("--max-points", type=_int, default=10 ** 6)
    p.add_argument("--serre-shift", type=_int, default=0)
    p.set_defaults(handler=_cmd_ext_polytope)

    p = sub.add_parser("pretty", help="human-readable grid for a table file")
    p.add_argument("table")
    p.set_defaults(handler=_cmd_pretty)

    p = sub.add_parser("validate", help="check every table invariant")
    p.add_argument("table")
    p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(_absorb_negative_values(argv))
        return args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ParseError as exc:
        print(f"parse-error: {exc}", file=sys.stderr)
        return 2
    except BettiConeError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # constructor preconditions on inline arguments
        print(f"usage-error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
