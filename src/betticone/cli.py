"""Command-line front end.

One subcommand per operation family, deterministic stdout, and four exit
statuses: 0 success, 1 domain errors (printed as ``code: detail``), 2 usage
or parse errors, 141 (128 + SIGPIPE) when stdout's reader has gone.
"""

import gc
import os
import re
import sys
from types import SimpleNamespace

from .betti_decomposition import _decompose, decompose, is_member
from .coh_decomposition import _empties, _p1_oracle, _valid, decompose_valid
from .diagrams import DegreeSequence, integral_diagram, normalized_diagram
from .errors import BettiConeError, NotInCone, OracleMismatch, ParseError
from .exchange import (_checked, _int, _read, parse_rational, parse_table, pretty_betti,
                       pretty_cohomology, serialize_table)
from .extension import _hull_vertices, decide_patterns
from .stillman import scan
from .supernatural import RootSequence, _integral_multiple, supernatural_table
from .tables import BettiTable, CohomologyTable, Numerators, _table, validate


def _text(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:  # -sig drops a byte-order mark
            return fh.read()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(0, f"cannot decode {path}: not UTF-8 ({exc.reason})") from None


def _load(path):
    return parse_table(_text(path))


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
    return _checked(CohomologyTable, 1, (lo, hi)).window


def _fmt_seq(values):
    return ",".join(map(str, values))


def _diagram_fields(diagram):
    seq = diagram.sequence
    return (f"window={seq.start} degrees={_fmt_seq(seq.degrees)} "
            f"values={_fmt_seq(diagram.values)}")


def _term_line(coeff, diagram):
    return f"term {coeff} {_diagram_fields(diagram)}"


def _cmd_pure(args):
    seq = _parse_degrees_arg(args.degrees, args.vars)
    diagram = integral_diagram(seq) if args.integral else normalized_diagram(seq)
    print(f"diagram {_diagram_fields(diagram)}")
    return 0


def _cmd_decompose(args):
    table = _load(args.table)
    if not isinstance(table, BettiTable):
        raise ParseError(0, "decompose expects a Betti table file")
    # decompose returns once the greedy is done, so a refusal prints no term
    lines = [_term_line(coeff, diagram)
             for coeff, diagram in decompose(table, normalized=args.normalized)]
    if lines:
        print("\n".join(lines))
    return 0


def _cmd_member(args):
    cls, fields, pairs = _read(_text(args.table))
    in_cone = (_empties(_decompose(*fields, pairs)) if cls is BettiTable
               else is_member(Numerators((*fields, pairs))))
    print(f"in-cone {'yes' if in_cone else 'no'}")
    return 0


def _cmd_supernatural(args):
    roots = _parse_roots_arg(args.roots, args.n)
    window = _parse_window_arg(args.window) if args.window else None
    table = supernatural_table(roots, parse_rational(args.multiplicity), window)
    print((pretty_cohomology if args.pretty else serialize_table)(table), end="")
    return 0


def _cmd_coh_decompose(args):
    cls, fields, pairs = _read(_text(args.table))
    if cls is not CohomologyTable:
        raise ParseError(0, "coh-decompose expects a cohomology table file")
    wide = _valid(Numerators((*fields, pairs)))
    checked = args.check_oracle and wide.n == 1
    if checked:  # the oracle reads the widened rows before the greedy empties them
        try:
            expected = tuple(_p1_oracle(wide).terms)
        except NotInCone:
            expected = None
    try:
        result = decompose_valid(wide)
    except NotInCone:
        if checked and expected is not None:
            raise OracleMismatch("the oracle decomposes a table the greedy rejects") from None
        raise
    if checked and expected != tuple(result.terms):
        raise OracleMismatch("oracle and greedy decomposition disagree")
    for coeff, roots in result:
        if args.integral:
            s = _integral_multiple(roots)
            print(f"term {coeff / s} roots={roots} multiple={s}")
        else:
            print(f"term {coeff} roots={roots}")
    return 0


def _cmd_stillman(args):
    rows = scan(args.e, args.r, args.p_max)
    names = ("p", "degrees", "values", "integral", "codim", "obstruction")
    yes, no = ("Y", "N") if args.tsv else ("yes", "no")
    if args.tsv:
        print("\t".join(names))
    for row in rows:
        values = (row.p, _fmt_seq(row.sequence.degrees), _fmt_seq(row.diagram.values),
                  yes if row.integral else no, row.obstruction.codim, row.obstruction.verdict)
        print("\t".join(map(str, values)) if args.tsv
              else " ".join(f"{name}={value}" for name, value in zip(names, values)))
    return 0


def _cmd_ext_polytope(args):
    A = _load(args.a)
    B = _load(args.b)
    if not (isinstance(A, CohomologyTable) and isinstance(B, CohomologyTable)):
        raise ParseError(0, "ext-polytope expects two cohomology table files")
    mode = "serre-symmetric" if args.symmetric else "full"
    support, caps, _, rows = decide_patterns(A, B, mode=mode, budget=args.max_points,
                                             serre_shift=args.serre_shift)
    labels = [f"{i},{j}" for i, j in support]
    print("# support " + " ".join(f"({label})" for label in labels))
    print("pattern\tfeasible\tbinding")
    feasible = []  # each row is printed as it is decided; only these are kept
    for vector, in_cone in rows:
        if in_cone:  # a key binds at its own cap
            feasible.append(vector)
            binding = [label for label, v, cap in zip(labels, vector, caps) if v == cap > 0]
            print(f"{_fmt_seq(vector)}\tY\t{';'.join(binding) or '-'}")
        else:
            print(f"{_fmt_seq(vector)}\tN\t-")
    for k in _hull_vertices(feasible):
        print(f"vertex\t{_fmt_seq(feasible[k])}")
    return 0


def _cmd_pretty(args):
    table = _load(args.table)
    pretty = pretty_betti if isinstance(table, BettiTable) else pretty_cohomology
    print(pretty(table), end="")
    return 0


def _cmd_validate(args):
    cls, fields, pairs = _read(_text(args.table))
    problems = validate(Numerators((*fields, pairs)) if cls is CohomologyTable
                        else _table(cls, fields, pairs))
    if not problems:
        print("valid")
        return 0
    for problem in problems:
        print(f"violation: {problem}")
    return 1


# Each subcommand's handler, help line and arguments (names, dest, kind,
# default, help): a positional has one name, without a leading "-"; kind is
# _int or str for a value, None for a flag; a default of ... means required.
_TABLE_FILE = ("table", "table", str, ..., "")
_GRAMMAR = {
    "pure": (_cmd_pure, "pure diagram of a degree sequence", [
        ("-d --degrees", "degrees", str, ..., "degree sequence, e.g. 0,2,3,4 or 1:[1,3,4]"),
        ("--vars", "vars", _int, ..., ""),
        ("--integral", "integral", None, False,
         "smallest integral multiple instead of first entry 1")]),
    "decompose": (_cmd_decompose, "greedy chain decomposition of a Betti table", [
        _TABLE_FILE, ("--normalized", "normalized", None, False,
                 "report coefficients against first-entry-1 diagrams")]),
    "member": (_cmd_member, "cone membership of a table file", [_TABLE_FILE]),
    "supernatural": (_cmd_supernatural, "supernatural table from a root sequence", [
        ("-n", "n", _int, ..., ""),
        ("-f --roots", "roots", str, ..., "roots, e.g. 0,-3"),
        ("-m --multiplicity", "multiplicity", str, "1", ""),
        ("--window", "window", str, None, "lo,hi (default: smallest legal window)"),
        ("--pretty", "pretty", None, False, "")]),
    "coh-decompose": (_cmd_coh_decompose,
                      "greedy supernatural decomposition of a cohomology table", [
        _TABLE_FILE, ("--check-oracle", "check_oracle", None, False,
                 "cross-check against the second-difference oracle on P^1"),
        ("--integral", "integral", None, False,
         "rescale terms to integral window entries")]),
    "stillman": (_cmd_stillman, "virtual pure diagram family scan", [
        ("-e", "e", _int, ..., ""), ("-r", "r", _int, ..., ""),
        ("--p-max", "p_max", _int, ..., ""), ("--tsv", "tsv", None, False, "")]),
    "ext-polytope": (_cmd_ext_polytope, "feasible cancellation patterns of an extension", [
        ("A.ct", "a", str, ..., ""), ("B.ct", "b", str, ..., ""),
        ("--symmetric", "symmetric", None, False, "restrict to Serre-symmetric patterns"),
        ("--max-points", "max_points", _int, 10 ** 6, ""),
        ("--serre-shift", "serre_shift", _int, 0, "")]),
    "pretty": (_cmd_pretty, "human-readable grid for a table file", [_TABLE_FILE]),
    "validate": (_cmd_validate, "check every table invariant", [_TABLE_FILE]),
}


def _synopsis(command=None):
    """Help text for the CLI, or for one subcommand, from _GRAMMAR."""
    head = ("usage: betticone [-h] <command> ...\n\nExact decomposition of Betti and "
            "cohomology tables into extremal diagrams.\n\ncommands:")
    rows = [(name, entry[1]) for name, entry in _GRAMMAR.items()]
    if command:
        words, rows = [], []
        for names, dest, kind, default, text in _GRAMMAR[command][2]:
            value = f" {dest.upper()}" if kind and names[0] == "-" else ""
            word = names.split()[0] + value
            words.append(word if default is ... else f"[{word}]")
            rows.append((", ".join(names.split()) + value, text))
        head = f"usage: betticone {command} [-h] {' '.join(words)}\n\narguments:"
    width = max(len(label) for label, _ in rows)
    return "\n".join([head] + [f"  {label:<{width}}  {text}".rstrip()
                                for label, text in rows])


def _parse(argv):
    """The handler's arguments from argv, with the handler itself as
    ``handler``, or None once help is printed; a grammar error raises
    ValueError.  See the README's "Command line" for the accepted forms."""
    command, *tokens = argv or [None]
    if command in ("-h", "--help"):
        return print(_synopsis())
    if command not in _GRAMMAR:
        raise ValueError((f"unknown command {command!r}" if command else "missing command")
                         + f", expected one of {', '.join(_GRAMMAR)}")
    handler, _, spec = _GRAMMAR[command]
    values = {"command": command, "handler": handler}
    values.update((dest, default) for _, dest, _, default, _ in spec)
    options = {name: (dest, kind) for names, dest, kind, *_ in spec
               for name in names.split() if name[0] == "-"}
    positionals = [dest for names, dest, *_ in spec if names[0] != "-"]
    tokens = iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            return print(_synopsis(command))
        if not token.startswith("-"):
            if not positionals:
                raise ValueError(f"unexpected argument {token!r} for {command}")
            values[positionals.pop(0)] = token
            continue
        name, eq, value = token.partition("=")
        if name not in options and not token.startswith("--") and token[:2] in options:
            name, eq, value = token[:2], "=", token[2:]  # -fVALUE
        if name not in options:
            raise ValueError(f"unknown option {name!r} for {command}")
        dest, kind = options[name]
        if kind is None and eq:
            raise ValueError(f"option {name} takes no value")
        if kind and not eq:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"option {name} needs a value")
        values[dest] = kind(value) if kind else True
    missing = ["/".join(names.split()) for names, dest, *_ in spec if values[dest] is ...]
    if missing:
        raise ValueError(f"{command} needs {', '.join(missing)}")
    return SimpleNamespace(**values)


def main(argv=None):
    entry = argv is None
    argv = list(sys.argv[1:] if entry else argv)
    try:
        args = _parse(argv)
        status = args.handler(args) if args else 0
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return status
    except BrokenPipeError:
        # keep the interpreter's exit flush quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ParseError as exc:
        print(f"parse-error: {exc}", file=sys.stderr)
        return 2
    except BettiConeError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # grammar errors, preconditions on inline arguments
        print(f"usage-error: {exc}", file=sys.stderr)
        return 2
    finally:
        if entry:  # the process ends next: its exit collections need not walk this heap
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
