"""The package's immutable value types, all built on ``tables.Record``."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import betticone.stillman as stillman
from betticone import (BettiDecomposition, BettiTable, CohDecomposition,
                       CohomologyTable, DegreeSequence, IntegralityViolation, PureDiagram,
                       RootSequence, StillmanParams, decompose, normalized_diagram,
                       stillman_diagram)
from betticone.stillman import Obstruction, ScanRow

F = Fraction


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S leaves out the site module's own imports, so only the package's count.
    code = ("import sys, betticone.cli; "
            "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
    # A whole run parses its arguments without argparse and what it imports.
    code = ("import sys; from betticone.cli import main; "
            "main(['pure', '-d', '0,1', '--vars', '1']); print(sorted("
            "{'argparse', 'gettext', 'locale', 'shutil', 'dataclasses', 'inspect'}"
            " & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "diagram window=0 degrees=0,1 values=1,1\n[]\n"


def test_repr_lists_every_field():
    assert repr(RootSequence(2, [3, -1])) == "RootSequence(n=2, roots=(3, -1))"
    assert repr(DegreeSequence(-1, [1, 2], 3)) == \
        "DegreeSequence(start=-1, degrees=(1, 2), vars=3)"
    assert repr(StillmanParams(2, 3, 1)) == "StillmanParams(e=2, r=3, p=1)"
    assert repr(CohDecomposition(())) == "CohDecomposition(terms=())"


def test_integrality_violation_names_the_parameters(monkeypatch):
    def halved(sequence):
        return PureDiagram(sequence, (F(1, 2),) * len(sequence))
    monkeypatch.setattr(stillman, "normalized_diagram", halved)
    with pytest.raises(IntegralityViolation) as info:
        stillman_diagram(StillmanParams(2, 3, 1))
    assert str(info.value) == \
        "entry 1/2 of the StillmanParams(e=2, r=3, p=1) diagram is not an integer"


def test_equality_and_hash_go_by_exact_class_and_fields():
    a = DegreeSequence(0, (0, 2, 3), 3)
    b = DegreeSequence(start=0, degrees=[0, 2, 3], vars=3)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != DegreeSequence(1, (0, 2, 3), 3)
    assert a.__eq__((0, (0, 2, 3), 3)) is NotImplemented
    # the same field values in another record type
    assert BettiDecomposition(()) != CohDecomposition(())
    assert StillmanParams(2, 3, 1) == StillmanParams(2, 3, 1)
    assert hash(StillmanParams(2, 3, 1)) == hash(StillmanParams(2, 3, 1))


def test_fields_cannot_be_assigned_or_deleted():
    r = RootSequence(2, (3, -1))
    with pytest.raises(AttributeError):
        r.n = 3
    with pytest.raises(AttributeError):
        del r.roots
    with pytest.raises(AttributeError):
        r.extra = 1
    assert r == RootSequence(2, (3, -1))


def test_fields_bind_by_position_or_keyword():
    assert StillmanParams(2, r=3, p=1) == StillmanParams(p=1, e=2, r=3) == \
        StillmanParams(2, 3, 1)
    for args, kwargs in [((2, 3), {}), ((2, 3, 1, 0), {}), ((2, 3, 1), {"e": 2}),
                         ((2, 3, 1), {"q": 0}), ((), {"e": 2, "r": 3})]:
        with pytest.raises(TypeError):
            StillmanParams(*args, **kwargs)


_SEQUENCE = DegreeSequence(0, (0, 2, 3), 3)
_DIAGRAM = normalized_diagram(_SEQUENCE)
_OBSTRUCTION = Obstruction("inconclusive", 2, 3)


@pytest.mark.parametrize("cls, args", [
    (DegreeSequence, (0, (0, 2, 3), 3)),
    (PureDiagram, (_SEQUENCE, (1, 3, 2))),
    (RootSequence, (2, (3, -1))),
    (CohDecomposition, (((F(1, 2), RootSequence(1, (0,))),),)),
    (BettiDecomposition, (((F(1), _DIAGRAM),),)),
    (StillmanParams, (2, 3, 1)),
    (Obstruction, ("inconclusive", 2, 3)),
    (ScanRow, (0, _SEQUENCE, _DIAGRAM, True, _OBSTRUCTION)),
])
def test_every_record_binds_its_fields_as_a_function_would(cls, args):
    fields = dict(zip(cls.__slots__, args))
    assert cls(**fields) == cls(*args)
    assert cls(*args[:1], **dict(list(fields.items())[1:])) == cls(*args)
    first, last = cls.__slots__[0], cls.__slots__[-1]
    # missing, extra, doubled and unknown, each with a word its refusal names
    for bad_args, bad_kwargs, word in [(args[:-1], {}, repr(last)),
                                       ((*args, 0), {}, "positional"),
                                       (args, {first: args[0]}, repr(first)),
                                       (args, {"unknown": 0}, "'unknown'")]:
        with pytest.raises(TypeError) as info:
            cls(*bad_args, **bad_kwargs)
        assert str(info.value).startswith(f"{cls.__name__}() ")
        assert word in str(info.value)


def test_post_init_normalizes_the_fields():
    s = DegreeSequence(F(-1), [F(1), 2.0], F(3))
    assert (s.start, s.degrees, s.vars) == (-1, (1, 2), 3)
    assert all(type(x) is int for x in (s.start, s.vars, *s.degrees))
    assert RootSequence(n=2, roots=[F(3), -1]).roots == (3, -1)
    assert PureDiagram(s, (1, 2)).values == (F(1), F(2))


@pytest.mark.parametrize("make, message", [
    (lambda: DegreeSequence(0, (1,), 0), "vars must be positive, got 0"),
    (lambda: DegreeSequence(0, (), 2), "length 0 not in 1..3"),
    (lambda: DegreeSequence(0, (2, 1), 2), "degrees not strictly increasing: (2, 1)"),
    (lambda: RootSequence(0, ()), "n must be positive, got 0"),
    (lambda: RootSequence(2, (1,)), "expected 2 roots, got 1"),
    (lambda: RootSequence(2, (1, 1)), "roots not strictly decreasing: (1, 1)"),
    (lambda: StillmanParams(0, 2, 0), "e must be >= 1, got 0"),
    (lambda: StillmanParams(1, 1, 0), "r must be >= 2, got 1"),
    (lambda: StillmanParams(1, 2, -1), "p must be >= 0, got -1"),
    (lambda: PureDiagram(DegreeSequence(0, (0, 1), 1), (1,)),
     "one value per degree required"),
    (lambda: PureDiagram(DegreeSequence(0, (0, 1), 1), (1, 0)),
     "diagram values must be positive: (Fraction(1, 1), Fraction(0, 1))"),
])
def test_post_init_refuses_bad_fields(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_copies_and_pickles_rebuild_equal_records():
    table = BettiTable(2, {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1})
    coh = CohomologyTable(2, (-3, 1), {(0, 0): F(1, 2), (2, -3): 3}, (1, F(3, 2), 0))
    for r in (DegreeSequence(-1, (1, 2), 3), RootSequence(2, (3, -1)),
              StillmanParams(2, 3, 1), decompose(table), table, coh):
        assert copy.copy(r) == r == copy.deepcopy(r) == pickle.loads(pickle.dumps(r))


def test_tables_refuse_assignment_and_hashing():
    for t in (BettiTable(2, {(0, 0): 1}), CohomologyTable(1, (0, 1), (), (1, 1))):
        with pytest.raises(AttributeError):
            t.entries = {}
        with pytest.raises(AttributeError):
            del t.entries
        with pytest.raises(TypeError):
            hash(t)
