from fractions import Fraction

import pytest

import betticone.stillman as stillman
from betticone import (PureDiagram, StillmanParams, decompose, realizability_obstruction,
                       scan, stillman_diagram, stillman_sequence)
from betticone.cli import main

F = Fraction


def test_params_validation():
    with pytest.raises(ValueError):
        StillmanParams(0, 2, 0)
    with pytest.raises(ValueError):
        StillmanParams(1, 1, 0)
    with pytest.raises(ValueError):
        StillmanParams(1, 2, -1)


def test_sequence_e1_r2_p1():
    seq = stillman_sequence(StillmanParams(1, 2, 1))
    assert seq.degrees == (0, 1, 3, 4)
    assert seq.vars == 3


def test_sequence_e2_r3_p2():
    seq = stillman_sequence(StillmanParams(2, 3, 2))
    assert seq.degrees == (0, 2, 8, 10, 12, 14, 16, 18)
    assert seq.vars == 7


def test_sequence_p0_collapses():
    assert stillman_sequence(StillmanParams(2, 3, 0)).degrees == (0, 2, 4, 6)


def test_diagram_0134():
    assert stillman_diagram(StillmanParams(1, 2, 1)).values == (1, 2, 2, 1)


def test_diagram_e2_r3_p2():
    diagram = stillman_diagram(StillmanParams(2, 3, 2))
    assert diagram.values == (1, 3, 42, 126, 168, 120, 45, 7)


def test_diagram_koszul_case():
    assert stillman_diagram(StillmanParams(1, 2, 0)).values == (1, 2, 1)


def test_obstruction_verdicts():
    big = stillman_diagram(StillmanParams(2, 3, 2))
    assert realizability_obstruction(big, 3).verdict == "not-realizable-as-cyclic"
    assert realizability_obstruction(big, 3).codim == 7
    koszul = stillman_diagram(StillmanParams(1, 2, 0))
    assert realizability_obstruction(koszul, 2).verdict == "inconclusive"
    virtual = stillman_diagram(StillmanParams(1, 2, 1))
    assert realizability_obstruction(virtual, 2).verdict == "not-realizable-as-cyclic"


def test_scan_rows():
    rows = scan(2, 3, 3)
    assert [row.p for row in rows] == [0, 1, 2, 3]
    for row in rows:
        assert row.integral
        assert row.diagram.values[0] == 1
        assert row.diagram.values[1] == 3
        assert row.sequence.degrees[1] == 2
    assert rows[0].obstruction.verdict == "inconclusive"
    assert all(r.obstruction.verdict == "not-realizable-as-cyclic" for r in rows[1:])


def test_scan_single_row():
    rows = scan(1, 2, 0)
    assert len(rows) == 1
    assert rows[0].diagram.values == (1, 2, 1)


def test_scan_spot_check_integrality():
    assert all(row.integral for row in scan(3, 4, 5))


def test_family_diagrams_sit_on_extremal_rays():
    for params in (StillmanParams(1, 2, 1), StillmanParams(2, 3, 1),
                   StillmanParams(2, 2, 3)):
        diagram = stillman_diagram(params)
        terms = list(decompose(diagram.table()))
        assert len(terms) == 1
        assert terms[0][0] == 1
        assert terms[0][1].values == diagram.values


def test_beta_one_closed_form():
    for e in range(1, 4):
        for r in range(2, 5):
            for p in range(0, 8):
                diagram = stillman_diagram(StillmanParams(e, r, p))
                assert diagram.values[1] == r
                assert diagram.sequence.degrees[1] == e


def test_scan_checks_its_parameters_when_no_member_is_asked_for():
    with pytest.raises(ValueError, match=r"^e must be >= 1, got 0$"):
        scan(0, 1, -1)
    with pytest.raises(ValueError, match=r"^r must be >= 2, got 1$"):
        scan(1, 1, -1)
    with pytest.raises(ValueError, match=r"^p must be >= 0, got -1$"):
        scan(2, 3, -1)


def test_scan_reports_a_non_integral_member(monkeypatch, capsys):
    # scan builds each member's diagram once and reads its integrality off
    # it by stillman_diagram's rule, so it reports what that would refuse
    def halved(sequence):
        return PureDiagram(sequence, (F(1, 2),) * len(sequence))
    monkeypatch.setattr(stillman, "normalized_diagram", halved)
    rows = scan(2, 3, 1)
    assert [row.integral for row in rows] == [False, False]
    assert rows[1].diagram.values == (F(1, 2),) * 6
    assert main(["stillman", "-e", "2", "-r", "3", "--p-max", "1", "--tsv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[3] for line in lines[1:]] == ["N", "N"]
