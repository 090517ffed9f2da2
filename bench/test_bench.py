"""Smoke tests that keep the benchmark harness from rotting.

    python3 -m pytest bench/test_bench.py -q

Run from the repository root.  They run every workload at its smallest
size, check that the metrics match BENCHMARK.json, that a job past its
timeout is killed, that each checker rejects a wrong answer, that
compare.py gives the expected verdicts, and that the benchmark refuses to
run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import check
import compare
import gen
import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_trace_reports_every_per_layer_metric():
    proc = run_bench("--workload", "betti-chains", "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["betti_decomposition.decompose.calls"]["value"] > 0
    assert result["metrics"]["extension.enumerate_patterns.calls"]["value"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "coh-wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_job_past_its_timeout_is_killed_and_reported(tmp_path):
    spawner = run.Spawner(ROOT, tmp_path)
    seconds, rc, out, _ = spawner.run(["-c", "import time; time.sleep(30)"], timeout=0.5)
    assert rc is None and out == "" and seconds < 10


def test_rounds_repeat_for_a_seed_and_differ_across_seeds():
    def first_round(seed):
        jobs = next(workloads.rounds("coh-wide", seed, smoke=True))
        return [(job.argv, job.files) for job in jobs]
    assert first_round(5) == first_round(5)
    assert first_round(5) != first_round(6)


def test_betti_checker_rejects_a_wrong_coefficient():
    entries = {(0, 0): Fraction(1), (1, 1): Fraction(1), (1, 2): Fraction(1),
               (2, 3): Fraction(1)}
    good = ("term 1/3 window=0 degrees=0,1,3 values=2,3,1\n"
            "term 1/3 window=0 degrees=0,2,3 values=1,3,2\n")
    assert check.check_betti_decomposition(good, 2, entries, False) == []
    assert check.check_betti_decomposition(good.replace("1/3", "1/2", 1), 2, entries, False)
    not_pure = good.replace("values=2,3,1", "values=2,4,1")
    assert check.check_betti_decomposition(not_pure, 2, entries, False)
    swapped = "".join(reversed(good.splitlines(keepends=True)))
    assert check.check_betti_decomposition(swapped, 2, entries, False)


def test_cohomology_checkers_reject_wrong_answers():
    table = gen.supernatural_sum(2, (-5, 3), [(1, (0, -3)), (2, (0, -2))])
    good = "term 1 roots=0,-3\nterm 2 roots=0,-2\n"
    assert check.check_coh_decomposition(good, table) == []
    assert check.check_coh_decomposition(good.replace("term 2", "term 1"), table)
    assert check.check_validate("valid\n", table) == []
    assert check.check_validate("violation: x\n", table)
    assert check.check_supernatural(table.text(), table) == []
    p1 = gen.supernatural_sum(1, (-6, 4), [(5, (-3,)), (5, (1,))])
    assert check.p1_in_cone(p1.window, *check.table_fractions(p1))
    dented = gen.cancel_p1(p1, -1, 2)
    assert not check.p1_in_cone(dented.window, *check.table_fractions(dented))
    assert check.check_member("in-cone yes\n", False)


def test_ext_polytope_checker_rejects_a_flipped_flag_and_a_missing_vertex():
    window = (-8, 6)
    A, B = gen.line_bundle_p1(-2, 2, window), gen.line_bundle_p1(2, 2, window)
    caps = check.p1_bounds(A, B)
    support = sorted(caps)
    rows = []
    feasible = []
    for vec in check.candidate_vectors(caps, False):
        ok = check.extension_feasible(A, B, support, vec)
        tight = [f"{i},{j}" for (i, j), v in zip(support, vec) if v == caps[(i, j)]]
        rows.append(f"{','.join(map(str, vec))}\t{'Y' if ok else 'N'}\t"
                    + (";".join(tight) if ok and tight else "-"))
        feasible += [vec] if ok else []
    vertices = [(0, 0, 0), (1, 2, 2), (2, 2, 1), (2, 2, 2), (2, 4, 2)]
    header = ["# support " + " ".join(f"({i},{j})" for i, j in support),
              "pattern\tfeasible\tbinding"]
    out = header + rows + [f"vertex\t{','.join(map(str, v))}" for v in vertices]
    assert check.check_ext_polytope("\n".join(out) + "\n", A, B, 2, 2, False) == []
    flipped = "\n".join(out).replace("\tY\t", "\tN\t", 1) + "\n"
    assert check.check_ext_polytope(flipped, A, B, 2, 2, False)
    assert check.hull_problems(feasible, vertices[:-1])
    assert check.hull_problems(feasible, sorted(vertices + [(1, 1, 1)]))


def test_compare_verdicts():
    base = {s: 1.0 + 0.01 * s for s in range(10)}
    faster = {s: v * 0.5 for s, v in base.items()}
    slower = {s: v * 1.5 for s, v in base.items()}
    assert compare.verdict(base, faster, 0.1, True) == "better"
    assert compare.verdict(base, slower, 0.1, True) == "worse"
    assert compare.verdict(base, dict(base), 0.1, True) == "same"
    noisy = {s: 1.0 + (s % 2) for s in range(10)}
    assert compare.verdict(base, noisy, 0.1, True) == "unresolved"
