"""The benchmark's workloads: seeded rounds of CLI jobs with their checkers.

A workload yields rounds.  Every round holds the same odd number of jobs of
fixed command, table kind and size, so any run of whole rounds has the same
mix whatever its seed, and the median (and the tail percentile run.py
picks) lands in the middle of one job's copies rather than in a gap between
two sizes.  The seed draws the table contents and the order of each round.  A
job carries the exchange files it reads, its argv, a checker for its stdout
and a few numbers describing its input shape.
"""

import random
from dataclasses import dataclass, field

import check
import gen


@dataclass
class Job:
    kind: str
    argv: list
    files: dict
    check: object  # stdout -> list of problems
    shape: dict = field(default_factory=dict)


def _centres(lo, hi, count):
    """The midpoints of ``count`` equal slices of [lo, hi]."""
    return [lo + (hi - lo) * (2 * k + 1) // (2 * count) for k in range(count)]


# --- betti-chains ---------------------------------------------------------

def _betti_job(rng, command, length, vars_count, shifts):
    chain = gen.betti_chain(rng, vars_count, length, shifts)
    entries = gen.betti_combination(rng, chain)
    argv = {"decompose": ["decompose", "t.bt"],
            "decompose-normalized": ["decompose", "--normalized", "t.bt"],
            "member": ["member", "t.bt"]}[command]
    if command == "member":
        def verify(out):
            return check.check_member(out, True)
    else:
        normalized = command == "decompose-normalized"

        def verify(out):
            return check.check_betti_decomposition(out, vars_count, entries, normalized)
    return Job(command, argv, {"t.bt": gen.betti_text(vars_count, entries)}, verify,
               {"chain_terms": length, "table_entries": len(entries)})


def _stillman_job(rng, p_lo, p_hi):
    e, r, p_max = rng.randint(1, 3), rng.randint(2, 4), rng.randint(p_lo, p_hi)
    argv = ["stillman", "-e", str(e), "-r", str(r), "--p-max", str(p_max), "--tsv"]
    return Job("stillman", argv, {},
               lambda out: check.check_stillman(out, e, r, p_max),
               {"sequence_length": r + p_max * (r - 1) + 1})


def betti_round(rng, smoke):
    """Ten chain jobs, one per tenth of 50..600 terms, each paired with its
    own variable count 3..12, command and window kind (four in ten shift
    windows); three stillman scans."""
    if smoke:
        return [_betti_job(rng, c, 6 + 3 * k, 3 + k, k == 0)
                for k, c in enumerate(["decompose", "decompose-normalized", "member"])]
    commands = ["decompose"] * 4 + ["decompose-normalized"] * 3 + ["member"] * 3
    jobs = [_betti_job(rng, commands[7 * k % 10], length, 3 + 3 * k % 10, 9 * k % 10 < 4)
            for k, length in enumerate(_centres(50, 600, 10))]
    return jobs + [_stillman_job(rng, 10, 40) for _ in range(3)]


# --- coh-wide --------------------------------------------------------------

def _coh_table(rng, n, width, terms):
    lo = rng.randint(-width, 0)
    window = (lo, lo + width - 1)
    chain = gen.root_chain(rng, n, terms, *window)
    return gen.supernatural_sum(n, window, [(rng.randint(1, 4), roots) for roots in chain])


def _terms_for(width, smoke):
    """3..30 terms, fewer on wider windows so each job costs about the same."""
    if smoke:
        return 3
    return max(3, min(30, round(6_750_000 / width ** 2)))


def _coh_job(rng, command, n, width, smoke):
    table = _coh_table(rng, n, width, _terms_for(width, smoke))
    shape = {"window_width": width, "table_entries": len(table.cells)}
    if command == "member-no":
        # Cancelling half the smaller of h^0, h^1 at one twist (chi-neutral)
        # dents h^0 + h^1 there, which almost always leaves the cone.  The
        # middle such twist keeps the greedy's work before it stops steady.
        lo, hi = table.window
        twists = [j for j in range(lo + 2, hi - 1)
                  if table.cells.get((0, j)) and table.cells.get((1, j))]
        j = twists[len(twists) // 2]
        c = min(table.cells[(0, j)], table.cells[(1, j)]) // (2 * table.den) or 1
        table = gen.cancel_p1(table, j, c)
        command = "member"
    argv = [command, "t.ct"] + (["--check-oracle"] if command == "coh-decompose"
                                and n == 1 else [])

    def verify(out):
        if command == "coh-decompose":
            return check.check_coh_decomposition(out, table)
        if command == "validate":
            return check.check_validate(out, table)
        # Beyond P^1 every member table is a chain combination of supernatural tables.
        inside = n > 1 or check.p1_in_cone(table.window, *check.table_fractions(table))
        shape["not_in_cone"] = int(not inside)
        return check.check_member(out, inside)
    return Job(command, argv, {"t.ct": table.text()}, verify, shape)


def _supernatural_job(rng, n, width):
    lo = rng.randint(-width, 0)
    window = (lo, lo + width - 1)
    roots = tuple(sorted(rng.sample(range(lo + 1, lo + width - 1), n), reverse=True))
    m = rng.randint(1, 9)
    expected = gen.supernatural_sum(n, window, [(m, roots)])
    argv = ["supernatural", "-n", str(n), "-f", ",".join(map(str, roots)),
            "-m", str(m), "--window", f"{window[0]},{window[1]}"]
    return Job("supernatural", argv, {},
               lambda out: check.check_supernatural(out, expected),
               {"window_width": width, "table_entries": len(expected.cells)})


# One job per thirteenth of 200..1500 twists, narrowest first.  The eight
# full greedy runs take 550..1250, where terms ~ 1 / width^2 keeps their cost
# level, so the median and the tail fall among runs of about the same size.
COH_PLAN = [("member-no", 1), ("supernatural", 3), ("member-no", 1),
            ("coh-decompose", 1), ("member", 2), ("coh-decompose", 3), ("member", 1),
            ("coh-decompose", 2), ("member", 3), ("coh-decompose", 2), ("member", 2),
            ("validate", 1), ("validate", 3)]


def coh_round(rng, smoke):
    widths = _centres(12, 30, len(COH_PLAN)) if smoke else \
        _centres(200, 1500, len(COH_PLAN))
    jobs = []
    for (command, n), width in zip(COH_PLAN, widths):
        if command == "supernatural":
            jobs.append(_supernatural_job(rng, n, width))
        else:
            jobs.append(_coh_job(rng, command, n, width, smoke))
    return jobs


# --- ext-polytope ----------------------------------------------------------

def _ext_job(rng, k, m, symmetric):
    pad = rng.randint(0, 1)  # one spare twist, on the left or on the right
    window = (-3 * k - 2 - pad, 3 * k + 1 - pad)
    A = gen.line_bundle_p1(-k, m, window)
    B = gen.line_bundle_p1(k, m, window)
    argv = ["ext-polytope", "a.ct", "b.ct"] + (["--symmetric"] if symmetric else [])
    shape = {"candidates": len(check.candidate_vectors(check.p1_bounds(A, B), symmetric))}

    def verify(out):
        shape["feasible"] = out.count("\tY\t")
        return check.check_ext_polytope(out, A, B, k, m, symmetric)
    return Job("ext-polytope", argv, {"a.ct": A.text(), "b.ct": B.text()}, verify, shape)


def ext_round(rng, smoke):
    """The grid points (k, m) = (2, 5), (2, 10), (3, 5), plus five smaller jobs.

    The seed puts a spare twist left or right of the window and orders the
    jobs.  m = 15 (about 12 s a job) is left out so a 30 s run holds four
    rounds.
    """
    if smoke:
        plan = [(2, 1, True), (2, 2, True), (2, 1, False)]
    else:
        plan = [(2, 5, True), (2, 10, True), (2, 5, False), (3, 5, True),
                (2, 4, True), (2, 7, True), (2, 3, False), (3, 2, True), (3, 1, False)]
    return [_ext_job(rng, k, m, symmetric) for k, m, symmetric in plan]


WORKLOADS = {"betti-chains": betti_round, "coh-wide": coh_round,
             "ext-polytope": ext_round}


def rounds(workload, seed, smoke=False):
    """Endless seeded rounds of jobs, each round shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    make = WORKLOADS[workload]
    while True:
        jobs = make(rng, smoke)
        rng.shuffle(jobs)
        yield jobs
