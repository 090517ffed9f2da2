"""The betticone benchmark: seeded CLI jobs, timed end to end, checked independently.

    python3 bench/run.py --workload betti-chains --seed 1 --seconds 30 --trace 0

Run from the root of a betticone checkout.  Each job is one
``python -m betticone <subcommand>`` subprocess reading exchange files this
script generated from the seed; the load is a closed loop with one client.
Whole rounds of jobs run (see ``workloads.py``) until ``--seconds`` of wall
time have passed and the workload's tail percentile has ten samples beyond
it.  Every job's stdout is checked by ``check.py``; a wrong answer, an
unexpected exit status, a crash or a timeout fails the job.

With ``--trace 0`` the result carries the end-to-end metrics, their times
scaled to a reference machine speed measured during the run (see
REF_LOOP_S; the raw values are in the record); with
``--trace 1`` every job runs twice, plainly and under ``traced.py``, and
the result carries per-layer metrics (per job means) plus the tracing
overhead.  The last stdout line is the JSON result; the line before it is
the full record (seed, input shape, environment).  Append stdout to a file
(``>> runs.jsonl``) to keep records for ``compare.py``.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
JOB_TIMEOUT_S = 30.0
HARD_LIMIT_S = 150.0  # nothing new starts after this, so every run ends within 180 s
PROBE_ARGV = ["pure", "-d", "0,1", "--vars", "1"]
PROBE_OUT = "diagram window=0 degrees=0,1 values=1,1\n"
PROBES_PER_ROUND = 4
# The shared machine's speed comes and goes in bursts of seconds, and their
# share drifts over minutes, moving raw times by a third from run to run; a
# job's CPU time moves with its wall time.  Each timed job and probe is
# scaled to a machine on which reference_loop() takes REF_LOOP_S, by the
# loops run just before and just after it; the raw values stay in the record.
REF_LOOP_S = 0.015
# job_tail_s is the percentile at the middle of the third-slowest job of a
# round, 100 (n - 2.5) / n for n jobs a round: 2.5 samples a round lie
# beyond it, so MIN_ROUNDS rounds give the ten it needs.  Runs extend by
# whole rounds until they have them, up to MAX_RUN_FACTOR times --seconds.
MIN_ROUNDS = 4
MAX_RUN_FACTOR = 3


class Spawner:
    """Runs one subprocess at a time, with a timeout."""

    def __init__(self, root, workdir):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # Cache bytecode in the checkout, as an installed package would have it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, argv, timeout=JOB_TIMEOUT_S):
        """(seconds, exit status or None on timeout, stdout, stderr)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable] + argv, cwd=self.workdir, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            return time.perf_counter() - start, None, "", ""
        return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def reference_loop():
    """Seconds for a fixed pure-Python integer loop: the machine's speed now."""
    start = time.perf_counter()
    total = 0
    for k in range(200_000):
        total += k * k % 7
    return time.perf_counter() - start


def nominal(refs):
    """Factor taking the time just measured to the nominal machine speed."""
    return 2 * REF_LOOP_S / (refs[-2] + refs[-1])


def cli(argv):
    return ["-m", "betticone"] + argv


def run_job(spawner, job, argv_prefix, timeout):
    """Execute one job; returns (seconds, problems)."""
    for name, text in job.files.items():
        (spawner.workdir / name).write_text(text, encoding="utf-8")
    seconds, rc, out, err = spawner.run(argv_prefix + job.argv, timeout)
    if rc is None:
        return seconds, [f"timed out after {timeout:.1f} s"]
    if rc != 0:
        return seconds, [f"exit status {rc}: {err.strip()[:200]}"]
    try:
        return seconds, job.check(out)
    except Exception as exc:  # malformed output must fail the job, not the run
        return seconds, [f"checker raised {exc!r}"]


def tail(values, percentile):
    """The percentile at rank N p + 1/2, interpolated, and the samples beyond it.

    For the percentile run.py uses, that rank is the middle of the copies of
    a round's third-slowest job, so the value is their median.
    """
    ordered = sorted(values)
    rank = min(max(len(ordered) * percentile / 100 + 0.5, 1), len(ordered))
    below = int(rank)
    above = min(below + 1, len(ordered))
    value = ordered[below - 1] + (rank - below) * (ordered[above - 1] - ordered[below - 1])
    return value, len(ordered) - below


def end_to_end(probes, times, percentile):
    return {"setup_s": statistics.median(probes),
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail(times, percentile)[0],
            "jobs_per_s": len(times) / sum(times)}


def summarize_shapes(shapes, kinds):
    summary = {"jobs": len(kinds),
               "by_kind": {k: kinds.count(k) for k in sorted(set(kinds))}}
    keys = sorted({key for shape in shapes for key in shape})
    for key in keys:
        vals = [shape[key] for shape in shapes if key in shape]
        if key in ("candidates", "feasible", "not_in_cone"):
            summary[key] = {"total": sum(vals), "max": max(vals)}
        else:
            summary[key] = {"min": min(vals), "median": statistics.median(vals),
                            "max": max(vals)}
    return summary


def git_sha(root):
    """The checked-out commit, or None outside a git work tree."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    branch = root / ".git" / ref[5:]
    return branch.read_text().strip() if branch.is_file() else None


def environment(root):
    return {"git_sha": git_sha(root), "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "loadavg_start": os.getloadavg()}


def measure(args, root, spawner):
    """The closed loop; returns the record."""
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": environment(root)}
    min_rounds = 1 if args.smoke or args.trace else MIN_ROUNDS
    spans_path = spawner.workdir / "spans.json"
    traced_prefix = [str(BENCH / "traced.py"), str(spans_path), "--"]
    spawner.run(cli(PROBE_ARGV))  # warm the file cache before anything is timed
    times, traced_times, probes, shapes, kinds = [], [], [], [], []
    scaled_times, scaled_probes, refs = [], [], [reference_loop()]
    failures = []
    attempted = failed = 0
    job_spans = []
    started = time.perf_counter()
    for round_no, jobs in enumerate(workloads.rounds(args.workload, args.seed, args.smoke)):
        elapsed = time.perf_counter() - started
        enough = elapsed >= args.seconds and round_no >= min_rounds
        if round_no and (enough or elapsed >= min(MAX_RUN_FACTOR * args.seconds,
                                                  HARD_LIMIT_S)):
            break
        round_size = len(jobs)
        probe_at = set(range(0, round_size, max(1, round_size // PROBES_PER_ROUND)))
        for k, job in enumerate(jobs):
            remaining = HARD_LIMIT_S - (time.perf_counter() - started)
            if remaining <= 0:
                failures.append("hard time limit reached before the round ended")
                break
            if k in probe_at and not args.trace:
                seconds, rc, out, _ = spawner.run(cli(PROBE_ARGV))
                if rc != 0 or out != PROBE_OUT:
                    failures.append(f"setup probe: exit {rc}, output {out!r}")
                refs.append(reference_loop())
                probes.append(seconds)
                scaled_probes.append(seconds * nominal(refs))
            variants = [("plain", cli([]))]
            if args.trace:
                variants.append(("traced", traced_prefix))
                if k % 2:
                    variants.reverse()
            for variant, prefix in variants:
                attempted += 1
                spans_path.unlink(missing_ok=True)
                timeout = max(1.0, min(JOB_TIMEOUT_S, remaining))
                seconds, problems = run_job(spawner, job, prefix, timeout)
                if not problems and variant == "traced":
                    try:
                        job_spans.append(layers.load_spans(spans_path))
                    except (OSError, ValueError) as exc:
                        problems = [f"no spans: {exc}"]
                if problems:
                    failed += 1
                    failures.append(f"round {round_no} {job.kind} ({variant}) "
                                    f"{' '.join(job.argv)}: {problems[0]}")
                    continue
                if variant == "traced":
                    traced_times.append(seconds)
                else:
                    refs.append(reference_loop())
                    times.append(seconds)
                    scaled_times.append(seconds * nominal(refs))
                    shapes.append(job.shape)
                    kinds.append(job.kind)
    record["wall_s"] = time.perf_counter() - started
    record["env"]["loadavg_end"] = os.getloadavg()
    record["attempted"] = attempted
    record["failed"] = failed
    record["failed_frac"] = failed / attempted
    record["correct"] = not failures
    record["failures"] = failures[:20]
    record["input_shape"] = summarize_shapes(shapes, kinds)
    record["ref_loop_s"] = statistics.fmean(refs)
    record["jobs"] = [[kind, round(t, 4)] for kind, t in zip(kinds, times)]
    if not times or (args.trace and not traced_times):
        record["metrics"] = {}
        return record
    if args.trace:
        record["metrics"] = layers.per_layer(job_spans, times, traced_times)
        record["layer_self_share"] = layers.self_shares(job_spans)
        return record
    percentile = 100 * (round_size - 2.5) / round_size
    record["tail"] = {"percentile": percentile, "samples": len(times),
                      "beyond": tail(times, percentile)[1]}
    # Jobs import what the probes and the import check import, and more.
    peak = {"peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
    record["raw_metrics"] = end_to_end(probes, times, percentile) | peak
    units = {"setup_s": "s", "job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s",
             "peak_rss_mib": "MiB"}
    record["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in
                         (end_to_end(scaled_probes, scaled_times, percentile) | peak).items()}
    return record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest input sizes, for the harness's own tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # On SIGTERM unwind normally, so the running job is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "betticone" / "__init__.py").is_file():
        print(f"error: no betticone sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = BENCH / ".work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        spawner = Spawner(root, workdir)
        _, rc, out, err = spawner.run(
            ["-c", "import betticone; print(betticone.__file__)"])
        expected = root / "src" / "betticone" / "__init__.py"
        if rc != 0 or Path(out.strip()).resolve() != expected.resolve():
            print(f"error: betticone does not import from {expected}: {err.strip()}",
                  file=sys.stderr)
            return 2
        record = measure(args, root, spawner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(record))
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
