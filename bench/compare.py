"""Compare two sets of benchmark records, or report the spread of one.

    python3 bench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds the stdout of ``run.py`` runs, appended one after another
(``run.py ... >> BASE.jsonl``); lines that are not a record are skipped.
Untraced records are grouped by workload, and for every end-to-end metric
of BENCHMARK.json the median and quartiles (``statistics.quantiles(n=4)``)
of each side are printed, with the spread (quartile distance over the
median).

With two files each metric gets a verdict against its bound:

* ``better``: every change run beats every base run; or the spread is
  within the bound, the change wins at least nine tenths of the pairs
  (runs of the same seed, else all pairs; ties count for neither), and
  the medians differ by more than the base's quartile distance.
* ``unresolved``: the spread of either side exceeds the bound.
* ``worse``: the change's median is worse than the base's by more than
  the bound.
* ``same``: none of these; the medians agree within the bound.

The exit status is 1 when any metric is worse.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))


def load(path):
    """{workload: {metric: {seed: value}}} from untraced records."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict) or "workload" not in record or record["trace"]:
                continue
            metrics = out.setdefault(record["workload"], {})
            for name, metric in record["metrics"].items():
                metrics.setdefault(name, {})[record["seed"]] = metric["value"]
    return out


def stats(values):
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def verdict(base, change, bound, lower_is_better):
    sign = 1 if lower_is_better else -1

    def beats(a, b):  # a strictly better than b
        return sign * (b - a) > 0
    b_med, b_q1, b_q3, b_spread = stats(base.values())
    c_med, _, _, c_spread = stats(change.values())
    if all(beats(c, b) for c in change.values() for b in base.values()):
        return "better"
    if max(b_spread, c_spread) > bound:
        return "unresolved"
    if sign * (c_med - b_med) > bound * b_med:
        return "worse"
    seeds = sorted(set(base) & set(change))
    pairs = ([(change[s], base[s]) for s in seeds] if seeds else
             [(c, b) for c in change.values() for b in base.values()])
    wins = sum(beats(c, b) for c, b in pairs)
    if wins >= 0.9 * len(pairs) and abs(c_med - b_med) > b_q3 - b_q1:
        return "better"
    return "same"


def fmt(values):
    median, q1, q3, spread = stats(values)
    return f"{median:10.4g} [{q1:.4g}, {q3:.4g}] {100 * spread:5.1f}%"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(path) for path in argv]
    base = sets[0]
    change = sets[-1] if len(sets) == 2 else None
    any_worse = False
    for workload in sorted(set(base) | set(change or {})):
        print(f"{workload}  (median [q1, q3] spread)")
        for spec in SPEC["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            b = base.get(workload, {}).get(name)
            c = (change or {}).get(workload, {}).get(name)
            base_text = fmt(b.values()) if b else "-"
            line = f"  {name:14} bound {100 * bound:3.0f}%  base {base_text:>34}"
            if change is None:
                if b:
                    steady = stats(b.values())[3] <= bound / 3
                    line += "  steady" if steady else "  SPREAD ABOVE BOUND/3"
            elif b and c:
                v = verdict(b, c, bound, spec["better"] == "lower")
                any_worse = any_worse or v == "worse"
                line += f"  change {fmt(c.values()):>34}  {v}"
            print(line)
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
