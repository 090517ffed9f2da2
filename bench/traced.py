"""Run one betticone CLI call with every public library function timed.

    python3 bench/traced.py SPANS.json -- <betticone argv...>

Each public module-level function of ``betticone.*`` is replaced by a
wrapper that records a span (name, start, end, parent, counters), and every
module global bound to the original is rebound, since the modules import
names from each other directly.  Methods (per-cell helpers such as
``chi_at``) stay unwrapped.  Spans stay in memory and are written to
SPANS.json when ``betticone.cli.main`` returns; stdout and the exit status
are those of the plain CLI.
"""

import functools
import inspect
import json
import pkgutil
import sys
import time
from importlib import import_module

SPANS = []
STACK = []


def _window_cells(t):
    """Cells of a cohomology table's dense (n + 1) x window grid; 0 for Betti."""
    if not hasattr(t, "window"):
        return 0
    return (t.n + 1) * (t.window[1] - t.window[0] + 1)


def _union_cells(a, b):
    if hasattr(a, "window"):
        lo = min(a.window[0], b.window[0])
        hi = max(a.window[1], b.window[1])
        return (a.n + 1) * (hi - lo + 1)
    return len(a.entries) + len(b.entries)


def _sigma_window(roots, multiplicity=1, window=None):
    if window is None:
        window = (roots.roots[-1] - 1, roots.roots[0] + 1)
    return (roots.n + 1) * (window[1] - window[0] + 1)


# Size counters read the arguments, outcome counters the return value.
COUNTERS = {
    "exchange.parse_table": lambda a, kw, r: {"input_bytes": len(a[0].encode())},
    "betti_decomposition.decompose": lambda a, kw, r: {"table_cells": len(a[0].entries)},
    "tables.subtract_checked": lambda a, kw, r: {"cells": _union_cells(a[0], a[1])},
    "tables.validate": lambda a, kw, r: {
        "window_cells": _window_cells(a[0]),
        "support": len(a[0].entries)},
    "supernatural.supernatural_table": lambda a, kw, r: {
        "window_cells": _sigma_window(*a, **kw)},
    "extension.enumerate_patterns": lambda a, kw, r: {"patterns": len(r)},
    "extension.feasible_set": lambda a, kw, r: {"feasible": len(r)},
    "extension.polytope_vertices": lambda a, kw, r: {"points": len(a[0]),
                                                     "vertices": len(r)},
}


def _wrap(name, fn, not_in_cone):
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = [name, 0.0, 0.0, STACK[-1] if STACK else -1, {}]
        index = len(SPANS)
        SPANS.append(span)
        STACK.append(index)
        result = None
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except not_in_cone:
            span[4]["rejected"] = 1
            raise
        finally:
            span[2] = time.perf_counter()
            STACK.pop()
            if count is not None and "rejected" not in span[4]:
                try:
                    span[4].update(count(args, kwargs, result))
                except (AttributeError, TypeError, IndexError):
                    pass  # the library changed shape: lose the counter, keep the span
    return wrapper


def instrument():
    """Wrap every public function of betticone.* and rebind all references."""
    import betticone
    from betticone.errors import NotInCone

    modules = [import_module(f"betticone.{info.name}")
               for info in pkgutil.iter_modules(betticone.__path__)
               if info.name != "__main__"]
    replaced = {}
    for mod in modules:
        short = mod.__name__.split(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                replaced[id(obj)] = _wrap(f"{short}.{name}", obj, NotInCone)
    for mod in [betticone] + modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(mod, name, replaced[id(obj)])


def main():
    spans_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: traced.py SPANS.json -- <betticone argv...>")
    start = time.perf_counter()
    import betticone.cli
    import_s = time.perf_counter() - start
    instrument()
    try:
        rc = betticone.cli.main(sys.argv[3:])
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": SPANS}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
