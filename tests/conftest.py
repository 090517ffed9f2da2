"""Put this checkout's ``src/`` first on PYTHONPATH for child processes.

pytest's ``pythonpath`` setting only reaches the test process itself, so
from an uninstalled checkout the tests that run ``python -m betticone`` as a
subprocess would otherwise fail with ``No module named betticone``.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
