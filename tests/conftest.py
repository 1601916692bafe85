"""Make `src/` importable in the subprocesses the command-line tests start,
so the suite runs from a checkout without installing the package."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
