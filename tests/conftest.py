"""Interpreters that the tests start import the package from ``src`` too,
as this one does through ``pythonpath`` in pyproject.toml."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
