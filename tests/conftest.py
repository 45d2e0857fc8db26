"""Let the CLI tests' `python -m circascade.cli` subprocesses find src/, and
register the `ci` Hypothesis profile (`pytest --hypothesis-profile=ci`),
which prints the reproduction blob of every failing example."""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

settings.register_profile("ci", print_blob=True)
