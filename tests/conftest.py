"""Make ``src/`` importable in the subprocesses the CLI tests start.

``pythonpath`` in pyproject.toml puts ``src/`` on this process's path
only; the environment carries it to ``python -m hanoiduel.cli`` children.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
