"""Let the CLI tests' ``python -m nchvsim.cli`` subprocesses import the
package from a plain checkout.  In-process imports use ``pythonpath`` in
``pyproject.toml``; subprocesses only see the environment."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path
)
