"""Let the CLI tests' ``python -m nchvsim.cli`` subprocesses import the
package from a plain checkout.  In-process imports use ``pythonpath`` in
``pyproject.toml``; subprocesses only see the environment.

Also import hypothesis' failure-patching module once, with its import
warnings ignored.  hypothesis' pytest plugin imports it when a ``@given``
test fails; where libcst is installed, that import raises a
DeprecationWarning, which ``filterwarnings = error`` turns into an
INTERNALERROR that stops the run before the remaining tests.  The module
is optional in hypothesis, so its absence is fine."""

import os
import warnings
from pathlib import Path

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path
)
