"""The benchmark's tracer wraps sgpd functions by name from outside
(``perfbench/tracer.py``).  A refactor that renames or removes a traced
name would only show up in a traced benchmark run; this test catches it in
the ordinary suite.  The tracer file is executed from its source text, so
nothing is written next to it.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import sgpd.cli  # noqa: F401  (imports every module the CLI reaches)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _resolve(module: str, attr: str):
    try:
        mod = importlib.import_module(f"sgpd.{module}")
    except ModuleNotFoundError:
        mod = importlib.import_module(module)
    owner, _, name = attr.rpartition(".")
    if owner:
        return getattr(mod, owner).__dict__[name]
    return getattr(mod, name)


def test_every_traced_name_resolves():
    targets = runpy.run_path(str(TRACER), run_name="perfbench_tracer")["TARGETS"]
    assert targets
    missing = []
    for module, attr, _, _ in targets:
        try:
            found = _resolve(module, attr)
        except (AttributeError, KeyError, ModuleNotFoundError):
            found = None
        if not callable(found):
            missing.append(f"{module}.{attr}")
    assert not missing, f"tracer targets no longer in the program: {missing}"
