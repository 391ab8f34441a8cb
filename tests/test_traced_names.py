"""Every name the benchmark's tracer wraps resolves in the package.

``perfbench/tracing.py`` looks up each ``(module, attribute)`` of its
``LAYER_CALLS`` with ``getattr`` and replaces it with a timing wrapper; a
package change that drops or renames one fails here, by name, not inside the
benchmark's subprocess. The table is read from the source as a literal, so
the benchmark's module is neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layer_calls():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if names == ["LAYER_CALLS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no LAYER_CALLS")


def test_every_traced_name_resolves():
    calls = _layer_calls()
    assert calls
    missing = [f"{m}.{a}" for m, a, _ in calls if not hasattr(importlib.import_module(m), a)]
    assert missing == []
