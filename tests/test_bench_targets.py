"""The benchmark's traced layers still exist in the package.

``bench/tracing.py`` wraps each ``(module, attribute)`` of its ``TARGETS``; a
renamed or deleted function would only show up as a note in a bench run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_traced_target_resolves_to_a_callable():
    targets = _targets()
    assert ("exactlinalg", "ExactMatrix.__mul__") in [(module, attribute) for _, module, attribute, *_ in targets]
    for name, module, attribute, *_ in targets:
        obj = importlib.import_module("heckepoly." + module)
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), "%s: heckepoly.%s.%s is gone" % (name, module, attribute)
