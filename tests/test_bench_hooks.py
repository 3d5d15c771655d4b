"""The benchmark's tracer wraps library functions by name; a cleanup that
renames or drops one of them must fail here, not only under `--trace 1`."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("run", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("run"), importlib.import_module("tracer")
    for name in ("run", "tracer"):
        sys.modules.pop(name, None)


def test_instrument_wraps_existing_names_and_unpatch_restores_them(bench):
    run, tracer = bench
    t = tracer.Tracer()
    try:
        run.instrument(t)  # wrap() looks each name up, so a missing one raises
        patched = list(t._patched)
        assert len({(id(m), attr) for m, attr, _, _ in patched}) == len(patched)
        for module, attr, fn, wrapper in patched:
            assert callable(fn)
            assert getattr(module, attr) is wrapper
    finally:
        t.unpatch()
    for module, attr, fn, _ in patched:
        assert getattr(module, attr) is fn
