"""The cyclic garbage collector is paused while a circuit is built.

parse_netlist and compile_circuit run with the collector off and hand its
state back unchanged, whether they return or raise.  A large build is moved
to the oldest generation as the collector resumes; a small one is not.
"""

import gc
import inspect
import sys
from contextlib import contextmanager

import pytest

from lrcirc import circuits
from lrcirc.circuits import collector_paused
from lrcirc.compiler import CompileError, compile_circuit
from lrcirc.netlist import NetlistError, parse_netlist, serialize_netlist

ONE_TOFFOLI = "in secret a\nin secret b\nout c\ngate TOF a b c\n"


@contextmanager
def collector(enabled: bool):
    """Run the block with the collector on or off, then restore its state."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


def collections_during(call, body):
    """Run `call()` and return (its result, the generation of every
    collection that ran, and of those that started while the function
    `body` was on the stack).  A full collection first empties the young
    generation, so none is due as the call begins."""
    runs, inside = [], []

    def on_gc(phase, info):
        if phase != "start":
            return
        runs.append(info["generation"])
        frame = sys._getframe()
        while frame is not None and frame.f_code is not body.__code__:
            frame = frame.f_back
        if frame is not None:
            inside.append(info["generation"])

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        return call(), runs, inside
    finally:
        gc.callbacks.remove(on_gc)


def _raises(exc_type, call):
    def run():
        with pytest.raises(exc_type):
            call()
    return run


_CALLS = {
    "parse": lambda: parse_netlist(ONE_TOFFOLI),
    "compile": lambda: compile_circuit(parse_netlist(ONE_TOFFOLI), level=1),
    "parse syntax error": _raises(NetlistError, lambda: parse_netlist("bogus stuff\n")),
    "parse gate error": _raises(
        NetlistError, lambda: parse_netlist("in secret y0\nout o0\ngate CNOT y0 y0\n")),
    "parse Circuit validation error": _raises(
        NetlistError, lambda: parse_netlist("in secret s\nout o\nreg t\ngate CNOT s t\n")),
    "compile level error": _raises(
        CompileError, lambda: compile_circuit(parse_netlist(ONE_TOFFOLI), level=3)),
    "compile gate error": _raises(
        CompileError,
        lambda: compile_circuit(parse_netlist("in secret s\nout o\ngate RAND o\n"))),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", list(_CALLS))
def test_collector_state_is_restored(name, enabled):
    with collector(enabled):
        _CALLS[name]()
        assert gc.isenabled() is enabled


def test_collector_is_off_inside_and_nested_pauses_restore_once():
    with collector(True):
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


def test_level2_build_runs_no_collection():
    # no collection runs while a level-2 circuit is built, nor as the
    # collector resumes: the build goes straight to the oldest generation
    compile_body, parse_body = inspect.unwrap(compile_circuit), inspect.unwrap(parse_netlist)
    logical = parse_netlist(ONE_TOFFOLI)
    with collector(True):
        compiled, runs, inside = collections_during(
            lambda: compile_circuit(logical, level=2), compile_body)
        assert inside == [] and runs == []
        text = serialize_netlist(compiled.circuit)
        circuit, runs, inside = collections_during(lambda: parse_netlist(text), parse_body)
        assert inside == [] and runs == []
        assert len(circuit.gates) == 28_219
        # control: the same parse without the pause runs the collector
        _, _, inside = collections_during(lambda: parse_body(text), parse_body)
        assert inside


@pytest.fixture
def freezes(monkeypatch):
    """The list that every gc.freeze() call from here on appends to."""
    calls = []
    freeze = gc.freeze
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(1) or freeze())
    return calls


def _tracked(n: int) -> list:
    """n objects the collector tracks (empty lists)."""
    return [[] for _ in range(n)]


def test_small_build_keeps_the_young_count(freezes):
    # promoting every tiny parse would reset the young count each time, and
    # a loop of them would never reach a full collection
    with collector(True):
        gc.collect()
        before = gc.get_count()[0]
        circuit = parse_netlist(ONE_TOFFOLI)
        assert gc.get_count()[0] > before
    assert freezes == [] and circuit.gates


def test_nested_pauses_promote_once(freezes):
    with collector(True):
        with collector_paused():
            outer = _tracked(circuits._PROMOTE_AT + 1)
            with collector_paused():
                inner = _tracked(circuits._PROMOTE_AT + 1)
            assert freezes == []
        assert freezes == [1]
    assert gc.get_freeze_count() == 0 and len(outer) == len(inner)


def test_nothing_is_promoted_with_the_collector_disabled(freezes):
    logical = parse_netlist(ONE_TOFFOLI)
    with collector(False):
        compiled = compile_circuit(logical, level=2)
        assert gc.get_count()[0] > circuits._PROMOTE_AT
    assert freezes == [] and compiled.circuit.gates


def test_objects_the_caller_froze_stay_frozen(freezes):
    # gc.unfreeze() would thaw the caller's objects along with the build,
    # so the build is left to the young pass
    compile_body = inspect.unwrap(compile_circuit)
    logical = parse_netlist(ONE_TOFFOLI)
    with collector(True):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            _, runs, inside = collections_during(
                lambda: compile_circuit(logical, level=2), compile_body)
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()
    assert freezes == [1]  # the test's own freeze
    assert inside == [] and runs
