"""The cyclic garbage collector is paused while a circuit is built.

parse_netlist and compile_circuit run with the collector off and hand its
state back unchanged, whether they return or raise.
"""

import gc
import inspect
import sys
from contextlib import contextmanager

import pytest

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
    # no collection runs while a level-2 circuit is built; the one pass that
    # may run is the young generation's, as the collector resumes at the end
    compile_body, parse_body = inspect.unwrap(compile_circuit), inspect.unwrap(parse_netlist)
    logical = parse_netlist(ONE_TOFFOLI)
    with collector(True):
        compiled, runs, inside = collections_during(
            lambda: compile_circuit(logical, level=2), compile_body)
        assert inside == [] and len(runs) <= 1
        text = serialize_netlist(compiled.circuit)
        circuit, runs, inside = collections_during(lambda: parse_netlist(text), parse_body)
        assert inside == [] and len(runs) <= 1
        assert len(circuit.gates) == 28_219
        # control: the same parse without the pause runs the collector
        _, _, inside = collections_during(lambda: parse_body(text), parse_body)
        assert inside
