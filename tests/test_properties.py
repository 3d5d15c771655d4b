"""Properties of the level-1 compiler on generated reversible circuits."""

from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcirc.circuits import GateKind, RandomTape, batch_outputs, evaluate, evaluate_batch
from lrcirc.compiler import compile_circuit
from lrcirc.lab import encoded_secret_rows
from lrcirc.netlist import parse_netlist, serialize_netlist

_LOGICAL = (GateKind.NOT, GateKind.CNOT, GateKind.TOF, GateKind.Z, GateKind.CZ)


@st.composite
def logical_netlists(draw):
    """Netlist text over NOT/CNOT/TOF/Z/CZ with 1-2 secret inputs, 0-2
    public inputs, 0-2 internal registers (some `init 1`) and 1-2 outputs;
    the last gates write every output."""
    secret = [f"s{i}" for i in range(draw(st.integers(1, 2)))]
    public = [f"x{i}" for i in range(draw(st.integers(0, 2)))]
    inits = draw(st.lists(st.integers(0, 1), max_size=2))
    outputs = [f"o{i}" for i in range(draw(st.integers(1, 2)))]
    internal = [f"t{i}" for i in range(len(inits))]
    names = secret + public + internal + outputs
    lines = [f"in secret {n}" for n in secret] + [f"in public {n}" for n in public]
    lines += [f"reg {n} init 1" if init else f"reg {n}" for n, init in zip(internal, inits)]
    lines += [f"out {n}" for n in outputs]
    kinds = [k for k in _LOGICAL if k.arity <= len(names)]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
        operands = draw(st.permutations(names))[:kind.arity]
        lines.append(f"gate {kind.value} {' '.join(operands)}")
    for out in outputs:
        control = draw(st.sampled_from([n for n in names if n != out]))
        lines.append(f"gate CNOT {control} {out}")
    return "\n".join(lines) + "\n"


_SETTINGS = settings(derandomize=True, max_examples=50, deadline=None, database=None)


@_SETTINGS
@given(logical_netlists())
def test_level1_decodes_to_logical_outputs(text):
    logical = parse_netlist(text)
    comp = compile_circuit(logical, level=1, ec=True)
    rng = np.random.default_rng(3)
    for sec in product((0, 1), repeat=len(logical.secret_regs)):
        for pub in product((0, 1), repeat=len(logical.public_regs)):
            trace = evaluate(logical, sec, pub, RandomTape.of([]))
            want = [trace.outputs[r.name] for r in logical.output_regs]
            tapes = rng.integers(0, 2, size=(8, comp.circuit.rand_count), dtype=np.int8)
            enc = encoded_secret_rows(comp, list(sec), 8, rng)
            events = evaluate_batch(comp.circuit, enc, list(pub), tapes)
            assert (batch_outputs(comp.circuit, events) == want).all()


@_SETTINGS
@given(logical_netlists(), st.booleans())
def test_level1_netlist_round_trips_and_is_deterministic(text, ec):
    first = compile_circuit(parse_netlist(text), level=1, ec=ec)
    second = compile_circuit(parse_netlist(text), level=1, ec=ec)
    net = serialize_netlist(first.circuit)
    assert serialize_netlist(parse_netlist(net)) == net
    assert serialize_netlist(second.circuit) == net
    assert second.to_json_dict() == first.to_json_dict()
    assert second.circuit.event_listing() == first.circuit.event_listing()
