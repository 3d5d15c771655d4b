"""Core IR semantics: evaluation, wire events, tapes, truth tables."""

import json
from dataclasses import MISSING, FrozenInstanceError, fields
from itertools import product

import numpy as np
import pytest

from lrcirc import circuits
from lrcirc.circuits import (
    Circuit,
    CircuitError,
    EvalError,
    Gate,
    GateKind,
    Planes,
    RandomTape,
    Register,
    Role,
    batch_outputs,
    evaluate,
    evaluate_batch,
    register_file,
    truth_table,
)
from lrcirc.compiler import CompiledCircuit, compile_circuit
from lrcirc.netlist import parse_netlist, serialize_netlist

EMPTY = RandomTape.of([])


def build(regs, gates):
    return Circuit(regs, gates)


def toffoli_circuit():
    return parse_netlist(
        "in secret a\nin secret b\nout c\ngate TOF a b c\n"
    )


# independent oracle: the 8-row Toffoli table from plain integer semantics
TOFFOLI_TABLE = {
    (a, b, t): (a, b, t ^ (a & b)) for a, b, t in product((0, 1), repeat=3)
}


@pytest.mark.parametrize("a,b,t", list(product((0, 1), repeat=3)))
def test_toffoli_truth_table(a, b, t):
    circ = parse_netlist(
        "in secret a\nin secret b\nin public t\nout c\n"
        "gate COPY t c\ngate TOF a b c\n"
    )
    tr = evaluate(circ, [a, b], [t], EMPTY)
    assert tr.outputs["c"] == TOFFOLI_TABLE[(a, b, t)][2]


def test_toffoli_examples():
    circ = toffoli_circuit()
    assert evaluate(circ, [1, 1], [], EMPTY).outputs["c"] == 1
    assert evaluate(circ, [1, 0], [], EMPTY).outputs["c"] == 0


def test_rand_cnot_forced_value():
    circ = parse_netlist("reg a\nout o\ngate RAND a\ngate CNOT a o\n")
    tr = evaluate(circ, [], [], RandomTape.of([1]))
    assert tr.outputs["o"] == 1
    assert evaluate(circ, [], [], RandomTape.of([0])).outputs["o"] == 0


def test_event_table_and_leak_free():
    circ = parse_netlist("reg a\nout o\ngate RAND a\ngate CNOT a o\n")
    # no inputs, RAND has one port, CNOT two
    assert circ.num_events == 3
    assert circ.leak_free == {0}
    assert circ.gate_start == (0, 1)
    for g, start in zip(circ.gates, circ.gate_start):
        if g.kind is not GateKind.RAND:
            assert not (set(range(start, start + len(g.args))) & circ.leak_free)


def test_z_cz_create_identity_events():
    circ = parse_netlist(
        "in secret a\nin secret b\nout o\n"
        "gate Z a\ngate CZ a b\ngate CNOT a o\n"
    )
    tr = evaluate(circ, [1, 0], [], EMPTY)
    # events: a, b inputs; Z port; CZ ports; CNOT ports
    assert tr.values[2] == 1          # Z(a) echoes a
    assert tr.values[3:5] == (1, 0)   # CZ echoes (a, b)
    assert tr.outputs["o"] == 1


def test_determinism():
    circ = parse_netlist(
        "in secret s\nreg a\nout o\n"
        "gate RAND a\ngate CNOT a o\ngate TOF s a o\n"
    )
    t = RandomTape.of([1])
    assert evaluate(circ, [1], [], t) == evaluate(circ, [1], [], t)


class _NoGateMayRun(tuple):
    def __iter__(self):
        raise AssertionError("a gate ran")


def test_tape_exhausted():
    # a short tape and a long tape are both refused before any gate runs
    circ = parse_netlist("reg a\ngate RAND a\ngate RAND a\n")
    circ.gates = _NoGateMayRun(circ.gates)
    for bits in ([1], [1, 0, 1]):
        for run in (evaluate, register_file):
            with pytest.raises(EvalError, match=f"expected 2 tape bits, got {len(bits)}"):
                run(circ, [], [], RandomTape.of(bits))


def test_input_length_mismatch():
    circ = toffoli_circuit()
    with pytest.raises(EvalError, match="secret bits"):
        evaluate(circ, [1], [], EMPTY)


def test_public_input_length_mismatch():
    circ = parse_netlist("in secret s\nin public x\nout o\ngate CNOT x o\n")
    with pytest.raises(EvalError, match="expected 1 public bits, got 2"):
        evaluate(circ, [1], [0, 1], EMPTY)


def test_conditioned_gate_skip_and_fire():
    # event 0 = s input; cgate on it
    circ = parse_netlist("in secret s\nout o\ncgate 0 NOT o\n")
    on = evaluate(circ, [1], [], EMPTY)
    off = evaluate(circ, [0], [], EMPTY)
    assert on.outputs["o"] == 1 and on.values[1] == 1
    assert off.outputs["o"] == 0 and off.values[1] is None  # no-op marker


def test_skipped_rand_still_consumes_tape():
    circ = parse_netlist("in secret s\nreg a\nout o\ncgate 0 RAND a\ngate CNOT a o\n")
    # skipped: a stays 0 regardless of the tape bit
    tr = evaluate(circ, [0], [], RandomTape.of([1]))
    assert tr.outputs["o"] == 0
    with pytest.raises(EvalError):
        evaluate(circ, [0], [], EMPTY)  # bit is consumed even when skipped


def test_output_never_written_rejected():
    with pytest.raises(CircuitError, match="never written"):
        build([Register(0, "o", Role.OUTPUT)], [])


def test_condition_must_precede_gate():
    regs = [Register(0, "a", Role.INTERNAL), Register(1, "o", Role.OUTPUT)]
    with pytest.raises(CircuitError, match="precede"):
        build(regs, [Gate(GateKind.NOT, (1,), cond=5)])


_S, _O = Register(0, "s", Role.SECRET), Register(1, "o", Role.OUTPUT)


@pytest.mark.parametrize("regs, gates, match, gate, register", [
    ([_S, _O], [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.CNOT, (0, 5))],
     "undeclared register 5", 1, None),
    ([_S, _O], [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.CNOT, (1, 1))],
     "duplicate operand in CNOT gate", 1, None),
    ([_S, _O], [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.CNOT, (1,))],
     r"CNOT takes 2 operand\(s\), got 1", 1, None),
    ([_S, _O], [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.NOT, (1,), cond=2),
                Gate(GateKind.NOT, (1,), cond=4)],
     "condition event 4 does not precede", 2, None),
    ([_S, _O, Register(2, "p", Role.OUTPUT)], [Gate(GateKind.CNOT, (0, 1))],
     "'p' is never written", None, 2),
    ([_S, _O, Register(2, "s", Role.INTERNAL)], [Gate(GateKind.CNOT, (0, 1))],
     "duplicate register name 's'", None, 2),
    ([_S, _O, Register(3, "t", Role.INTERNAL)], [Gate(GateKind.CNOT, (0, 1))],
     "dense, got 3 at 2", None, 2),
    # event 3 is the port of a conditioned NOT, which the rows with o = 0 skip
    ([_S, _O], [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.NOT, (1,), cond=2),
                Gate(GateKind.NOT, (1,), cond=3)],
     "condition event 3 is an event of a conditioned gate", 2, None),
    ([_S, _O, Register(2, "t", Role.INTERNAL, init=2)], [Gate(GateKind.CNOT, (0, 1))],
     "register 't' cannot have init 2", None, 2),
    ([_S, _O, Register(2, "p", Role.OUTPUT, init=1)],
     [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.CNOT, (0, 2))],
     "register 'p' cannot have init 1", None, 2),
    ([_S, _O, Register(2, "x", Role.PUBLIC, init=1)], [Gate(GateKind.CNOT, (0, 1))],
     "register 'x' cannot have init 1", None, 2),
    # one gate that breaks two rules reports the first in this order: operand
    # count, distinct operands, operand range, condition
    ([_S, _O], [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.CNOT, (1, 1, 1))],
     r"CNOT takes 2 operand\(s\), got 3", 1, None),
    ([_S, _O], [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.NOT, (0, 9))],
     r"NOT takes 1 operand\(s\), got 2", 1, None),
    ([_S, _O], [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.CNOT, (1, 1), cond=9)],
     "duplicate operand in CNOT gate", 1, None),
    ([_S, _O], [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.CNOT, (7, 7))],
     "duplicate operand in CNOT gate", 1, None),
    ([_S, _O], [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.NOT, (5,), cond=9)],
     "undeclared register 5", 1, None),
    ([_S, _O], [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.NOT, (1,), cond=2),
                Gate(GateKind.CNOT, (1, 5), cond=3)],
     "undeclared register 5", 2, None),
    # a gate's fault is reported before an output that no gate writes
    ([_S, _O, Register(2, "p", Role.OUTPUT)],
     [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.CNOT, (0, 1), cond=7)],
     "condition event 7 does not precede", 1, None),
], ids=["undeclared-register", "duplicate-operand", "operand-count", "late-condition",
        "unwritten-output", "duplicate-name", "sparse-id", "skippable-condition",
        "init-2", "output-init-1", "input-init-1", "count-before-duplicate",
        "count-before-range", "duplicate-before-condition", "duplicate-before-range",
        "range-before-condition", "range-before-skippable-condition",
        "gate-before-unwritten-output"])
def test_circuit_error_names_the_failing_gate_or_register(regs, gates, match, gate, register):
    # netlist error lines come from these attributes; each case fails past
    # the first gate or register
    with pytest.raises(CircuitError, match=match) as info:
        build(regs, gates)
    assert (info.value.gate, info.value.register) == (gate, register)


def test_records_are_frozen_hashable_dataclasses():
    regs = [Register(3, "r", Role.INTERNAL, 0), Register(3, "r", Role.INTERNAL),
            Register(id=3, name="r", role=Role.INTERNAL, init=0),
            Register(3, "r", role=Role.INTERNAL)]
    gates = [Gate(GateKind.CNOT, (0, 1), None), Gate(GateKind.CNOT, (0, 1)),
             Gate(kind=GateKind.CNOT, args=(0, 1), cond=None),
             Gate(GateKind.CNOT, args=(0, 1))]
    for records in (regs, gates):
        assert all(r == records[0] for r in records)
        assert len({hash(r) for r in records}) == 1
    assert Register(3, "r", Role.INTERNAL) != Register(3, "r", Role.INTERNAL, 1)
    assert Gate(GateKind.NOT, (0,), 4) != Gate(GateKind.NOT, (0,))
    assert [(f.name, f.default) for f in fields(Register)] == [
        ("id", MISSING), ("name", MISSING), ("role", MISSING), ("init", 0)]
    assert [(f.name, f.default) for f in fields(Gate)] == [
        ("kind", MISSING), ("args", MISSING), ("cond", None)]
    assert repr(regs[0]) == "Register(id=3, name='r', role=<Role.INTERNAL: 'internal'>, init=0)"
    assert repr(Gate(GateKind.CNOT, (0, 1), 4)) == \
        "Gate(kind=<GateKind.CNOT: 'CNOT'>, args=(0, 1), cond=4)"
    for record in (regs[0], gates[0]):
        assert not hasattr(record, "__dict__")
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(record, f.name)
    assert regs[0] == regs[1] and gates[0].args == (0, 1)  # unchanged by the attempts
    with pytest.raises(TypeError):
        Gate(GateKind.NOT)


def test_truth_table_deterministic_point_masses():
    circ = toffoli_circuit()
    table = truth_table(circ)
    for (sec, _pub), dist in table.items():
        assert dist == {(sec[0] & sec[1],): 1.0}


def test_truth_table_rand_copy_uniform():
    circ = parse_netlist("reg a\nout o\ngate RAND a\ngate COPY a o\n")
    table = truth_table(circ)
    assert table[((), ())] == {(0,): 0.5, (1,): 0.5}


def test_truth_table_toffoli_exhaustive_matches_oracle():
    circ = parse_netlist(
        "in secret a\nin secret b\nin public t\nout c\n"
        "gate COPY t c\ngate TOF a b c\n"
    )
    table = truth_table(circ)
    for (sec, pub), dist in table.items():
        expected = TOFFOLI_TABLE[(sec[0], sec[1], pub[0])][2]
        assert dist == {(expected,): 1.0}


def test_truth_table_guards():
    lines = [f"in public x{i}" for i in range(21)] + ["out o", "gate CNOT x0 o"]
    circ = parse_netlist("\n".join(lines) + "\n")
    with pytest.raises(EvalError, match="20 input bits"):
        truth_table(circ)


def test_z_cz_transparency():
    # deleting the phase gates changes nothing about values, on all inputs/tapes
    text = (
        "in secret s\nin public x\nreg a\nout o\n"
        "gate Z s\ngate RAND a\ngate CZ a x\ngate CNOT a o\n"
        "gate TOF s x o\ngate Z o\n"
    )
    circ = parse_netlist(text)
    stripped = parse_netlist("".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith(("gate Z ", "gate CZ "))
    ))
    assert len(stripped.gates) == len(circ.gates) - 3
    for s, x, r in product((0, 1), repeat=3):
        t = RandomTape.of([r])
        assert (
            evaluate(circ, [s], [x], t).outputs
            == evaluate(stripped, [s], [x], t).outputs
        )


def test_reversible_core_bijection():
    # without RAND/COPY the map inputs -> full register file is injective
    circ = parse_netlist(
        "in secret a\nin secret b\nin public c\n"
        "gate TOF a b c\ngate CNOT a b\ngate NOT a\n"
    )
    seen = {
        register_file(circ, [a, b], [c], EMPTY)
        for a, b, c in product((0, 1), repeat=3)
    }
    assert len(seen) == 8


def test_batch_matches_scalar_reference():
    rng = np.random.default_rng(7)
    text = (
        "in secret s\nin public x\nreg a\nreg b\nout o\n"
        "gate RAND a\ngate CNOT a s\ngate RAND b\n"
        "gate TOF s x o\ncgate 2 NOT o\ngate COPY o b\n"
    )
    circ = parse_netlist(text)
    tapes = rng.integers(0, 2, size=(64, circ.rand_count), dtype=np.int8)
    for s, x in product((0, 1), repeat=2):
        ev = evaluate_batch(circ, [s], [x], tapes).matrix()
        for row, tape in zip(ev, tapes):
            ref = evaluate(circ, [s], [x], RandomTape.of(tape))
            want = [(-1 if v is None else v) for v in ref.values]
            assert row.tolist() == want


def test_event_matrix_is_c_contiguous_int8():
    circ = parse_netlist("in secret s\nreg a\nout o\ngate RAND a\ngate CNOT a o\ncgate 0 NOT o\n")
    tapes = np.random.default_rng(3).integers(0, 2, size=(70, 1), dtype=np.int8)
    events = evaluate_batch(circ, np.arange(70)[:, None] % 2, [], tapes)
    for cols, shape in ((None, (70, circ.num_events)), ([4, 0, 2], (70, 3)), ([], (70, 0))):
        matrix = events.matrix(cols)
        assert matrix.dtype == np.int8 and matrix.flags.c_contiguous
        assert matrix.shape == shape
    full = events.matrix()
    assert (events.matrix([4, 0, 2]) == full[:, [4, 0, 2]]).all()
    # event 4 is the NOT conditioned on s: -1 in the rows where s = 0
    assert (full[:, 4] == np.where(np.arange(70) % 2, full[:, 3] ^ 1, -1)).all()


def test_event_windows_are_slices_of_the_event_matrix():
    circ = parse_netlist("in secret s\nreg a\nout o\ngate RAND a\ngate CNOT a o\ncgate 0 NOT o\n")
    tapes = np.random.default_rng(4).integers(0, 2, size=(70, 1), dtype=np.int8)
    events = evaluate_batch(circ, np.arange(70)[:, None] % 3 % 2, [], tapes)
    full = events.matrix()
    # repeated events, every bit offset, the last row, and the skipped event 4
    cols, first = [4, 0, 4, 2, 3, 4, 1, 0, 4], [0, 69, 5, 62, 8, 17, 42, 3, 60]
    # 64 rows are one full machine word; 70 rows from row 0 are the whole batch
    for count in (1, 7, 10, 64, 70):
        starts = [min(s, 70 - count) for s in first]
        got = events.matrix(cols, starts, count)
        assert got.dtype == np.int8 and got.flags.c_contiguous
        assert got.shape == (count, len(cols))
        want = [full[s:s + count, c].tolist() for c, s in zip(cols, starts)]
        assert got.T.tolist() == want
    assert (events.matrix(cols, [0] * len(cols), 70) == events.matrix(cols)).all()
    assert events.matrix([], [], 5).shape == (5, 0)
    # numpy int64 arrays, lists and a range name the same columns and rows
    starts = [min(s, 60) for s in first]
    want = events.matrix(cols, starts, 10)
    assert (events.matrix(np.array(cols), np.array(starts), 10) == want).all()
    assert (events.matrix(range(5)) == full).all()
    assert (events.matrix(np.arange(5)) == full).all()
    assert (events.matrix(range(5), range(0, 50, 10), 20)
            == events.matrix(list(range(5)), np.arange(0, 50, 10), 20)).all()


@pytest.mark.parametrize("secret", ["all ones", "partly ones"])
def test_event_windows_of_conditioned_gates_match_scalar_evaluate(secret):
    # the cgate runs in every row, or only in the rows where s = 1; a
    # window of a conditioned event reads -1 exactly where evaluate skips it
    circ = parse_netlist("in secret s\nreg a\nout o\ngate RAND a\ngate CNOT a o\n"
                         "cgate 0 NOT o\ngate CNOT o a\n")
    s = np.ones(70, dtype=np.int8) if secret == "all ones" else np.arange(70) % 3 % 2
    tapes = np.random.default_rng(5).integers(0, 2, size=(70, 1), dtype=np.int8)
    events = evaluate_batch(circ, s[:, None], [], tapes)
    want = np.array([[-1 if v is None else v
                      for v in evaluate(circ, [si], [], RandomTape.of(t)).values]
                     for si, t in zip(s.tolist(), tapes.tolist())])
    assert (events.matrix() == want).all()
    cols, starts = [4, 1, 4, 5, 6, 4], [0, 3, 61, 30, 9, 33]
    got = events.matrix(cols, starts, 9)
    assert got.T.tolist() == [want[s0:s0 + 9, c].tolist() for c, s0 in zip(cols, starts)]
    assert (got[:, [0, 2, 5]] == -1).any() == (secret == "partly ones")


_TAPES = np.zeros((4, 1), dtype=np.int8)


@pytest.mark.parametrize("secret, public, tapes, match", [
    ([1], [0], np.zeros(4, dtype=np.int8), r"tape batch must have shape \(n, 1\)"),
    ([1], [0], np.zeros((4, 2), dtype=np.int8), r"tape batch must have shape \(n, 1\)"),
    (Planes.pack(np.zeros((3, 1), dtype=np.int8)), [0], _TAPES,
     r"secret matrix must have shape \(4, 1\)"),
    ([[1], [0, 1], [1], [0]], [0], _TAPES, "secret rows must each have 1 bits"),
    ([1, 0], [0], _TAPES, "expected 1 secret bits, got 2"),
    ([1], np.zeros((4, 2), dtype=np.int8), _TAPES, r"public matrix must have shape \(4, 1\)"),
    ("1", [0], _TAPES, r"secret matrix must have shape \(4, 1\)"),
], ids=["1-d-tapes", "tape-width", "planes-shape", "ragged-rows", "shared-row-length",
        "matrix-shape", "string-secret"])
def test_evaluate_batch_refuses_misshapen_inputs(secret, public, tapes, match):
    circ = parse_netlist("in secret s\nin public x\nreg a\nout o\n"
                         "gate RAND a\ngate CNOT a o\ngate CNOT x o\n")
    with pytest.raises(EvalError, match=match):
        evaluate_batch(circ, secret, public, tapes)


def test_batch_outputs_reads_the_last_touch_that_ran():
    # the output's last touch is conditioned on s, so it runs in the s=1 row only
    circ = parse_netlist("in secret s\nout o\ngate CNOT s o\ncgate 0 NOT o\n")
    events = evaluate_batch(circ, [[0], [1]], [], np.zeros((2, 0), dtype=np.int8))
    want = [[evaluate(circ, [s], [], EMPTY).outputs["o"]] for s in (0, 1)]
    assert want == [[0], [0]]
    assert batch_outputs(circ, events).tolist() == want


@pytest.mark.parametrize("starts, count, match", [
    ([2, 2], 5, "window of 5 rows in a batch of 4"),  # three rows past the last one
    ([2, 2], 3, "outside rows 0 .. 3"),
    ([0, 1], 4, "outside rows 0 .. 3"),
    ([-1, 0], 2, "outside rows 0 .. 3"),
    ([0, 0], -1, "window of -1 rows"),
    (None, 5, "window of 5 rows in a batch of 4"),
    ([0], 2, "1 window starts for 2 columns"),
], ids=["longer-than-the-batch", "past-the-end", "one-past-the-end", "negative-start",
        "negative-count", "default-starts", "short-starts"])
def test_event_matrix_refuses_a_window_it_cannot_read(starts, count, match):
    circ = parse_netlist("in secret s\nreg a\nout o\ngate RAND a\ngate CNOT a o\ncgate 0 NOT o\n")
    events = evaluate_batch(circ, [[1], [0], [1], [1]], [], np.ones((4, 1), dtype=np.int8))
    assert events.matrix([0, 3], [0, 0], 4).shape == (4, 2)  # the whole batch reads
    assert events.matrix([0, 3], [4, 4], 0).shape == (0, 2)  # so does an empty tail
    with pytest.raises(EvalError, match=match):
        events.matrix([0, 3], starts, count)


_TOFFOLI = "in secret a\nin secret b\nout c\ngate TOF a b c\n"


# instructions of the one-Toffoli's value program: RAND, COPY, Z and CZ emit
# none, an unconditioned CNOT or NOT one, a TOF two, a conditioned CNOT three
@pytest.mark.parametrize("level, ec, gates, instructions", [
    (1, False, 400, 271), (1, True, 562, 358), (2, True, 28_219, 15_131)])
def test_value_program_sizes_are_pinned(level, ec, gates, instructions):
    circ = compile_circuit(parse_netlist(_TOFFOLI), level=level, ec=ec).circuit
    program = circ.program
    assert (len(circ.gates), len(program.ops)) == (gates, instructions)
    assert len(program.left) == len(program.right) == instructions
    assert set(program.ops) <= {0, 1}
    assert program.head == len(circ.registers) + circ.rand_count + 1
    for table, size in ((program.slot_of, circ.num_events),
                        (program.register_slot, len(circ.registers))):
        assert table.dtype == np.int64 and table.shape == (size,)
        assert not table.flags.writeable
        assert 0 <= table.min() and table.max() < program.slots


def test_value_program_is_built_on_first_evaluation_only(monkeypatch):
    # parsing, compiling, writing and reading back a target build no
    # program; the first evaluate_batch builds it and later ones reuse it
    builds = []
    build_program = circuits._build_program
    monkeypatch.setattr(circuits, "_build_program",
                        lambda circ: builds.append(circ) or build_program(circ))
    logical = parse_netlist(_TOFFOLI)
    comp = compile_circuit(logical, level=1)
    gadgets = json.loads(json.dumps(comp.to_json_dict()))
    again = CompiledCircuit.from_json_dict(parse_netlist(serialize_netlist(comp.circuit)),
                                           gadgets)
    circs = (logical, comp.circuit, again.circuit)
    assert not builds and all("program" not in vars(c) for c in circs)
    tapes = np.zeros((3, comp.circuit.rand_count), dtype=np.int8)
    first = evaluate_batch(comp.circuit, np.zeros((3, 14), dtype=np.int8), [], tapes)
    assert builds == [comp.circuit]
    second = evaluate_batch(comp.circuit, np.ones((3, 14), dtype=np.int8), [], tapes)
    assert builds == [comp.circuit]
    assert first.slot_of is second.slot_of is comp.circuit.program.slot_of
    assert "program" not in vars(again.circuit)
