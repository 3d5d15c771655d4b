"""Code tuned for speed against plain reference copies: `Circuit`'s one
check path per gate, unrolled for one and two operands, and its event
tables against `reference_tables`, the general rules in their order;
`CircuitBuilder.transversal` against one `emit` per position; and
`transversality_audit`'s flags against one general loop over every gate."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcirc.circuits import Circuit, CircuitError, Gate, GateKind, Register, Role
from lrcirc.compiler import CircuitBuilder, compile_circuit
from lrcirc.faults import transversality_audit
from lrcirc.netlist import parse_netlist

_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None, database=None)

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")


def reference_tables(registers, gates):
    """Circuit's rules as one general check per register and per gate, in
    the order Circuit applies them; returns (gate_start, num_events,
    leak_free, leakable, cond_of) or raises Circuit's CircuitError.
    cond_of gives each event its gate's `Gate.cond`, or -1."""
    names, eid = set(), 0
    for i, reg in enumerate(registers):
        if reg.id != i:
            raise CircuitError(f"register ids must be dense, got {reg.id} at {i}", register=i)
        name, role = reg.name, reg.role
        if not (isinstance(name, str) and _NAME.match(name)):
            raise CircuitError(f"bad register name {name!r}", register=i)
        if name in names:
            raise CircuitError(f"duplicate register name {name!r}", register=i)
        names.add(name)
        if reg.init and (reg.init != 1 or role is not Role.INTERNAL):
            raise CircuitError(f"register {name!r} cannot have init {reg.init}: only "
                               "an internal register may start at 1", register=i)
        if role in (Role.SECRET, Role.PUBLIC):
            eid += 1
    nregs = len(registers)
    gate_start, skippable, rand_events, written = [], set(), [], set()
    cond_of = [-1] * eid  # the input events
    for gi, g in enumerate(gates):
        kind, args, cond = g.kind, g.args, g.cond
        n = len(args)
        if n != kind.arity:
            raise CircuitError(f"{kind.value} takes {kind.arity} operand(s), got {n}", gate=gi)
        if n > 1 and len(set(args)) != n:
            raise CircuitError(f"duplicate operand in {kind.value} gate", gate=gi)
        for a in args:
            if not 0 <= a < nregs:
                raise CircuitError(f"gate references undeclared register {a}", gate=gi)
        events = range(eid, eid + n)
        if cond is not None:
            if not 0 <= cond < eid:
                raise CircuitError(f"condition event {cond} does not precede the gate "
                                   "it controls", gate=gi)
            if cond in skippable:
                raise CircuitError(f"condition event {cond} is an event of a "
                                   "conditioned gate, which a run may skip", gate=gi)
            skippable.update(events)
        if kind.write_port is not None:
            written.add(args[kind.write_port])
            if kind is GateKind.RAND:
                rand_events.append(eid)
        gate_start.append(eid)
        cond_of.extend([-1 if cond is None else cond] * n)
        eid += n
    for reg in registers:
        if reg.role is Role.OUTPUT and reg.id not in written:
            raise CircuitError(f"output register {reg.name!r} is never written",
                               register=reg.id)
    return (tuple(gate_start), eid, frozenset(rand_events),
            np.delete(np.arange(eid), rand_events).tolist(), cond_of)


def outcome(build, *args):
    """What `build(*args)` gives: its tables, or its refusal."""
    try:
        got = build(*args)
    except CircuitError as exc:
        return "refused", str(exc), exc.gate, exc.register
    if isinstance(got, Circuit):
        got = (got.gate_start, got.num_events, got.leak_free, got.leakable.tolist(),
               got.cond_of.tolist())
    return "built", got


_GATE_FAULTS = ("operand-count", "duplicate-operand", "operand-range", "late-condition",
                "skippable-condition")
# two faults in one gate, the earlier rule first (one condition cannot be both late and
# skippable)
_GATE_FAULT_PAIRS = tuple(f"{f}+{g}" for i, f in enumerate(_GATE_FAULTS)
                          for g in _GATE_FAULTS[i + 1:]
                          if (f, g) != ("late-condition", "skippable-condition"))
# what the refusal of each gate fault says
_REFUSALS = dict(zip(_GATE_FAULTS, (" operand(s), got ", "duplicate operand in ",
                                    "undeclared register ", " does not precede ",
                                    " is an event of a conditioned gate")))
_REGISTER_FAULTS = ("sparse-id", "duplicate-name", "init", "unwritten-output")
_BAD_NAMES = ("9x", "a init 1", "", "a-b", "x\ny", "a\n", "\na", "tab\there", "é", "a#b", 7)


@st.composite
def generated_circuits(draw, fault=None, fault_kind=None):
    """(registers, gates): 3-6 registers, the first a secret input, and
    1-8 gates of every kind, each maybe conditioned on an earlier event
    that every row runs, then a NOT (maybe conditioned) on each output;
    with `fault`, one register or gate then breaks that one rule, or with
    two gate faults joined by "+", one gate of `fault_kind` (one of
    _kinds_holding(fault)), maybe conditioned, breaks both rules."""
    roles = [Role.SECRET] + draw(st.lists(st.sampled_from(list(Role)), min_size=2, max_size=5))
    registers = [Register(i, f"r{i}", role, draw(st.integers(0, 1)) if role is Role.INTERNAL
                          else 0) for i, role in enumerate(roles)]
    nregs = len(registers)
    eid = sum(role in (Role.SECRET, Role.PUBLIC) for role in roles)
    always, skippable = list(range(eid)), []
    kinds = draw(st.lists(st.sampled_from(list(GateKind)), min_size=1, max_size=8))
    kinds += [GateKind.NOT] * roles.count(Role.OUTPUT)
    outputs = iter([i for i, role in enumerate(roles) if role is Role.OUTPUT])
    gates, starts, skippable_before = [], [], []
    for gi, kind in enumerate(kinds):
        args = tuple(draw(st.permutations(range(nregs)))[:kind.arity])
        if gi >= len(kinds) - roles.count(Role.OUTPUT):
            args = (next(outputs),)
        cond = draw(st.none() | st.sampled_from(always))
        starts.append(eid)
        skippable_before.append(list(skippable))
        (always if cond is None else skippable).extend(range(eid, eid + kind.arity))
        gates.append(Gate(kind, args, cond))
        eid += kind.arity
    faults = fault.split("+") if fault else []
    if faults and faults[0] in _GATE_FAULTS:
        gi = draw(st.integers(0, len(gates) - 1))
        g = gates[gi]
        if len(faults) > 1:
            kind = fault_kind
            args = draw(st.permutations(range(nregs)))[:kind.arity]
            cond = draw(st.none() | st.sampled_from(
                [e for e in range(starts[gi]) if e not in skippable_before[gi]]))
        else:
            kind, args, cond = g.kind, list(g.args), g.cond
        if "operand-count" in faults:
            fewest = 2 if "duplicate-operand" in faults else 1 if "operand-range" in faults else 0
            count = draw(st.sampled_from([c for c in range(fewest, 5) if c != kind.arity]))
            args = draw(st.lists(st.integers(0, nregs - 1), min_size=count, max_size=count,
                                 unique=count <= nregs))
        if "duplicate-operand" in faults:
            if len(faults) == 1:
                kind = draw(st.sampled_from([GateKind.CNOT, GateKind.CZ, GateKind.COPY,
                                             GateKind.TOF]))
                args = draw(st.permutations(range(nregs)))[:kind.arity]
            i, j = sorted(draw(st.permutations(range(len(args))))[:2])
            args[j] = args[i]
        if "operand-range" in faults:
            # one or more operands go out of range, each to its own value and with
            # every copy, so a duplicate stays one and no new duplicate appears
            chosen = sorted({args[k] for k in draw(st.sets(st.integers(0, len(args) - 1),
                                                            min_size=1))})
            bad = dict(zip(chosen, draw(st.permutations([-1, nregs, nregs + 5, nregs + 9]))))
            args = [bad.get(a, a) for a in args]
        if "late-condition" in faults:
            cond = draw(st.sampled_from([-1, starts[gi], starts[gi] + 1, starts[gi] + 9]))
        if "skippable-condition" in faults:
            if skippable_before[gi]:
                cond = draw(st.sampled_from(skippable_before[gi]))
            else:  # no earlier conditioned gate: add one, then a gate conditioned on it
                gates.append(Gate(GateKind.NOT, (nregs - 1,), 0))
                gi, cond = len(gates), eid
                gates.append(g)
        gates[gi] = Gate(kind, tuple(args), cond)
    elif fault in _REGISTER_FAULTS or fault == "name":
        ri = draw(st.integers(1 if fault == "duplicate-name" else 0, nregs - 1))
        reg = registers[ri]
        rid, name, role, init = reg.id, reg.name, reg.role, reg.init
        if fault == "sparse-id":
            rid = draw(st.sampled_from([ri + 1, ri + 7, -1]))
        elif fault == "duplicate-name":
            name = registers[draw(st.integers(0, ri - 1))].name
        elif fault == "init":
            init = 2 if role is Role.INTERNAL else draw(st.integers(1, 2))
        elif fault == "name":
            name = draw(st.sampled_from(_BAD_NAMES))
            if draw(st.booleans()):  # a later rule broken too: the name is reported
                init = 2
        else:
            registers.append(Register(nregs, "spare", Role.OUTPUT))
        if fault != "unwritten-output":
            registers[ri] = Register(rid, name, role, init)
    return registers, gates


@_SETTINGS
@given(generated_circuits())
def test_a_valid_circuit_has_the_reference_tables(case):
    assert outcome(Circuit, *case) == outcome(reference_tables, *case)
    assert outcome(Circuit, *case)[0] == "built"


def _kinds_holding(fault: str) -> list[GateKind]:
    """The gate kinds one gate of which can break both rules of a two-fault
    case: a duplicate needs two operands, unless a wrong count supplies
    them."""
    two = "duplicate-operand" in fault and "operand-count" not in fault
    return [k for k in GateKind if k.arity > 1 or not two]


@pytest.mark.parametrize("fault", _GATE_FAULTS + _REGISTER_FAULTS + _GATE_FAULT_PAIRS)
@_SETTINGS
@given(data=st.data())
def test_a_faulty_circuit_gets_the_reference_refusal(fault, data):
    # a two-fault case runs once per gate kind that can hold both faults
    for kind in _kinds_holding(fault) if "+" in fault else [None]:
        case = data.draw(generated_circuits(fault, kind))
        want = outcome(reference_tables, *case)
        assert want[0] == "refused"
        assert _REFUSALS.get(fault.split("+")[0], "") in want[1]
        assert outcome(Circuit, *case) == want


@_SETTINGS
@given(generated_circuits("name"))
def test_a_bad_register_name_gets_the_reference_refusal(case):
    want = outcome(reference_tables, *case)
    assert want[0] == "refused" and want[1].startswith("bad register name")
    assert outcome(Circuit, *case) == want


@pytest.mark.parametrize("name", _BAD_NAMES)
def test_a_name_outside_the_grammar_is_refused(name):
    registers = [Register(0, "s", Role.SECRET), Register(1, name, Role.OUTPUT)]
    with pytest.raises(CircuitError, match=r"^bad register name ") as info:
        Circuit(registers, [Gate(GateKind.CNOT, (0, 1))])
    assert info.value.register == 1


def test_register_rules_run_in_order_dense_id_name_duplicate_init():
    s = Register(0, "s", Role.SECRET)
    cases = [
        (Register(2, "9x", Role.INTERNAL, 2), "register ids must be dense"),
        (Register(1, "9x", Role.INTERNAL, 2), "bad register name '9x'"),
        (Register(1, "s", Role.INTERNAL, 2), "duplicate register name 's'"),
        (Register(1, "t", Role.INTERNAL, 2), "register 't' cannot have init 2"),
    ]
    for reg, message in cases:
        with pytest.raises(CircuitError, match=re.escape(message)) as info:
            Circuit([s, reg], [])
        assert info.value.register == 1


# -- CircuitBuilder.transversal -------------------------------------------------


def transversal_by_emit(builder, kind, *blocks, cond=None):
    """The reference: one `emit` per block position."""
    for args in zip(*blocks, strict=True):
        builder.emit(kind, *args, cond=cond)


def _builder_after(transversal, kind, cond):
    b = CircuitBuilder()
    s = b.new_reg("s", Role.SECRET)
    blocks = [b.new_block(f"b{i}") for i in range(3)]
    b.emit(GateKind.RAND, blocks[0][0])
    with b.gadget("outer", "test"):
        with b.gadget("inner", "test"):
            transversal(b, kind, *blocks[:kind.arity], cond=cond)
        transversal(b, GateKind.RAND, blocks[2], cond=cond)
        b.emit(GateKind.NOT, s)
    return b


@pytest.mark.parametrize("cond", [None, 0])
@pytest.mark.parametrize("kind", [GateKind.CNOT, GateKind.COPY, GateKind.TOF])
def test_transversal_equals_one_emit_per_position(kind, cond):
    want = _builder_after(transversal_by_emit, kind, cond)
    got = _builder_after(CircuitBuilder.transversal, kind, cond)
    assert got.gates == want.gates
    assert (got._event, got._tape) == (want._event, want._tape)
    assert got.gadgets == want.gadgets
    assert got.build().gate_start == want.build().gate_start


def test_transversal_refuses_unequal_blocks_before_emitting():
    b = CircuitBuilder()
    long, short = b.new_block("a"), b.new_block("b")[:6]
    with pytest.raises(ValueError):
        b.transversal(GateKind.CNOT, long, short)
    assert (b.gates, b._event, b._tape) == ([], 0, 0)


# -- transversality_audit -------------------------------------------------------


def reference_audit(circuit, blocks, whitelist_gates=frozenset()):
    """transversality_audit's flags from one general loop over every gate."""
    owner = {}
    for name, regs in blocks:
        for pos, r in enumerate(regs, start=1):
            if r in owner:
                raise ValueError(f"register {r} assigned to two blocks")
            owner[r] = (name, pos)
    flags = []
    for i, g in enumerate(circuit.gates):
        if len(g.args) < 2 or i in whitelist_gates:
            continue
        seen, positions = {}, set()
        for a in g.args:
            hit = owner.get(a)
            if hit is None:
                continue
            b, pos = hit
            if b in seen:
                flags.append({"gate": i, "kind": g.kind.value, "reason": "intra-block",
                              "block": b, "registers": sorted([seen[b], a])})
            seen[b] = a
            positions.add(pos)
        if len(seen) >= 2 and len(positions) > 1:
            flags.append({"gate": i, "kind": g.kind.value, "reason": "position-mismatch",
                          "blocks": sorted(seen), "positions": sorted(positions)})
    return {"gates_checked": len(circuit.gates), "blocks": len(blocks), "flags": flags,
            "clean": not flags}


_ONE_TOFFOLI = "in secret a\nin secret b\nout c\ngate TOF a b c\n"


@pytest.fixture(scope="module", params=[1, 2])
def compiled_toffoli(request):
    return compile_circuit(parse_netlist(_ONE_TOFFOLI), level=request.param)


def _rotated(blocks):
    """Every other block with its positions rotated by one."""
    return [(name, regs[1:] + regs[:1]) if i % 2 else (name, regs)
            for i, (name, regs) in enumerate(blocks)]


def _merged(blocks):
    """Consecutive blocks joined in pairs into 14-register blocks."""
    return [(blocks[i][0], blocks[i][1] + (blocks[i + 1][1] if i + 1 < len(blocks) else ()))
            for i in range(0, len(blocks), 2)]


@pytest.mark.parametrize("regroup, reasons", [
    (list, set()),
    (_rotated, {"position-mismatch"}),
    (_merged, {"intra-block", "position-mismatch"}),
])
@pytest.mark.parametrize("whitelisted", [True, False])
def test_audit_of_the_compiled_toffoli_equals_the_reference(compiled_toffoli, whitelisted,
                                                            regroup, reasons):
    comp = compiled_toffoli
    blocks = regroup(comp.blocks)
    whitelist = frozenset(comp.readout_gates if whitelisted else ())
    report = transversality_audit(comp.circuit, blocks, whitelist_gates=whitelist)
    assert report == reference_audit(comp.circuit, blocks, whitelist)
    assert {flag["reason"] for flag in report["flags"]} == reasons


@st.composite
def audited_circuits(draw):
    """(circuit, blocks, whitelist): three 7-register blocks over 24
    registers (so three are unowned), two of them maybe under one name, and
    1-30 gates of 2 and 3 operands, drawn so intra-block and
    position-mismatch flags both occur."""
    order = draw(st.permutations(range(24)))
    names = draw(st.sampled_from([["b0", "b1", "b2"], ["b0", "b0", "b2"]]))
    blocks = [(names[k], tuple(order[7 * k:7 * k + 7])) for k in range(3)]
    owned = [r for _name, regs in blocks for r in regs]
    registers = [Register(i, f"r{i}", Role.INTERNAL) for i in range(24)]
    gates = []
    for kind in draw(st.lists(st.sampled_from([GateKind.CNOT, GateKind.COPY, GateKind.CZ,
                                               GateKind.TOF]), min_size=1, max_size=30)):
        if draw(st.booleans()):  # position-wise over distinct blocks: never flagged
            pos = draw(st.integers(0, 6))
            args = [blocks[k][1][pos] for k in draw(st.permutations(range(3)))[:kind.arity]]
        else:
            pool = draw(st.sampled_from([owned, list(range(24)), blocks[0][1] + blocks[1][1]]))
            args = draw(st.permutations(pool))[:kind.arity]
        gates.append(Gate(kind, tuple(args)))
    whitelist = frozenset(draw(st.sets(st.integers(0, len(gates) - 1))))
    return Circuit(registers, gates), blocks, whitelist


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(audited_circuits())
def test_audit_of_built_circuits_equals_the_reference(case):
    assert transversality_audit(*case) == reference_audit(*case)
