"""Bit-level circuit intermediate representation and evaluators.

A circuit is a register file plus an ordered gate list over the reversible
gate set NOT/CNOT/TOF, the value-transparent phase gates Z/CZ, a leak-free
random-bit source RAND, and a readout fan-out COPY.  Every circuit input
declaration and every gate output port gets one *wire event*: the unit to
which leakage applies.  Event ids are dense and assigned in program order,
inputs first (in declaration order), then one block of ids per gate, ordered
by the gate's operand order and starting at its `Circuit.gate_start`.
`Register` and `Gate` are plain records, frozen and hashable, whose inits
set their slots directly for speed; `Circuit` checks them: every register
name against the netlist grammar in one regex match, so a circuit that
builds serializes to text that reads back, then each gate in one pass.

Gates may carry a classical condition: an input's or unconditioned gate's
event, a plain bit on every row, which gates execution.  A skipped gate
updates no register and records no values; its event slots stay empty
(no-op markers), so the skipped branch exposes nothing to leakage.  A
skipped RAND still consumes its tape bit, which keeps tape consumption a
static property of the circuit.  `Circuit` fixes one read-only array
once, `leakable`: the ascending ids of the events that can leak (all but
RAND's, which are leak-free).

`evaluate_batch` is the evaluator every library path runs.  It is
bitsliced: each value is one Python int whose bit r is row r, so an
operation acts on the whole batch at once.  It runs the circuit's
`ValueProgram` (`Circuit.program`, built on the first evaluation and
cached): a straight-line list of XOR and AND instructions over a table of
value slots, headed by the input and tape planes and a constant zero and
ones slot, with maps from each event to its value slot and the slot of
the rows it ran in, and from each register to its final slot.  It takes
per-row inputs and tapes as int8 matrices, which it packs into planes, or
already packed as `Planes`, the lab's own layout.  It returns an
`EventBatch`: the run's slot planes, from which `batch_outputs` reads the
outputs.  Callers count on the planes directly or unpack what they read
with `EventBatch.matrix`: an int8 matrix of chosen events, each over all
rows or over its own window of rows, with -1 for a skipped event.  The
scalar `evaluate` and `register_file` are the reference the tests check
it against.
"""

from __future__ import annotations

import gc
import re
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product

import numpy as np


class Role(Enum):
    SECRET = "secret-input"
    PUBLIC = "public-input"
    INTERNAL = "internal"
    OUTPUT = "output"


class GateKind(Enum):
    """Gate kinds as (netlist mnemonic, operand count, written port).

    Every operand is also an output port (one wire event each); the written
    port is the operand whose value the gate may change, None for the
    value-transparent phase gates.  A conditioned write counts as a write.
    """

    NOT = ("NOT", 1, 0)
    CNOT = ("CNOT", 2, 1)
    TOF = ("TOF", 3, 2)
    Z = ("Z", 1, None)
    CZ = ("CZ", 2, None)
    RAND = ("RAND", 1, 0)
    COPY = ("COPY", 2, 1)

    def __new__(cls, mnemonic: str, arity: int, write_port: int | None):
        kind = object.__new__(cls)
        kind._value_ = mnemonic
        kind.arity = arity
        kind.write_port = write_port
        return kind


class CircuitError(ValueError):
    """Raised for structurally invalid circuits.

    `gate` (an index into the gate list) or `register` (a register id)
    names the part that was rejected, when there is one.
    """

    def __init__(self, message: str, *, gate: int | None = None,
                 register: int | None = None):
        super().__init__(message)
        self.gate = gate
        self.register = register


class EvalError(RuntimeError):
    """Raised for inputs or a tape whose length does not fit the circuit."""


# Young-generation count above which a paused build is promoted on resume:
# a level-2 build leaves about 100k tracked objects, a level-1 build 2-7k
# and a tiny parse about 100.
_PROMOTE_AT = 20_000


@contextmanager
def collector_paused():
    """Pause Python's cyclic garbage collector for the duration of the block
    (or of each call, when used as a decorator), then restore its state.

    Building a level-2 circuit creates tens of thousands of registers, gates
    and tuples, which would push the collector through about 150 passes, one
    of them over the whole heap, that find nothing: these objects hold only
    ints, strs, enum members and tuples, so they form no reference cycle,
    and reference counting frees them.  When the outermost pause ends with
    the collector enabled and the young generation holds more than
    `_PROMOTE_AT` objects, `gc.freeze()` then `gc.unfreeze()` moves them
    straight to the oldest generation, so neither the young pass due on
    resume nor the next middle pass walks the build again.  Whatever else
    sat in the young and middle generations moves with it and waits for a
    full collection, so a build should not follow work that leaves cyclic
    garbage behind (the CLI's writers leave none).  Smaller builds are left
    where they are: promoting a tiny parse would reset the young count each
    time, and a loop of them would then never reach a full collection.
    Nothing is promoted while the caller holds frozen objects
    (`gc.get_freeze_count()`), since `gc.unfreeze()` would thaw them too.
    Nested pauses leave the collector off, and promote nothing, until the
    outermost one ends.  The switch is process-wide, so pauses that overlap
    in two threads can turn it back on before the later one ends; that costs
    time, never the restored state.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if gc.get_count()[0] > _PROMOTE_AT and not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


# Registers and gates have slots: a level-2 circuit holds tens of thousands
# of them, and without a __dict__ each is smaller and quicker to build (the
# level-2 one-Toffoli circuit takes 1.8 MB less).  Their inits store each
# field through its slot's descriptor, which costs about half of the
# generated frozen init's object.__setattr__ calls; the records stay frozen,
# since assignment and deletion still go through dataclass's guards, and
# keep its __eq__, __hash__ and __repr__.
@dataclass(frozen=True, slots=True, init=False)
class Register:
    id: int
    name: str
    role: Role
    init: int = 0

    def __init__(self, id: int, name: str, role: Role, init: int = 0):
        _set_register_id(self, id)
        _set_register_name(self, name)
        _set_register_role(self, role)
        _set_register_init(self, init)


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    kind: GateKind
    args: tuple[int, ...]
    cond: int | None = None  # wire-event id; gate runs only if its value is 1

    def __init__(self, kind: GateKind, args: tuple[int, ...], cond: int | None = None):
        _set_gate_kind(self, kind)
        _set_gate_args(self, args)
        _set_gate_cond(self, cond)


_set_register_id, _set_register_name, _set_register_role, _set_register_init = (
    Register.id.__set__, Register.name.__set__, Register.role.__set__, Register.init.__set__)
_set_gate_kind, _set_gate_args, _set_gate_cond = (
    Gate.kind.__set__, Gate.args.__set__, Gate.cond.__set__)


@dataclass(frozen=True)
class RandomTape:
    """Finite bit supply for RAND gates; one bit per RAND, in program order."""

    bits: tuple[int, ...]

    @classmethod
    def of(cls, bits) -> RandomTape:
        return cls(tuple(int(b) & 1 for b in bits))


@dataclass(frozen=True)
class Trace:
    """One evaluation: a value (or None for a skipped no-op) per wire event."""

    values: tuple[int | None, ...]
    outputs: dict[str, int]


_NAMES = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*(?:\n[A-Za-z_][A-Za-z0-9_.]*)*")


def _names_ok(names: list[str]) -> bool:
    """Whether there are names and every one matches the netlist grammar's
    `[A-Za-z_][A-Za-z0-9_.]*`, tested with one regex pass over all of them."""
    try:
        text = "\n".join(names)
    except TypeError:  # a name that is not a str
        return False
    # a name holding a newline would read as two names of the pattern
    return _NAMES.fullmatch(text) is not None and text.count("\n") == len(names) - 1


class Circuit:
    """Immutable register/gate program with a derived wire-event table.

    The one owner of every structural rule: it raises `CircuitError`,
    naming the gate or register at fault, for a sparse register id, a name
    outside the netlist grammar, a repeated register name, an `init` other
    than 0 or 1 or an `init` of 1 outside an internal register, a wrong
    operand count, a repeated or undeclared operand, a condition that does
    not precede its gate or that is an event of a conditioned gate, or an
    output that no gate writes.
    """

    def __init__(self, registers: list[Register], gates: list[Gate]):
        self.registers = tuple(registers)
        self.gates = tuple(gates)
        # an enum member read through its class costs about 180 ns on
        # CPython 3.11, so the loops below read them from locals
        SECRET, PUBLIC, OUTPUT, INTERNAL = Role.SECRET, Role.PUBLIC, Role.OUTPUT, Role.INTERNAL
        self.secret_regs = tuple([r for r in self.registers if r.role is SECRET])
        self.public_regs = tuple([r for r in self.registers if r.role is PUBLIC])
        self.output_regs = tuple([r for r in self.registers if r.role is OUTPUT])

        # event table: inputs first, then one event per gate operand
        self.input_events: dict[int, int] = {}  # register id -> event id
        # one regex pass accepts every name of a valid circuit; only if it
        # fails does the loop below check each name, to find the first bad one
        names_ok = _names_ok([r.name for r in self.registers])
        names, eid, init_ones = set(), 0, []
        for i, reg in enumerate(self.registers):
            if reg.id != i:
                raise CircuitError(f"register ids must be dense, got {reg.id} at {i}",
                                   register=i)
            name, role = reg.name, reg.role
            if not names_ok and not _names_ok([name]):
                raise CircuitError(f"bad register name {name!r}", register=i)
            if name in names:
                raise CircuitError(f"duplicate register name {name!r}", register=i)
            names.add(name)
            if reg.init:
                if reg.init != 1 or role is not INTERNAL:
                    raise CircuitError(f"register {name!r} cannot have init {reg.init}: "
                                       "only an internal register may start at 1", register=i)
                init_ones.append(i)
            if role is SECRET or role is PUBLIC:
                self.input_events[i] = eid
                eid += 1
        del names  # 512 KB at level 2, freed before the gate tables grow
        self.init_ones = tuple(init_ones)  # ids of the registers that start at 1
        nregs = len(self.registers)
        # skippable holds the events of the conditioned gates
        gate_start, skippable, rand_events, written = [], set(), [], set()
        add_start, add_written = gate_start.append, written.add
        RAND = GateKind.RAND
        # within a gate the rules run in this order: operand count, distinct
        # operands, operand range, condition, tested unrolled for one and two
        # operands (nearly all of a compiled circuit); the handler names the
        # gate at fault, so the loop keeps no index
        try:
            for g in self.gates:
                kind, args, cond = g.kind, g.args, g.cond
                n = len(args)
                if n != kind.arity:
                    raise CircuitError(f"{kind.value} takes {kind.arity} operand(s), got {n}")
                if n == 2:
                    a, b = args
                    if a == b:
                        raise CircuitError(f"duplicate operand in {kind.value} gate")
                    if not 0 <= a < nregs:
                        raise CircuitError(f"gate references undeclared register {a}")
                    if not 0 <= b < nregs:
                        raise CircuitError(f"gate references undeclared register {b}")
                elif n == 1:
                    a, = args
                    if not 0 <= a < nregs:
                        raise CircuitError(f"gate references undeclared register {a}")
                else:
                    if len(set(args)) != n:
                        raise CircuitError(f"duplicate operand in {kind.value} gate")
                    for a in args:
                        if not 0 <= a < nregs:
                            raise CircuitError(f"gate references undeclared register {a}")
                if cond is not None:
                    if not 0 <= cond < eid:
                        raise CircuitError(f"condition event {cond} does not precede the "
                                           "gate it controls")
                    if cond in skippable:
                        raise CircuitError(f"condition event {cond} is an event of a "
                                           "conditioned gate, which a run may skip")
                    skippable.update(range(eid, eid + n))
                port = kind.write_port
                if port is not None:
                    add_written(args[port])
                    if kind is RAND:
                        rand_events.append(eid)
                add_start(eid)
                eid += n
        except CircuitError as exc:
            exc.gate = len(gate_start)  # one entry per gate before it
            raise
        for reg in self.output_regs:
            if reg.id not in written:
                raise CircuitError(f"output register {reg.name!r} is never written",
                                   register=reg.id)
        del written  # 512 KB at level 2, freed before the arrays below
        # gate i's events are range(gate_start[i], gate_start[i] + len(args))
        self.gate_start: tuple[int, ...] = tuple(gate_start)
        self.num_events = eid
        self.leak_free: frozenset[int] = frozenset(rand_events)
        self.rand_count = len(rand_events)
        # decided once for every estimator and batch (see the module docstring)
        self.leakable = np.delete(np.arange(eid), rand_events)
        self.leakable.flags.writeable = False

    @cached_property
    def program(self) -> ValueProgram:
        """The circuit's straight-line XOR/AND program (`ValueProgram`),
        built on first use, which is the first `evaluate_batch` call."""
        return _build_program(self)

    # -- introspection ----------------------------------------------------

    def event_listing(self) -> list[str]:
        """Human-readable wire-event table (ids are assigned in program order)."""
        lines = []
        for reg in self.registers:
            if reg.id in self.input_events:
                lines.append(f"{self.input_events[reg.id]:6d}  input {reg.role.value} {reg.name}")
        for i, (g, start) in enumerate(zip(self.gates, self.gate_start)):
            cond = f" if[{g.cond}]" if g.cond is not None else ""
            for ev, rid in enumerate(g.args, start):
                name = self.registers[rid].name
                lines.append(f"{ev:6d}  gate#{i} {g.kind.value}{cond} port {ev - start} -> {name}")
        return lines

    def depth(self) -> int:
        """Longest register-dependency chain through the gate list."""
        level = [0] * len(self.registers)
        for g in self.gates:
            args = g.args
            if len(args) == 2:  # CNOT, CZ and COPY: most of a compiled circuit
                a, b = args
                la, lb = level[a], level[b]
                level[a] = level[b] = (la if la > lb else lb) + 1
                continue
            d = 1 + max(map(level.__getitem__, args))
            for a in args:
                level[a] = d
        return max(level, default=0)


# -- evaluation ------------------------------------------------------------


def evaluate(circuit: Circuit, secret, public, tape: RandomTape) -> Trace:
    """Run the circuit on explicit inputs and a random tape.

    `secret` and `public` are bit sequences matching the declared input
    registers in declaration order.  The result is a pure function of the
    arguments: NOT/CNOT/TOF act as the usual boolean maps, Z and CZ leave
    values unchanged (their events record the operand values), RAND
    overwrites its target with the next tape bit, COPY duplicates a value.
    A tape of other than `rand_count` bits is refused before a gate runs.
    """
    vals, events = _run(circuit, secret, public, tape)
    return Trace(tuple(events), {r.name: vals[r.id] for r in circuit.output_regs})


def register_file(circuit: Circuit, secret, public, tape: RandomTape) -> tuple[int, ...]:
    """Final value of every register after evaluation, in register order."""
    vals, _ = _run(circuit, secret, public, tape)
    return tuple(vals)


def _run(circuit: Circuit, secret, public, tape: RandomTape):
    secret = [int(b) & 1 for b in secret]
    public = [int(b) & 1 for b in public]
    if len(secret) != len(circuit.secret_regs):
        raise EvalError(
            f"expected {len(circuit.secret_regs)} secret bits, got {len(secret)}"
        )
    if len(public) != len(circuit.public_regs):
        raise EvalError(
            f"expected {len(circuit.public_regs)} public bits, got {len(public)}"
        )
    if len(tape.bits) != circuit.rand_count:
        raise EvalError(f"expected {circuit.rand_count} tape bits, got {len(tape.bits)}")

    vals = [r.init for r in circuit.registers]
    for reg, bit in zip(circuit.secret_regs, secret):
        vals[reg.id] = bit
    for reg, bit in zip(circuit.public_regs, public):
        vals[reg.id] = bit

    events: list[int | None] = [None] * circuit.num_events
    for rid, eid in circuit.input_events.items():
        events[eid] = vals[rid]

    tape_bits = iter(tape.bits)
    for g, start in zip(circuit.gates, circuit.gate_start):
        if g.kind is GateKind.RAND:
            fresh = next(tape_bits)
        if g.cond is not None and events[g.cond] == 0:
            continue  # no-op marker: event slots stay None
        a = g.args
        if g.kind is GateKind.NOT:
            vals[a[0]] ^= 1
        elif g.kind is GateKind.CNOT:
            vals[a[1]] ^= vals[a[0]]
        elif g.kind is GateKind.TOF:
            vals[a[2]] ^= vals[a[0]] & vals[a[1]]
        elif g.kind is GateKind.RAND:
            vals[a[0]] = fresh
        elif g.kind is GateKind.COPY:
            vals[a[1]] = vals[a[0]]
        # Z and CZ: identity on values
        for ev, rid in enumerate(a, start):
            events[ev] = vals[rid]

    return vals, events


@dataclass(frozen=True, slots=True)
class Planes:
    """A (rows, k) bit matrix held bitsliced: `planes[j]` is column j as one
    int whose bit r is row r, with no bit set at or past `rows`.
    evaluate_batch takes it wherever it takes a per-row int8 matrix, and
    `shape` reads as that matrix's would."""

    rows: int
    planes: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, len(self.planes)

    @classmethod
    def pack(cls, bits) -> Planes:
        """The planes of a (rows, k) matrix of 0/1 bits."""
        bits = np.asarray(bits, dtype=np.int8) & 1
        return cls(bits.shape[0], tuple(_pack_columns(bits)))

    def unpack(self) -> np.ndarray:
        """The C-contiguous int8 (rows, k) matrix of the planes."""
        return _unpack_planes(self.planes, self.rows)


class ValueProgram:
    """A circuit as a straight-line program over a table of value slots.

    The table's head is one slot per input register (secret, then public),
    one per tape bit, then the constant zero slot and the all-ones slot
    `ones`, where every other register starts by its `init`.  Instruction
    i appends slot `head + i`, holding `S[left[i]] ^ S[right[i]]` when
    `ops[i]` is 0 and `S[left[i]] & S[right[i]]` when it is 1.  Read-only
    int64 arrays give event e's value slot, `slot_of[e]`, and the slot of
    the rows it ran in, `ran_of[e]`: its condition's value slot for an
    event of a conditioned gate, else `ones`, so `ran_of[e] != ones` marks
    the events some row may skip; `register_slot[i]` is register i's final
    slot.

    RAND, COPY, Z and CZ rename slots and emit nothing; an unconditioned
    CNOT or NOT emits one XOR (NOT with the all-ones slot) and a TOF an AND
    and an XOR.  A conditioned gate acts through ANDs with its condition's
    slot, the rows where it runs, and each of its ports gets a slot of its
    own, `value & run`, the control port of a CNOT reusing the AND that
    feeds its write.  So two events share a slot exactly when one value
    reaches both with no write between, through reads, unconditioned
    writes and COPY, where the initial values of the non-input registers
    of one `init` count as one value (a conditioned gate's port never
    shares), and events that share a slot share every count and every
    affine form.
    The fields are not to be changed.
    """

    # a plain class: a frozen dataclass takes about 1 ms to define, which
    # every `lrc` start-up would pay
    __slots__ = ("ops", "left", "right", "head", "ones", "slot_of", "ran_of", "register_slot")

    def __init__(self, ops: bytes, left: array, right: array, head: int,
                 slot_of: np.ndarray, ran_of: np.ndarray, register_slot: np.ndarray):
        self.ops, self.left, self.right = ops, left, right
        self.head = head  # slots before the first instruction's
        self.ones = head - 1  # the all-ones slot, after the zero slot
        self.slot_of, self.ran_of, self.register_slot = slot_of, ran_of, register_slot

    @property
    def slots(self) -> int:
        """The length of the slot table after a run."""
        return self.head + len(self.ops)


_XOR, _AND = 0, 1


def _build_program(circuit: Circuit) -> ValueProgram:
    """One pass over the gates, tracking the slot each register holds."""
    inputs = circuit.secret_regs + circuit.public_regs
    tape = len(inputs)  # the next RAND's tape slot
    zero = tape + circuit.rand_count
    ones = zero + 1
    head = ones + 1
    held = [zero] * len(circuit.registers)  # register id -> the slot of its value
    for rid in circuit.init_ones:
        held[rid] = ones
    for slot, reg in enumerate(inputs):
        held[reg.id] = slot
    ops, left, right = bytearray(), array("i"), array("i")
    add_op, add_left, add_right = ops.append, left.append, right.append

    def emit(op: int, a: int, b: int) -> int:
        add_op(op)
        add_left(a)
        add_right(b)
        return head + len(left) - 1

    slot_of = array("q", bytes(8 * circuit.num_events))
    ran_of = array("q", [ones]) * circuit.num_events
    for rid, eid in circuit.input_events.items():
        slot_of[eid] = held[rid]
    NOT, CNOT, TOF, RAND, COPY = (GateKind.NOT, GateKind.CNOT, GateKind.TOF,
                                  GateKind.RAND, GateKind.COPY)
    for g, e in zip(circuit.gates, circuit.gate_start):
        kind, args = g.kind, g.args  # events e, e + 1, .. by operand
        if g.cond is None:
            if kind is CNOT:
                c, t = args
                slot_of[e] = x = held[c]
                slot_of[e + 1] = held[t] = emit(_XOR, held[t], x)
            elif kind is RAND:
                slot_of[e] = held[args[0]] = tape
                tape += 1
            elif kind is COPY:
                slot_of[e] = slot_of[e + 1] = held[args[1]] = held[args[0]]
            else:
                if kind is TOF:
                    a, b, t = args
                    held[t] = emit(_XOR, held[t], emit(_AND, held[a], held[b]))
                elif kind is NOT:
                    held[args[0]] = emit(_XOR, held[args[0]], ones)
                for ev, rid in enumerate(args, e):  # Z and CZ rename only
                    slot_of[ev] = held[rid]
            continue
        run = slot_of[g.cond]  # the rows where the gate runs
        first = e  # the first port still without a slot
        if kind is CNOT:
            c, t = args
            slot_of[e] = x = emit(_AND, held[c], run)
            ran_of[e] = run
            held[t] = emit(_XOR, held[t], x)
            first += 1
        elif kind is TOF:
            a, b, t = args
            held[t] = emit(_XOR, held[t], emit(_AND, emit(_AND, held[a], held[b]), run))
        elif kind is NOT:
            held[args[0]] = emit(_XOR, held[args[0]], run)
        elif kind is RAND:  # a skipped RAND still consumes its bit
            r = args[0]
            held[r] = emit(_XOR, held[r], emit(_AND, emit(_XOR, held[r], tape), run))
            tape += 1
        elif kind is COPY:
            s, t = args
            held[t] = emit(_XOR, held[t], emit(_AND, emit(_XOR, held[t], held[s]), run))
        for ev in range(first, e + len(args)):
            slot_of[ev] = emit(_AND, held[args[ev - e]], run)
            ran_of[ev] = run
    tables = (np.frombuffer(slot_of, dtype=np.int64), np.frombuffer(ran_of, dtype=np.int64),
              np.array(held, dtype=np.int64))
    for t in tables:
        t.setflags(write=False)
    return ValueProgram(bytes(ops), left, right, head, *tables)


class EventBatch:
    """Wire-event values of a batch of rows, bitsliced: one Python int per
    slot of the circuit's `ValueProgram`, bit r holding row r.

    `planes[slot_of[e]]` has bit r set when event e recorded 1 in row r,
    `planes[ran_of[e]]` when it ran in row r (a skipped event's value bit
    is 0), and `planes[register_slot[i]]` is register i's final plane;
    the three maps and the all-ones slot `ones` are the program's.
    Consumers read the planes directly (popcounts, masks) or unpack the
    events they need, over all rows or one row window per event, with
    `matrix`.
    """

    def __init__(self, rows: int, planes: list[int], program: ValueProgram):
        self.rows = rows
        self.full = (1 << rows) - 1
        self.planes = planes
        self.slot_of = program.slot_of
        self.ran_of = program.ran_of
        self.register_slot = program.register_slot
        self.ones = program.ones

    def matrix(self, cols=None, starts=None, count=None) -> np.ndarray:
        """C-contiguous int8 matrix of shape (count, len(cols)) whose column
        j holds event cols[j] (default: every event) in rows starts[j] ..
        starts[j] + count - 1 (default: every row), with -1 for a skipped
        event.  An event id outside 0 .. num_events - 1, or a window that
        starts below row 0, has a negative count or ends past the last row,
        is refused with EvalError.  Each column is cut from the event's
        value plane by a shift and a mask, and only the cut bits are
        unpacked; skipped rows are cut only for the columns whose ran slot
        is not the ones slot."""
        events = self.slot_of.size
        cols = np.arange(events) if cols is None else np.asarray(cols, dtype=np.int64)
        outside = cols.view(np.uint64) >= events  # a negative id reads as a huge one
        if np.count_nonzero(outside):
            raise EvalError(f"event {cols[outside][0]} is outside events 0 .. {events - 1}")
        count = self.rows if count is None else count
        if not 0 <= count <= self.rows:
            raise EvalError(f"window of {count} rows in a batch of {self.rows}")
        if starts is None:
            starts = [0] * cols.size
        else:
            starts = np.asarray(starts, dtype=np.int64)
            if starts.shape != cols.shape:
                raise EvalError(f"got {starts.size} window starts for {cols.size} columns")
            if cols.size and (starts.min() < 0 or starts.max() > self.rows - count):
                raise EvalError(f"window of {count} rows from row {int(starts.min())} or "
                                f"{int(starts.max())} is outside rows 0 .. {self.rows - 1}")
            starts = starts.tolist()
        window = (1 << count) - 1
        ran = self.ran_of[cols]
        maybe_skipped = np.flatnonzero(ran != self.ones)
        planes = self.planes
        out = _unpack_planes([(planes[s] >> t) & window
                              for s, t in zip(self.slot_of[cols].tolist(), starts)], count)
        skipped = {}
        for j, s in zip(maybe_skipped.tolist(), ran[maybe_skipped].tolist()):
            gap = ((self.full ^ planes[s]) >> starts[j]) & window
            if gap:
                skipped[j] = gap
        if skipped:
            out[:, list(skipped)] -= _unpack_planes(skipped.values(), count)
        return out


def evaluate_batch(circuit: Circuit, secret, public, tapes) -> EventBatch:
    """Bitsliced evaluation over a batch of tapes.

    `tapes` is a (batch, rand_count) int8 matrix or its `Planes`.
    `secret`/`public` are each one bit row shared by the whole batch, or
    per-row input bits as a (batch, k) array or `Planes`.  Matrices are
    packed into planes, one int with a bit per row, which with the zero and
    all-ones planes fill the head of the slot table of the circuit's
    `ValueProgram`; the program then runs as one loop of big-int XORs and
    ANDs, whatever the batch size.  The scalar `evaluate` is the reference
    semantics and the two are cross-checked in the tests.
    """
    shape_error = f"tape batch must have shape (n, {circuit.rand_count})"
    if not isinstance(tapes, Planes):
        tapes = np.asarray(tapes, dtype=np.int8)
        if tapes.ndim != 2:
            raise EvalError(shape_error)
        tapes = Planes.pack(tapes)
    if len(tapes.planes) != circuit.rand_count:
        raise EvalError(shape_error)
    batch = tapes.rows
    secret = _input_planes(secret, len(circuit.secret_regs), batch, "secret")
    public = _input_planes(public, len(circuit.public_regs), batch, "public")
    program = circuit.program
    planes = [*secret, *public, *tapes.planes, 0, (1 << batch) - 1]
    append = planes.append
    for op, a, b in zip(program.ops, program.left, program.right):
        append(planes[a] & planes[b] if op else planes[a] ^ planes[b])
    return EventBatch(batch, planes, program)


def _input_planes(bits, width: int, batch: int, label: str) -> list[int]:
    """One bit-plane per input register from a shared row or a per-row
    (batch, width) matrix or Planes."""
    if isinstance(bits, Planes):
        if bits.shape != (batch, width):
            raise EvalError(f"{label} matrix must have shape ({batch}, {width})")
        return list(bits.planes)
    try:
        arr = np.asarray(bits, dtype=np.int8) & 1
    except ValueError as exc:  # rows of unequal length
        raise EvalError(f"{label} rows must each have {width} bits") from exc
    if arr.ndim == 1:
        if arr.shape[0] != width:
            raise EvalError(f"expected {width} {label} bits, got {arr.shape[0]}")
        full = (1 << batch) - 1
        return [full if b else 0 for b in arr.tolist()]
    if arr.shape != (batch, width):
        raise EvalError(f"{label} matrix must have shape ({batch}, {width})")
    return _pack_columns(arr)


def _pack_columns(bits: np.ndarray) -> list[int]:
    """One int per column of a (rows, k) 0/1 int8 matrix, bit r holding row r."""
    rows, width = bits.shape
    nbytes = (rows + 7) // 8
    packed = np.zeros((nbytes, width), dtype=np.uint8)
    for k in range(8):  # byte b of a column holds rows 8b .. 8b + 7
        part = bits[k::8].view(np.uint8)
        packed[:len(part)] |= part << k
    buf = packed.T.tobytes()
    return [int.from_bytes(buf[j * nbytes:(j + 1) * nbytes], "little") for j in range(width)]


def _unpack_planes(planes, rows: int) -> np.ndarray:
    """C-contiguous int8 (rows, len(planes)) matrix of the planes' low
    `rows` bits, one column per plane.  Only whole bytes are transposed;
    a numpy transpose of the bit matrix itself thrashes the cache."""
    nbytes = (rows + 7) // 8
    buf = b"".join([p.to_bytes(nbytes, "little") for p in planes])
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(planes), nbytes).T.copy()
    out = np.empty((8 * nbytes, len(planes)), dtype=np.uint8)
    for k in range(8):
        out[k::8] = (packed >> k) & 1
    return out[:rows].view(np.int8)


def batch_outputs(circuit: Circuit, events: EventBatch) -> np.ndarray:
    """Final output-register values, as an int8 (rows, outputs) matrix, for
    an EventBatch of `circuit` from evaluate_batch."""
    slots = events.register_slot[[r.id for r in circuit.output_regs]].tolist()
    return _unpack_planes([events.planes[s] for s in slots], events.rows)


def bit_rows(width: int) -> np.ndarray:
    """All 2^width bit rows in itertools.product order (first column most
    significant), as an int8 matrix."""
    index = np.arange(1 << width)
    rows = np.empty((index.size, width), dtype=np.int8)
    for j in range(width):
        rows[:, j] = (index >> (width - 1 - j)) & 1
    return rows


def rows_per_batch(circuit: Circuit) -> int:
    """Rows per evaluate_batch call for callers that run many rows: about
    2^24 row cells of events and registers per call, which keeps the bit
    planes near 2 MB and a full `EventBatch.matrix` near 16 MB."""
    return max(1, (1 << 24) // (circuit.num_events + len(circuit.registers) or 1))


def truth_table(circuit: Circuit):
    """Exact output distribution per (secret, public) input, by enumeration.

    Every (input, tape) row is evaluated with evaluate_batch, tapes
    innermost; each input's outputs are listed in order of first
    appearance.  At most 20 input and tape bits together, so at most 2^20
    rows.
    """
    ns, npub = len(circuit.secret_regs), len(circuit.public_regs)
    if ns + npub + circuit.rand_count > 20:
        raise EvalError(
            f"truth_table limited to 20 input bits and tape bits together "
            f"({ns + npub} input, {circuit.rand_count} tape)"
        )
    rows = bit_rows(ns + npub + circuit.rand_count)
    step = rows_per_batch(circuit)
    outputs = []
    for lo in range(0, len(rows), step):
        r = rows[lo:lo + step]
        events = evaluate_batch(circuit, r[:, :ns], r[:, ns:ns + npub], r[:, ns + npub:])
        outputs.extend(map(tuple, batch_outputs(circuit, events).tolist()))
    tapes = 1 << circuit.rand_count
    table = {}
    for i, inputs in enumerate(product((0, 1), repeat=ns + npub)):
        counts = Counter(outputs[i * tapes:(i + 1) * tapes])
        table[(inputs[:ns], inputs[ns:])] = {k: v / tapes for k, v in counts.items()}
    return table
