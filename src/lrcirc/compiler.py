"""Compiler from reversible NOT/CNOT/TOF circuits to leakage-hardened form.

Every logical register becomes a block of seven registers holding a Hamming
codeword whose weight parity is the logical bit.  Logical NOT is the flip on
positions {1,2,3}; logical CNOT is position-wise; the Toffoli is performed
by teleporting through a three-block ancilla prepared with an even-weight
("Shor") block, using the odd-overlap property of the odd codeword class.
Measurements, preparations and corrections follow the classical shadow of
the fault-tolerant gadget set: phase gates vanish on values, preparing a
plus state is a fresh leak-free random bit XORed onto a zeroed wire, and an
X-basis measurement is a fresh random readout plus randomization of the
measured wire (two tape bits per wire).

The emitted circuit is an ordinary netlist circuit; the CompiledCircuit
wrapper carries block structure, a gadget index whose ordered, disjoint
top-level spans cover every gate but level 2's condition readouts,
documented tape costs, and a compile log.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb

import numpy as np

from .circuits import Circuit, Gate, GateKind, Register, Role, collector_paused
from .faults import SHOR_DECODE, SHOR_PREP
from .steane import H_ROWS, LOGICAL_SUPPORT, LOGICAL_WORD

# an enum member read through its class costs about 180 ns on CPython 3.11;
# the builder reads these once per gate or register
_RAND = GateKind.RAND
_INPUT_ROLES = (Role.SECRET, Role.PUBLIC)

# documented tape cost (RAND bits) per gadget
TAPE_COST = {
    "measure-x": 2,          # readout + post-state randomization
    "bare-plus": 4,          # 3 encoder seeds + 1 logical flip
    "prep-zero": 17,         # 3 seeds + verification decode of the encoder ancilla
    "prep-plus": 18,         # prep-zero + flip
    "error-correction": 18,  # bare-plus ancilla + 7 X-measured wires
    "shor-prep": 6,
    "shor-verify": 12,       # 6 X-measured wires; the Z-read wire is free
    "toffoli-ancilla": 72,   # 3 prep-plus + shor-prep + shor-verify
    "toffoli": 86,           # ancilla + X-measurement of the third data block
}


class CompileError(ValueError):
    pass


Block = tuple[int, ...]          # seven register ids, positions 1..7


class CircuitBuilder:
    """Incremental circuit construction with live wire-event accounting.

    Mirrors the event-id assignment of Circuit (inputs first, then one id
    per gate operand) so gadget emitters can condition gates on events they
    just produced.  The finished Circuit re-derives the table; build()
    checks that both agree.

    `reserved` names are declared verbatim later (the source circuit's
    public and output registers); blocks created before them avoid them.
    """

    def __init__(self, reserved=()):
        self.regs: list[Register] = []
        self.gates: list[Gate] = []
        self._names: set[str] = set()
        self._reserved = frozenset(reserved)
        # per prefix, the suffix at which fresh() resumes probing; names are
        # never released, so every candidate before it is still taken
        self._next_suffix: dict[str, int] = {}
        self._event = 0
        self._tape = 0
        self._depth = 0
        self.gadgets: list[dict] = []
        self.blocks: list[tuple[str, Block]] = []
        # 7-wire groups that are not codeword-bearing (the even-weight
        # verification ancilla); excluded from the transversality contract
        self.aux_groups: list[tuple[str, Block]] = []
        self.log: list[str] = []
        self.readout_gates: list[int] = []

    # -- registers ------------------------------------------------------

    def fresh(self, prefix: str) -> str:
        """First free name among `prefix`, `prefix.2`, `prefix.3`, ..."""
        k = self._next_suffix.get(prefix, 1)
        name = prefix if k == 1 else f"{prefix}.{k}"
        while name in self._names:
            k += 1
            name = f"{prefix}.{k}"
        self._next_suffix[prefix] = k
        return name

    def new_reg(self, name: str, role: Role = Role.INTERNAL) -> int:
        if role in _INPUT_ROLES:
            if self.gates:
                raise CompileError("inputs must be declared before gates")
            self._event += 1
        self._names.add(name)
        rid = len(self.regs)
        self.regs.append(Register(rid, name, role))
        return rid

    def new_block(self, base: str, role: Role = Role.INTERNAL,
                  code: bool = True) -> Block:
        """Seven registers `base.1`..`base.7`; when one of those names is
        taken or reserved, the base becomes the first of `base.2`,
        `base.3`, ... whose seven names are all free."""
        name, k = base, 1
        while any(n in self._names or n in self._reserved
                  for n in (f"{name}.{j}" for j in range(1, 8))):
            k += 1
            name = f"{base}.{k}"
        base = name
        block = tuple(self.new_reg(f"{base}.{j}", role) for j in range(1, 8))
        (self.blocks if code else self.aux_groups).append((base, block))
        return block

    # -- gates ----------------------------------------------------------

    def emit(self, kind: GateKind, *args: int, cond: int | None = None) -> range:
        """Append a gate and return its event ids, one per operand."""
        self.gates.append(Gate(kind, args, cond))
        events = range(self._event, self._event + len(args))
        self._event = events.stop
        if kind is _RAND:
            self._tape += 1
        return events

    def transversal(self, kind: GateKind, *blocks: Block, cond: int | None = None) -> None:
        """One `kind` gate per position of the equally long `blocks`, whose
        operands are that position of each block, in block order: what one
        `emit` per position would append, in one list extension.  Blocks of
        unequal length raise ValueError before a gate is appended."""
        gates = [Gate(kind, args, cond) for args in zip(*blocks, strict=True)]
        self.gates += gates
        self._event += len(gates) * len(blocks)
        if kind is _RAND:
            self._tape += len(gates)

    def logical_x(self, block: Block, *control: int, cond: int | None = None) -> None:
        """Logical X on `block`: NOT, or CNOT from the register `control`, at
        each LOGICAL_SUPPORT position."""
        kind = GateKind.CNOT if control else GateKind.NOT
        for j in LOGICAL_SUPPORT:
            self.emit(kind, *control, block[j - 1], cond=cond)

    # -- gadget spans -----------------------------------------------------

    @contextmanager
    def gadget(self, kind: str, source: str):
        """Record what the body emits as one span: half-open gate, event and
        tape ranges plus the registers it created.  Spans are listed as they
        close, so a nested span precedes its parent."""
        gates, events, tape, regs = len(self.gates), self._event, self._tape, len(self.regs)
        self._depth += 1
        yield
        self._depth -= 1
        self.gadgets.append({
            "kind": kind,
            "source": source,
            "depth": self._depth,
            "gates": [gates, len(self.gates)],
            "events": [events, self._event],
            "tape": [tape, self._tape],
            "regs_created": len(self.regs) - regs,
        })

    def build(self) -> Circuit:
        circuit = Circuit(self.regs, self.gates)
        if circuit.num_events != self._event:
            raise CompileError(f"event accounting drifted: builder counted {self._event} "
                               f"events, circuit has {circuit.num_events}")
        return circuit


# -- measurement and readout -------------------------------------------------


def emit_measure_x(builder: CircuitBuilder, wire: int) -> int:
    """X-basis measurement: returns a random readout register, randomizes `wire`.

    The readout travels through an ordinary COPY so the outcome is a leaky
    wire like any other measurement record; only the two RAND source events
    are leak-free.
    """
    src = builder.new_reg(builder.fresh("xm.r"))
    builder.emit(GateKind.RAND, src)
    ro = builder.new_reg(builder.fresh("xm.ro"))
    builder.emit(GateKind.COPY, src, ro)
    scr = builder.new_reg(builder.fresh("xm.s"))
    builder.emit(GateKind.RAND, scr)
    builder.emit(GateKind.CNOT, scr, wire)
    return ro


def emit_parity_cascade(builder: CircuitBuilder, wires, ro: int,
                        whitelist: bool = False) -> int:
    """Left-to-right CNOT cascade of any register list into register `ro`.

    Returns the final event id, which carries the parity of `wires`; for a
    whole block that is the logical value.  Whitelisted cascade gates are
    exempt from the transversality audit.
    """
    for rid in wires:
        if whitelist:
            builder.readout_gates.append(len(builder.gates))
        last = builder.emit(GateKind.CNOT, rid, ro)[1]
    return last


def emit_parity_readout(builder: CircuitBuilder, wires, name: str,
                        whitelist: bool = False) -> tuple[int, int]:
    """Parity cascade into a fresh register: (register, final event id)."""
    ro = builder.new_reg(name)
    return ro, emit_parity_cascade(builder, wires, ro, whitelist)


# -- gadgets ------------------------------------------------------------------


def emit_codeword_ancilla(builder: CircuitBuilder, base: str) -> Block:
    """Non-fault-tolerant encoder: three seed bits fanned out by CNOTs.

    The frozen network drives position j from every seed whose check row has
    a 1 there (row-major order), computing the seed combination of the three
    check rows on a zeroed block.
    """
    block = builder.new_block(base)
    seeds = []
    for i in range(3):
        s = builder.new_reg(builder.fresh(f"{base}.seed{i + 1}"))
        builder.emit(GateKind.RAND, s)
        seeds.append(s)
    for i, row in enumerate(H_ROWS):
        for j, bit in enumerate(row):
            if bit:
                builder.emit(GateKind.CNOT, seeds[i], block[j])
    return block


def emit_logical_flip(builder: CircuitBuilder, block: Block, base: str) -> int:
    """Flip on positions {1,2,3} controlled by a fresh leak-free bit."""
    f = builder.new_reg(builder.fresh(f"{base}.flip"))
    builder.emit(GateKind.RAND, f)
    builder.logical_x(block, f)
    return f


def emit_bare_plus(builder: CircuitBuilder, base: str) -> Block:
    """Encoder + random logical flip, no verification.

    Used where the consumer decodes the block itself right afterwards (the
    error-correction ancilla): its own X-measurements are the verification.
    """
    with builder.gadget("bare-plus", base):
        block = emit_codeword_ancilla(builder, base)
        emit_logical_flip(builder, block, base)
    return block


def prep_zero_gadget(builder: CircuitBuilder, base: str) -> Block:
    """Zero-class data block: encoder ancilla copied on transversally.

    The ancilla is read out position-wise (the eigenvalue record) and then
    verification-decoded via X-measurements; those readouts are recorded but
    never act on the data, which classically already holds the codeword.
    """
    with builder.gadget("prep-zero", base):
        data = builder.new_block(base)
        anc = emit_codeword_ancilla(builder, f"{base}.anc")
        builder.transversal(GateKind.CNOT, anc, data)
        ros = [builder.new_reg(builder.fresh(f"{base}.anc.ro{j}")) for j in range(1, 8)]
        builder.transversal(GateKind.COPY, anc, ros)
        for a in anc:
            emit_measure_x(builder, a)
    return data


def prep_plus_gadget(builder: CircuitBuilder, base: str) -> tuple[Block, int]:
    """Uniform data block over all 16 codewords; logical value = the flip bit."""
    with builder.gadget("prep-plus", base):
        data = prep_zero_gadget(builder, base)
        flip = emit_logical_flip(builder, data, base)
    return data, flip


def shor_prep_gadget(builder: CircuitBuilder, base: str) -> Block:
    """Even-weight ancilla block via the frozen preparation schedule
    `faults.SHOR_PREP`, the one the fault audit checks.

    Plus-wires everywhere except position 4, then the CNOT chain
    (5,4),(3,4),(6,5),(2,3),(7,6),(1,2); classically the output word is
    (r1, r1^r2, r2^r3, r3^r5, r5^r6, r6^r7, r7), always of even weight and
    uniform over the 64 even words.
    """
    with builder.gadget("shor-prep", base):
        block = builder.new_block(base, code=False)
        for j, state in SHOR_PREP.prep.items():
            if state == "plus":
                builder.emit(GateKind.RAND, block[j - 1])
        for c, t in SHOR_PREP.cnots:
            builder.emit(GateKind.CNOT, block[c - 1], block[t - 1])
    return block


def shor_verify_gadget(builder: CircuitBuilder, block: Block, base: str) -> dict:
    """Post-interaction decoder for the even-weight ancilla, from the frozen
    schedule `faults.SHOR_DECODE`: the CNOTs (1,4),(7,3),(6,2),(2,5),(3,4),
    (4,5), then X-measurements on wires {1,2,3,4,6,7} and a Z-readout of
    wire 5.
    """
    with builder.gadget("shor-verify", base):
        for c, t in SHOR_DECODE.cnots:
            builder.emit(GateKind.CNOT, block[c - 1], block[t - 1])
        readouts = {}
        for j, basis in SHOR_DECODE.measure.items():
            if basis == "X":
                readouts[j] = emit_measure_x(builder, block[j - 1])
        for j, basis in SHOR_DECODE.measure.items():
            if basis == "Z":
                readouts[j] = builder.new_reg(builder.fresh(f"{base}.z{j}"))
                builder.emit(GateKind.COPY, block[j - 1], readouts[j])
    return readouts


def toffoli_ancilla_gadget(builder: CircuitBuilder, base: str) -> tuple[Block, Block, Block]:
    """Three-block ancilla with logical triple (a, b, ab), a and b uniform.

    The even-weight block accumulates the third plus-block and the
    position-wise AND of the first two; because odd codewords overlap oddly
    exactly with each other, its parity is c XOR ab, and the conditioned
    flip on the third block turns its logical value into ab.
    """
    with builder.gadget("toffoli-ancilla", base):
        a1, _ = prep_plus_gadget(builder, f"{base}.a1")
        a2, _ = prep_plus_gadget(builder, f"{base}.a2")
        shor = shor_prep_gadget(builder, f"{base}.s")
        a3, _ = prep_plus_gadget(builder, f"{base}.a3")
        builder.transversal(GateKind.CNOT, a3, shor)
        builder.transversal(GateKind.TOF, a1, a2, shor)
        _, m_event = emit_parity_readout(builder, shor, builder.fresh(f"{base}.m"))
        builder.logical_x(a3, cond=m_event)
        shor_verify_gadget(builder, shor, f"{base}.s")
    return a1, a2, a3


def toffoli_gadget(builder: CircuitBuilder, d1: Block, d2: Block, d3: Block,
                   base: str) -> tuple[Block, Block, Block]:
    """Teleported Toffoli: consumes the data blocks, returns the ancilla
    blocks holding (x, y, z XOR xy).

    Correction schedule (fixed, verified exhaustively in the tests): after
    the transversal interactions, the second data block is parity-read (m2),
    flipping the second ancilla block and feeding the first-into-third
    conditioned CNOT while the first ancilla is still uncorrected; then the
    first data block is read (m1), flipping the first ancilla block and
    feeding the second-into-third conditioned CNOT with the second block
    already corrected.  The X-measurement of the third data block yields a
    random record m3 whose phase-type correction drops out on values.
    """
    with builder.gadget("toffoli", base):
        a1, a2, a3 = toffoli_ancilla_gadget(builder, f"{base}.anc")
        builder.transversal(GateKind.CNOT, a1, d1)
        builder.transversal(GateKind.CNOT, a2, d2)
        builder.transversal(GateKind.CNOT, d3, a3)

        xro = [emit_measure_x(builder, w) for w in d3]
        emit_parity_readout(builder, [xro[j - 1] for j in LOGICAL_SUPPORT],
                            builder.fresh(f"{base}.m3"))

        _, m2 = emit_parity_readout(builder, d2, builder.fresh(f"{base}.m2"))
        builder.logical_x(a2, cond=m2)
        builder.transversal(GateKind.CNOT, a1, a3, cond=m2)

        _, m1 = emit_parity_readout(builder, d1, builder.fresh(f"{base}.m1"))
        builder.logical_x(a1, cond=m1)
        builder.transversal(GateKind.CNOT, a2, a3, cond=m1)
    return a1, a2, a3


def steane_ec_gadget(builder: CircuitBuilder, block: Block, base: str) -> None:
    """Syndrome extraction only: a bare plus-ancilla absorbs the data
    transversally and is X-measured wire by wire.  The data block is never
    written; recovery would be phase-type and vanishes on values."""
    with builder.gadget("error-correction", base):
        anc = emit_bare_plus(builder, f"{base}.anc")
        builder.transversal(GateKind.CNOT, block, anc)
        for a in anc:
            emit_measure_x(builder, a)


# -- whole-circuit compilation -------------------------------------------------


# position i of a block: the seed indices j with H_ROWS[j][i] = 1, and
# whether the encoded bit itself flips it (LOGICAL_WORD[i])
_POSITIONS = tuple((tuple(j for j, row in enumerate(H_ROWS) if row[i]), LOGICAL_WORD[i])
                   for i in range(7))


def seed_count(bits: int, level: int) -> int:
    """Leak-free seed bits one encoding of `bits` logical bits consumes:
    3 per bit per pass, where pass i re-encodes the 7^i times wider word,
    so 0, 3k and 24k bits at levels 0, 1 and 2."""
    return bits * (7 ** level - 1) // 2


def encode_seed_planes(bits, seeds, level: int, rows: int) -> tuple[int, ...]:
    """Fresh codeword encodings of the logical `bits`, bitsliced: `seeds`
    holds the seed_count(len(bits), level) seed columns as bit-planes (an
    int per column, bit r for row r), and the result holds one plane per
    circuit secret bit, k * 7**level of them.

    A pass turns each bit plane b, with its next three seed planes s, into
    the block of steane.encode_codeword: position i is the XOR of the s_j
    with H_ROWS[j][i] = 1, and of b where LOGICAL_WORD[i] = 1.  A pass over
    k bits reads 3k seed columns, bit by bit.  Level 0 (a raw circuit)
    reads none and returns each bit as an all-ones or all-zeros plane, and
    level 2 is a second pass over the 7k level-1 planes.
    """
    if len(seeds) != seed_count(len(bits), level):
        raise ValueError(f"need {seed_count(len(bits), level)} seed columns, "
                         f"got {len(seeds)}")
    full = (1 << rows) - 1
    words = [full if int(b) & 1 else 0 for b in bits]
    seeds = iter(seeds)
    for _ in range(level):
        out = []
        for w in words:
            s = (next(seeds), next(seeds), next(seeds))
            for taps, flip in _POSITIONS:
                plane = w if flip else 0
                for j in taps:
                    plane ^= s[j]
                out.append(plane)
        words = out
    return tuple(words)


# JSON values are compared by exact type, which also keeps a bool (an int
# subclass) out of the int fields
def _int_list(v) -> bool:
    return type(v) is list and set(map(type, v)) <= {int}


def _named_groups(v) -> bool:
    return type(v) is list and all(
        type(g) is list and len(g) == 2 and type(g[0]) is str and _int_list(g[1]) for g in v)


def _span(v) -> bool:
    return type(v) is list and len(v) == 2 and type(v[0]) is type(v[1]) is int and 0 <= v[0] <= v[1]


_GADGET_FIELDS = {"kind": str, "source": str, "depth": int, "regs_created": int}


def _gadget(g) -> bool:
    return (type(g) is dict and all(type(g.get(k)) is t for k, t in _GADGET_FIELDS.items())
            and _span(g.get("gates")) and _span(g.get("events")) and _span(g.get("tape")))


# the value shape each gadget-index key must have; every key is required.
# location_report divides the "logical" counts, and the compiled sizes among
# them bound the gadget spans (span key -> count) and the readout gates; its
# secret names fix the number of secret blocks at the index's level
_STAT_COUNTS = ("gates", "depth", "compiled_gates", "compiled_depth", "compiled_events",
                "tape_bits", "level1_gates")
_SPAN_SIZES = {"gates": "compiled_gates", "events": "compiled_events", "tape": "tape_bits"}
_JSON_SHAPES = {
    "level": lambda v: type(v) is int and v in (1, 2),
    "ec": lambda v: type(v) is bool,
    "block_map": lambda v: type(v) is dict and all(
        type(k) is str and _int_list(regs) for k, regs in v.items()),
    "blocks": _named_groups,
    "aux_groups": _named_groups,
    "secret_blocks": lambda v: type(v) is list and all(map(_int_list, v)),
    "gadgets": lambda v: type(v) is list and all(map(_gadget, v)),
    "readout_gates": _int_list,
    "log": lambda v: type(v) is list,
    "logical": lambda v: (
        type(v) is dict and {*_SPAN_SIZES.values(), "secret"} <= v.keys()
        and all(type(v[k]) is int for k in _STAT_COUNTS if k in v)
        and type(v["secret"]) is list and set(map(type, v["secret"])) <= {str}),
}


@dataclass
class CompiledCircuit:
    circuit: Circuit
    level: int
    ec: bool
    block_map: dict[str, Block]            # logical register -> final block
    blocks: list[tuple[str, Block]]        # every code block ever created
    secret_blocks: list[Block]             # input blocks, logical order
    gadget_index: list[dict]
    readout_gates: list[int]
    log: list[str]
    logical_stats: dict
    aux_groups: list[tuple[str, Block]]

    @cached_property
    def snapshot_pairs(self) -> np.ndarray:
        """Leakable event pairs that observe one code block within a single
        snapshot, as a read-only (P, 2) int64 array, decided on first use.

        A snapshot is a maximal gate interval in which no register of the
        block is written, so the two events sample positions of one
        codeword state; each block's snapshots come in gate order, and
        within one the pairs (a, b), a < b, in ascending order.  Two leaks
        in one error-correction period are the construction's documented
        failure order, and the pairs that do leak lie outside this set: an
        affine-form audit of the level-1 one-Toffoli finds 68, none within
        a snapshot and all in the Toffoli's exRec (44 pair a CNOT of the
        prep-zero of ancilla block a1 or a2 with a CNOT of the following EC
        of block a or b, 12 a COPY of that prep-zero with a CNOT of the same
        EC, and 12 a prep-plus CNOT with a CNOT of the toffoli span).  They
        are left to the transcript-level estimators.
        """
        reg_block = {r: bi for bi, (_name, regs) in enumerate(self.blocks) for r in regs}
        circuit = self.circuit
        window = [0] * len(self.blocks)
        snapshot_events: dict[tuple[int, int], list[int]] = {}
        for rid, eid in circuit.input_events.items():
            bi = reg_block.get(rid)
            if bi is not None:
                snapshot_events.setdefault((bi, 0), []).append(eid)
        for g, start in zip(circuit.gates, circuit.gate_start):
            for ev, rid in enumerate(g.args, start):
                bi = reg_block.get(rid)
                if bi is None:
                    continue
                if ev - start == g.kind.write_port:
                    window[bi] += 1
                if ev not in circuit.leak_free:
                    snapshot_events.setdefault((bi, window[bi]), []).append(ev)
        # each snapshot's events were appended in ascending id order
        pairs = np.fromiter(chain.from_iterable(
            chain.from_iterable(combinations(events, 2))
            for events in snapshot_events.values()), dtype=np.int64).reshape(-1, 2)
        pairs.flags.writeable = False
        return pairs

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "ec": self.ec,
            "block_map": {k: list(v) for k, v in self.block_map.items()},
            "blocks": [[name, list(regs)] for name, regs in self.blocks],
            "aux_groups": [[name, list(regs)] for name, regs in self.aux_groups],
            "secret_blocks": [list(b) for b in self.secret_blocks],
            "gadgets": self.gadget_index,
            "readout_gates": list(self.readout_gates),
            "log": list(self.log),
            "logical": self.logical_stats,
        }

    @classmethod
    def from_json_dict(cls, circuit: Circuit | None, d: dict) -> CompiledCircuit:
        """Rebuild from `to_json_dict` output.  Raises ValueError on a missing
        key, a value of the wrong shape (see _JSON_SHAPES), a block or aux
        group not made of 7 registers of its own, a secret-block count other
        than 7^(level - 1) per logical secret, or a readout gate or span
        past the sizes that "logical" declares; given the circuit, also on
        other sizes, a register past its end or secrets out of order."""
        missing = sorted(_JSON_SHAPES.keys() - d.keys() if isinstance(d, dict) else _JSON_SHAPES)
        if missing:
            raise ValueError(f"gadget index lacks {', '.join(missing)}")
        malformed = [k for k, ok in _JSON_SHAPES.items() if not ok(d[k])]
        if malformed:
            raise ValueError(f"gadget index has malformed {', '.join(malformed)}")
        sizes = {k: d["logical"][stat] for k, stat in _SPAN_SIZES.items()}
        if any(g[k][1] > end for g in d["gadgets"] for k, end in sizes.items()):
            raise ValueError("gadget index has a span past the end of the circuit")
        if any(not 0 <= gi < sizes["gates"] for gi in d["readout_gates"]):
            raise ValueError("gadget index names a readout gate outside the circuit")
        groups = [regs for _, regs in d["blocks"] + d["aux_groups"]]
        if any(len(set(regs)) != 7 for regs in groups):
            raise ValueError("gadget index has a block that is not 7 distinct registers")
        if len({r for regs in groups for r in regs}) != 7 * len(groups):
            raise ValueError("gadget index puts a register in two blocks")
        if len(d["secret_blocks"]) != len(d["logical"]["secret"]) * 7 ** (d["level"] - 1):
            raise ValueError("gadget index secret blocks do not fit its level")
        compiled = cls(
            circuit=circuit,
            level=d["level"],
            ec=d["ec"],
            block_map={k: tuple(v) for k, v in d["block_map"].items()},
            blocks=[(name, tuple(regs)) for name, regs in d["blocks"]],
            secret_blocks=[tuple(b) for b in d["secret_blocks"]],
            gadget_index=d["gadgets"],
            readout_gates=list(d["readout_gates"]),
            log=list(d["log"]),
            logical_stats=d["logical"],
            aux_groups=[(name, tuple(regs)) for name, regs in d["aux_groups"]],
        )
        if circuit is not None:
            if [len(circuit.gates), circuit.num_events, circuit.rand_count] != [*sizes.values()]:
                raise ValueError("gadget index sizes differ from the circuit's")
            n = len(circuit.registers)
            groups = [*compiled.blocks, *compiled.aux_groups, *compiled.block_map.items()]
            if any(not 0 <= r < n for _, regs in groups for r in regs):
                raise ValueError(f"gadget index names a register beyond the circuit's {n}")
            secret = [r for b in compiled.secret_blocks for r in b]
            if secret != [r.id for r in circuit.secret_regs]:
                raise ValueError("gadget index secret blocks differ from the circuit's secrets")
        return compiled


_LOGICAL_KINDS = {GateKind.NOT, GateKind.CNOT, GateKind.TOF, GateKind.Z, GateKind.CZ}
# level-1 gates above which level 2 is refused: level-2 compile time and
# output size are linear in it (about 50 level-2 gates per level-1 gate),
# and this keeps one compile near a second and 10^5 gates
_LEVEL2_GUARD = 2000

# top-level gadget span per expanded gate kind (TOF opens its own span)
_GATE_GADGETS = {
    GateKind.NOT: "logical-not",
    GateKind.CNOT: "logical-cnot",
    GateKind.RAND: "encoded-rand",
    GateKind.COPY: "encoded-copy",
}


@collector_paused()
def compile_circuit(logical: Circuit, level: int = 1, ec: bool = True) -> CompiledCircuit:
    """Compile a reversible logical circuit into leakage-hardened form.

    The logical circuit may hold only NOT, CNOT, TOF, Z and CZ, with no
    conditioned gates.  Level 1 is one pass of the gadget map (`_expand`):
    phase gates are dropped with a log entry, and with ec on every logical
    gate is followed by syndrome extraction on the blocks it touched.
    Level 2 applies the same pass again to the level-1 circuit, with EC
    off (structural concatenation).
    """
    if level not in (1, 2):
        raise CompileError(f"level must be 1 or 2, got {level}")
    for g in logical.gates:
        if g.cond is not None:
            raise CompileError("conditioned gates are not compilable")
        if g.kind not in _LOGICAL_KINDS:
            raise CompileError(f"unsupported logical gate {g.kind.value}")
    circuit, b, block_map, secret_blocks = _expand(logical, 1, ec)
    log = b.log
    if level == 2:
        level1_gates = len(circuit.gates)
        if level1_gates > _LEVEL2_GUARD:
            raise CompileError(
                f"level-2 expansion refused: level-1 result has "
                f"{level1_gates} gates (> {_LEVEL2_GUARD})"
            )
        circuit, b, block_map, secret_blocks = _expand(circuit, 2, ec=False)
        log = log + b.log
    stats = {
        "gates": len(logical.gates),
        "depth": logical.depth(),
        "secret": [r.name for r in logical.secret_regs],
        "public": [r.name for r in logical.public_regs],
        "outputs": [r.name for r in logical.output_regs],
        "compiled_gates": len(circuit.gates),
        "compiled_depth": circuit.depth(),
        "compiled_events": circuit.num_events,
        "tape_bits": circuit.rand_count,
    }
    if level == 2:
        stats["level1_gates"] = level1_gates
    return CompiledCircuit(
        circuit=circuit, level=level, ec=ec, block_map=block_map, blocks=b.blocks,
        secret_blocks=secret_blocks, gadget_index=b.gadgets,
        readout_gates=b.readout_gates, log=log, logical_stats=stats,
        aux_groups=b.aux_groups,
    )


def _expand(source: Circuit, level: int, ec: bool
            ) -> tuple[Circuit, CircuitBuilder, dict[str, Block], list[Block]]:
    """One application of the gadget map: every register of `source` becomes
    a block and every gate goes through its gadget.  Returns the circuit,
    its builder, each source register's final block by name, and the secret
    blocks.

    Inputs, secret and public, are all declared before the first gate.
    Z and CZ are dropped with a log entry (identity on values); RAND becomes
    a fresh plus-block copied over; COPY copies position-wise.  Gate
    conditions (only a level-1 circuit has them) are decoded on the spot: a
    parity readout of the block holding the conditioning register supplies
    the classical bit.
    """
    prefix = "g" if level == 1 else "x"
    regs = source.registers
    b = CircuitBuilder(reserved=[r.name for r in regs
                                 if r.role in (Role.PUBLIC, Role.OUTPUT)])
    block_map: dict[int, Block] = {}
    secret_blocks: list[Block] = []
    public_raw: dict[int, int] = {}

    for reg in regs:
        if reg.role is Role.SECRET:
            block_map[reg.id] = b.new_block(reg.name, Role.SECRET)
            secret_blocks.append(block_map[reg.id])
        elif reg.role is Role.PUBLIC:
            public_raw[reg.id] = b.new_reg(reg.name, Role.PUBLIC)
    out_regs = {reg.id: b.new_reg(reg.name, Role.OUTPUT) for reg in source.output_regs}

    for reg in regs:
        if reg.role is Role.SECRET:
            continue
        if reg.role is Role.PUBLIC:
            with b.gadget("encode-public", reg.name):
                block = prep_zero_gadget(b, f"{reg.name}.enc")
                b.logical_x(block, public_raw[reg.id])
        else:
            with b.gadget("prep-block", reg.name):
                block = prep_zero_gadget(b, f"{reg.name}.blk")
                if reg.init:
                    b.logical_x(block)
        block_map[reg.id] = block

    # the register each wire event was recorded on, to decode conditions
    event_reg = {eid: rid for rid, eid in source.input_events.items()}
    for g, start in zip(source.gates, source.gate_start):
        event_reg.update(enumerate(g.args, start))

    for gi, g in enumerate(source.gates):
        names = [regs[a].name for a in g.args]
        if g.kind in (GateKind.Z, GateKind.CZ):
            b.log.append(
                f"dropped {g.kind.value} gate #{gi} on {', '.join(names)} "
                f"(identity on values)"
            )
            continue
        cond = None
        if g.cond is not None:
            _, cond = emit_parity_readout(
                b, block_map[event_reg[g.cond]], b.fresh(f"{prefix}{gi}.cond"),
                whitelist=True,
            )
        blocks = [block_map[a] for a in g.args]
        if g.kind is GateKind.TOF:
            if cond is not None:
                raise CompileError("conditioned TOF cannot be re-expanded")
            outs = toffoli_gadget(b, *blocks, base=f"{prefix}{gi}")
            block_map.update(zip(g.args, outs))
        else:
            label = (f"gate#{gi} {g.kind.value} {' '.join(names)}" if level == 1
                     else f"phys#{gi} {g.kind.value}")
            with b.gadget(_GATE_GADGETS[g.kind], label):
                if g.kind is GateKind.NOT:
                    b.logical_x(blocks[0], cond=cond)
                elif g.kind is GateKind.RAND:
                    fresh = emit_bare_plus(b, f"{prefix}{gi}.rand")
                    b.transversal(GateKind.COPY, fresh, blocks[0], cond=cond)
                else:  # CNOT and COPY act position-wise
                    b.transversal(g.kind, *blocks, cond=cond)
        if ec:
            for a, name in zip(g.args, names):
                steane_ec_gadget(b, block_map[a], f"{prefix}{gi}.ec.{name}")

    for reg in source.output_regs:
        with b.gadget("output-readout", reg.name):
            emit_parity_cascade(b, block_map[reg.id], out_regs[reg.id], whitelist=True)

    return (b.build(), b, {regs[rid].name: blk for rid, blk in block_map.items()},
            secret_blocks)


# -- reporting -----------------------------------------------------------------


# reference arithmetic for the published crude threshold estimate
_REFERENCE_LOCATIONS = 20


def location_report(compiled: CompiledCircuit) -> dict:
    """Per-gadget location counts and the crude pair-counting threshold.

    A location is an emitted gate or a register created inside the gadget
    span (register creation stands in for zero-state preparation).  The
    largest gadget's pair count gives the reciprocal threshold estimate;
    the published 20-location/190-pair numbers are printed alongside as
    reference arithmetic, not forced to match.
    """
    per_kind: dict[str, dict] = {}
    largest = None
    for g in compiled.gadget_index:
        kind = g["kind"]
        gates = g["gates"][1] - g["gates"][0]
        locations = gates + g["regs_created"]
        entry = per_kind.setdefault(
            kind, {"count": 0, "locations_min": locations,
                   "locations_max": locations, "gates": 0}
        )
        entry["count"] += 1
        entry["gates"] += gates
        entry["locations_min"] = min(entry["locations_min"], locations)
        entry["locations_max"] = max(entry["locations_max"], locations)
        if g["depth"] == 0 and (largest is None or locations > largest[1]):
            largest = (kind, locations)

    own = None
    if largest is not None:
        pairs = comb(largest[1], 2)
        own = {
            "largest_gadget": largest[0],
            "locations": largest[1],
            "pairs": pairs,
            "threshold_estimate": 1.0 / pairs if pairs else None,
        }
    stats = compiled.logical_stats
    ratios = {}
    if stats.get("gates"):
        ratios["gate_ratio"] = stats["compiled_gates"] / stats["gates"]
    if stats.get("depth"):
        ratios["depth_ratio"] = stats["compiled_depth"] / stats["depth"]
    return {
        "per_gadget": dict(sorted(per_kind.items())),
        "own": own,
        "reference": {
            "locations": _REFERENCE_LOCATIONS,
            "pairs": comb(_REFERENCE_LOCATIONS, 2),
            "threshold_estimate": 1.0 / comb(_REFERENCE_LOCATIONS, 2),
        },
        "size": {
            "logical_gates": stats.get("gates"),
            "logical_depth": stats.get("depth"),
            "compiled_gates": stats.get("compiled_gates"),
            "compiled_depth": stats.get("compiled_depth"),
            "compiled_events": stats.get("compiled_events"),
            "tape_bits": stats.get("tape_bits"),
            **ratios,
        },
    }
