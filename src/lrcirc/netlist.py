"""Line-oriented netlist text format for circuits.

Grammar (UTF-8, one statement per line, '#' starts a comment):

    in secret <name>
    in public <name>
    reg <name> [init 0|1]
    out <name>
    gate NOT <a> | gate CNOT <c> <t> | gate TOF <c1> <c2> <t>
    gate Z <a>  | gate CZ <a> <b>   | gate RAND <t> | gate COPY <s> <t>
    cgate <event-ref> <GATE...>

All declarations must precede all gates, so wire-event ids (inputs first,
then gate ports in program order) match line order.  `cgate` prefixes any
gate form with the id (ASCII decimal digits) of the wire event whose value
conditions execution: an input's or an unconditioned gate's event.
Lines end only at \n, \r\n or \r, the line ends that open() reads in
text mode; other characters that str.splitlines() breaks at (\v, \f,
\x1c-\x1e, \x85, U+2028, U+2029) separate tokens like spaces, and inside a
comment they stay comment text.
Serialization emits the canonical form: declarations in register order, then
gates; parse/serialize round-trip on canonical text.
"""

from __future__ import annotations

from .circuits import Circuit, CircuitError, Gate, GateKind, Register, Role, collector_paused

_KINDS = {kind.value: kind for kind in GateKind}


class NetlistError(ValueError):
    """Syntax or structural error in netlist text, with a line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@collector_paused()
def parse_netlist(text: str) -> Circuit:
    registers: list[Register] = []
    names: dict[str, int] = {}
    gates: list[Gate] = []
    name_of = names.__getitem__
    for line_no, tok in enumerate(map(str.split, _lines(text)), 1):
        if not tok:
            continue
        head = tok[0]
        if head in ("gate", "cgate"):
            cond = None
            if head == "cgate":
                if len(tok) < 3:
                    raise NetlistError(line_no, "expected: cgate <event> <KIND> <operands>")
                ref = tok.pop(1)
                try:  # int() alone also takes signs, underscores and non-ASCII digits
                    cond = int(ref) if ref.isascii() and ref.isdigit() else -1
                except ValueError:  # more digits than int() converts
                    cond = -1
                if cond < 0:
                    raise NetlistError(line_no, f"bad event reference {ref!r}")
            elif len(tok) < 2:
                raise NetlistError(line_no, "expected: gate <KIND> <operands>")
            kind = _KINDS.get(tok[1])
            if kind is None:
                raise NetlistError(line_no, f"unknown gate kind {tok[1]!r}")
            try:  # the KeyError carries the undeclared name
                gates.append(Gate(kind, tuple(map(name_of, tok[2:])), cond))
            except KeyError as exc:
                raise NetlistError(
                    line_no, f"reference to undeclared register {exc.args[0]!r}"
                ) from None
            continue
        if head == "in":
            if len(tok) != 3 or tok[1] not in ("secret", "public"):
                raise NetlistError(line_no, "expected: in secret|public <name>")
            name, role, init = tok[2], Role.SECRET if tok[1] == "secret" else Role.PUBLIC, 0
        elif head == "reg":
            if not (len(tok) == 2 or len(tok) == 4 and tok[2] == "init" and tok[3] in ("0", "1")):
                raise NetlistError(line_no, "expected: reg <name> [init 0|1]")
            name, role, init = tok[1], Role.INTERNAL, int(tok[3]) if len(tok) == 4 else 0
        elif head == "out":
            if len(tok) != 2:
                raise NetlistError(line_no, "expected: out <name>")
            name, role, init = tok[1], Role.OUTPUT, 0
        else:
            raise NetlistError(line_no, f"unknown statement {head!r}")
        if gates:
            raise NetlistError(line_no, "declarations must precede gates")
        names[name] = rid = len(registers)
        registers.append(Register(rid, name, role, init))

    del names, name_of  # Circuit does not need them; free them before its tables
    try:
        return Circuit(registers, gates)
    except CircuitError as exc:
        raise NetlistError(_line_of(text, exc), str(exc)) from exc


def _lines(text: str) -> list[str]:
    """Every line of `text`, comments cut off, in order (line k at index k - 1)."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if "#" in text:
        lines = [line[:line.index("#")] if "#" in line else line for line in lines]
    return lines


def _statements(text: str):
    """(line number, tokens) of every line that is not blank or comment."""
    for line_no, tok in enumerate(map(str.split, _lines(text)), 1):
        if tok:
            yield line_no, tok


def _line_of(text: str, exc: CircuitError) -> int:
    """Line of the gate or register a Circuit validation error names, or 0.

    Only called once every statement has parsed, so the k-th gate (or
    declaration) statement is gate (or register) k.
    """
    if exc.gate is not None:
        heads, index = ("gate", "cgate"), exc.gate
    elif exc.register is not None:
        heads, index = ("in", "reg", "out"), exc.register
    else:
        return 0
    return [n for n, tok in _statements(text) if tok[0] in heads][index]


# Line prefixes keyed by the enum member's `_value_`: an enum's own hash and
# its `.value` property are Python-level calls, about 100 ns each, which a
# level-2 circuit's 46k records would pay once per line.
_REG_PREFIX = {Role.SECRET.value: "in secret ", Role.PUBLIC.value: "in public ",
               Role.INTERNAL.value: "reg ", Role.OUTPUT.value: "out "}
_GATE_PREFIX = {kind.value: f"gate {kind.value} " for kind in GateKind}


def serialize_netlist(circuit: Circuit) -> str:
    """Canonical netlist text: declarations in register order, then gates.

    `Circuit` allows init 1 only on an internal register, so only a `reg`
    line can carry `init 1`.
    """
    reg_prefix, gate_prefix = _REG_PREFIX, _GATE_PREFIX
    lines = []
    for reg in circuit.registers:
        line = reg_prefix[reg.role._value_] + reg.name
        lines.append(line + " init 1" if reg.init else line)
    name_of = [reg.name for reg in circuit.registers].__getitem__
    for g in circuit.gates:
        ops = " ".join(map(name_of, g.args))
        if g.cond is None:
            lines.append(gate_prefix[g.kind._value_] + ops)
        else:
            lines.append(f"cgate {g.cond} {g.kind._value_} {ops}")
    return "\n".join(lines) + "\n"
