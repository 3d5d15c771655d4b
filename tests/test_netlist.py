"""Netlist grammar: parsing, error reporting, canonical round trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcirc.circuits import Circuit, CircuitError, Gate, GateKind, Register, Role
from lrcirc.netlist import NetlistError, parse_netlist, serialize_netlist

# 20-line canonical fixture exercising every statement form
FIXTURE = """\
in secret y0
in secret y1
in public x0
reg a
reg b init 1
reg m
out o0
out o1
gate RAND a
gate CNOT a y0
gate NOT b
gate TOF y0 y1 o0
gate Z y1
gate CZ y0 x0
gate COPY o0 m
cgate 3 NOT o1
gate CNOT x0 o1
gate RAND m
gate COPY m o0
gate TOF x0 a o1
"""


def test_minimal_program():
    circ = parse_netlist("in secret y0\nout o0\ngate CNOT y0 o0\n")
    assert len(circ.registers) == 2
    assert len(circ.gates) == 1
    assert circ.num_events == 3


def test_duplicate_operand_error():
    with pytest.raises(NetlistError, match="line 3.*duplicate operand"):
        parse_netlist("in secret y0\nout o0\ngate CNOT y0 y0\n")


def test_roundtrip_on_fixture():
    circ = parse_netlist(FIXTURE)
    assert serialize_netlist(circ) == FIXTURE
    again = parse_netlist(serialize_netlist(circ))
    assert again.registers == circ.registers
    assert again.gates == circ.gates


def test_comments_and_blank_lines():
    circ = parse_netlist(
        "# a comment\n\nin secret s  # trailing\n\nout o\ngate CNOT s o\n"
    )
    assert [r.name for r in circ.registers] == ["s", "o"]


def test_roles_and_init():
    circ = parse_netlist(FIXTURE)
    roles = {r.name: r.role for r in circ.registers}
    assert roles["y0"] is Role.SECRET
    assert roles["x0"] is Role.PUBLIC
    assert roles["b"] is Role.INTERNAL
    assert roles["o0"] is Role.OUTPUT
    inits = {r.name: r.init for r in circ.registers}
    assert inits["b"] == 1 and inits["a"] == 0


def test_cgate_parses_condition():
    circ = parse_netlist(FIXTURE)
    conds = [g.cond for g in circ.gates if g.cond is not None]
    assert conds == [3]
    kinds = [g.kind for g in circ.gates if g.cond is not None]
    assert kinds == [GateKind.NOT]


@pytest.mark.parametrize(
    "text,pattern",
    [
        ("in magic s\n", "line 1.*in secret"),
        ("reg a init 2\n", "line 1.*init"),
        ("gate FROB a\n", "unknown gate kind"),
        ("in secret s\ngate CNOT s\n", "line 2.*2 operand"),
        ("gate NOT ghost\n", "undeclared register"),
        ("in secret s\nin secret s\n", "duplicate register name"),
        ("bogus stuff\n", "unknown statement"),
        ("in secret s\nout o\ngate NOT o\nin public x\n", "precede gates"),
        ("in secret s\nout o\ncgate x NOT o\n", "bad event reference"),
        # int() takes these as event 1, which serializes back as "1"
        ("in secret s\nout o\ncgate +1 NOT o\n", "line 3.*bad event reference '\\+1'"),
        ("in secret s\nout o\ncgate 0_1 NOT o\n", "line 3.*bad event reference '0_1'"),
        ("in secret s\nout o\ncgate \u0661 NOT o\n", "line 3.*bad event reference"),
        ("in secret s\nout o\ncgate \uff11 NOT o\n", "line 3.*bad event reference"),
        # more digits than int() converts by default
        ("in secret s\nout o\ncgate " + "1" * 5000 + " NOT o\n", "line 3.*bad event reference"),
        ("in secret s\ncgate 0\n", "line 2: expected: cgate"),
        # event 1 is the port of the NOT that the runs with s = 0 skip
        ("in secret s\nout o\ncgate 0 NOT o\ncgate 1 NOT o\n",
         "line 4: condition event 1 is an event of a conditioned gate"),
        ("gate\n", "line 1: expected: gate"),
        ("out a b\n", "line 1: expected: out"),
        ("in secret 9x\n", "line 1: bad register name '9x'"),
    ],
)
def test_syntax_errors_carry_line_numbers(text, pattern):
    with pytest.raises(NetlistError, match=pattern):
        parse_netlist(text)


def test_a_bad_name_is_reported_at_its_line_once_the_text_has_parsed():
    with pytest.raises(NetlistError, match=r"^line 3: bad register name '9y'") as info:
        parse_netlist("in secret s\n# note\nreg 9y\nout o\ngate CNOT s o\n")
    assert info.value.line_no == 3
    # a later malformed line is reported first, as for every structural fault
    with pytest.raises(NetlistError, match=r"^line 3: unknown gate kind 'NOPE'"):
        parse_netlist("in secret 9x\nout o\ngate NOPE o\n")


def test_error_line_number_attribute():
    try:
        parse_netlist("in secret s\nout o\ngate NOPE o\n")
    except NetlistError as exc:
        assert exc.line_no == 3
    else:
        pytest.fail("expected NetlistError")


def test_late_condition_reports_its_cgate_line():
    text = "in secret s\n# comment\nout o\n\ngate CNOT s o\ncgate 3 NOT o\n"
    with pytest.raises(NetlistError, match="line 6.*does not precede") as info:
        parse_netlist(text)
    assert info.value.line_no == 6


def test_unwritten_output_reports_its_out_line():
    with pytest.raises(NetlistError, match="line 2.*'o' is never written") as info:
        parse_netlist("in secret s\nout o\nreg t\ngate CNOT s t\n")
    assert info.value.line_no == 2


# characters at which str.splitlines() ends a line but open() does not
_NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", _NOT_LINE_ENDS)
def test_other_separators_stay_inside_a_comment(sep):
    circ = parse_netlist(f"in secret a\nout o\ngate CNOT a o  # copy{sep}gate NOT o\n")
    assert [g.kind for g in circ.gates] == [GateKind.CNOT]
    circ = parse_netlist(f"in secret s\nout o\n# note{sep}bogus words\ngate CNOT s o\n")
    assert len(circ.gates) == 1


@pytest.mark.parametrize("sep", _NOT_LINE_ENDS)
def test_other_separators_leave_line_numbers_alone(sep):
    with pytest.raises(NetlistError, match="line 3: unknown statement 'bogus'") as info:
        parse_netlist(f"in secret s\n# note{sep}more\nbogus stuff\n")
    assert info.value.line_no == 3
    text = f"in secret s\n# a{sep}b\nout o\nreg t\ngate CNOT s t\n"
    with pytest.raises(NetlistError, match="line 3.*'o' is never written"):
        parse_netlist(text)


def test_lone_carriage_returns_end_lines():
    circ = parse_netlist("in secret s\rout o\r\n# c\rgate CNOT s o\r")
    assert [r.name for r in circ.registers] == ["s", "o"]
    assert len(circ.gates) == 1
    with pytest.raises(NetlistError, match="line 4.*unknown gate kind") as info:
        parse_netlist("in secret s\rout o\r\n\rgate NOPE o\r")
    assert info.value.line_no == 4
    with pytest.raises(NetlistError, match="line 2.*'o' is never written"):
        parse_netlist("in secret s\rout o\rreg t\r\ngate CNOT s t")


def test_event_listing_is_documented_order():
    circ = parse_netlist("in secret s\nout o\ngate CNOT s o\n")
    listing = circ.event_listing()
    assert listing[0].startswith("     0  input secret-input s")
    assert "gate#0 CNOT port 0 -> s" in listing[1]
    assert "gate#0 CNOT port 1 -> o" in listing[2]


_GAPS = st.sampled_from([" ", "  ", "\t", " \t "])
_MARGINS = st.sampled_from(["", " ", "\t", " \t"])
_COMMENTS = st.text(alphabet=" \tgate#1" + "".join(_NOT_LINE_ENDS),
                    max_size=6).map(lambda text: "#" + text)


@st.composite
def decorated_netlists(draw):
    """(text, canonical text, registers, gates, refused): a netlist over
    every statement form, written with spaces, tabs, comments (which may
    hold characters that str.splitlines() breaks at), blank lines and \\n,
    \\r\\n or \\r endings, and the Register and Gate tuples it declares,
    built directly.  A condition may be any earlier event; `refused` is
    (gate index, line number) of the first one that is an event of a
    conditioned gate, or None when there is none."""
    names = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,4}", fullmatch=True),
                          min_size=1, max_size=6, unique=True))
    registers, statements = [], []
    for i, name in enumerate(names):
        role = draw(st.sampled_from(list(Role)))
        init = draw(st.integers(0, 1)) if role is Role.INTERNAL else 0
        registers.append(Register(i, name, role, init))
        if role is Role.SECRET or role is Role.PUBLIC:
            canon = ["in", "secret" if role is Role.SECRET else "public", name]
            statements.append((canon, canon))
        elif role is Role.OUTPUT:
            statements.append((["out", name], ["out", name]))
        elif init or draw(st.booleans()):
            statements.append((["reg", name, "init", str(init)],
                               ["reg", name, "init", "1"] if init else ["reg", name]))
        else:
            statements.append((["reg", name], ["reg", name]))
    gates = []
    events = sum(r.role in (Role.SECRET, Role.PUBLIC) for r in registers)
    kinds = [k for k in GateKind if k.arity <= len(names)]
    drawn = [(kind, draw(st.permutations(range(len(names))))[:kind.arity])
             for kind in draw(st.lists(st.sampled_from(kinds), max_size=6))]
    drawn += [(GateKind.NOT, [r.id]) for r in registers if r.role is Role.OUTPUT]
    skippable, refused = set(), None
    for kind, args in drawn:
        cond = draw(st.none() | st.integers(0, events - 1)) if events else None
        if cond is not None:
            if cond in skippable and refused is None:
                refused = len(gates)
            skippable.update(range(events, events + kind.arity))
        gates.append(Gate(kind, tuple(args), cond))
        ops = [names[a] for a in args]
        tok = ["gate", kind.value, *ops] if cond is None else ["cgate", str(cond), kind.value, *ops]
        statements.append((tok, tok))
        events += kind.arity

    lines, gate_lines = [], []
    for tok, _ in statements:
        lines += draw(st.lists(_MARGINS | _COMMENTS, max_size=2))
        if tok[0] in ("gate", "cgate"):
            gate_lines.append(len(lines))
        line = draw(_MARGINS) + tok[0]
        for word in tok[1:]:
            line += draw(_GAPS) + word
        lines.append(line + draw(_MARGINS) + draw(st.sampled_from(["", " #", "\t# gate NOT"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if refused is not None:
        # count the line ends before the refused gate's line as open() reads them
        start = sum(len(line + end) for line, end in zip(lines[:gate_lines[refused]], ends))
        head = text[:start].replace("\r\n", "\n").replace("\r", "\n")
        refused = refused, head.count("\n") + 1
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    canonical = "".join(" ".join(canon) + "\n" for _, canon in statements)
    return text, canonical, tuple(registers), tuple(gates), refused


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(decorated_netlists())
def test_parse_equals_direct_construction_and_serializes_canonically(case):
    text, canonical, registers, gates, refused = case
    if refused is not None:
        # parsing, of either text, and direct construction refuse it alike
        at, line_no = refused
        with pytest.raises(CircuitError, match="is an event of a conditioned gate") as built:
            Circuit(registers, gates)
        assert built.value.gate == at
        for source, line in ((text, line_no), (canonical, len(registers) + at + 1)):
            with pytest.raises(NetlistError) as parsed:
                parse_netlist(source)
            assert (parsed.value.line_no, str(parsed.value)) == (line, f"line {line}: {built.value}")
        return
    circ = parse_netlist(text)
    assert circ.registers == registers
    assert circ.gates == gates
    assert serialize_netlist(circ) == canonical
    assert serialize_netlist(parse_netlist(canonical)) == canonical
