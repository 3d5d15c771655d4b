"""Netlist grammar: parsing, error reporting, canonical round trip."""

import pytest

from lrcirc.circuits import GateKind, Role
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
    ],
)
def test_syntax_errors_carry_line_numbers(text, pattern):
    with pytest.raises(NetlistError, match=pattern):
        parse_netlist(text)


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


def test_event_listing_is_documented_order():
    circ = parse_netlist("in secret s\nout o\ngate CNOT s o\n")
    listing = circ.event_listing()
    assert listing[0].startswith("     0  input secret-input s")
    assert "gate#0 CNOT port 0 -> s" in listing[1]
    assert "gate#0 CNOT port 1 -> o" in listing[2]
