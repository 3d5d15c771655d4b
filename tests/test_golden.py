"""Byte-level regression oracle for the compiler, the lab and truth tables.

Each digest covers one artifact of a fixed compile: the netlist text, the
gadget JSON with sorted keys, the wire-event listing and the location
report.  The pinned values predate the single expansion pass that both
compile levels now share, so they also show that refactor kept the output
byte-identical.  Changing any of them must be a deliberate decision.
"""

import hashlib
import json

import pytest

from lrcirc.circuits import rows_per_batch, truth_table
from lrcirc.compiler import compile_circuit, location_report
from lrcirc.lab import (
    LeakageModel,
    exact_tv_tiny,
    marginal_independence,
    mc_advantage,
    run_rounds,
)
from lrcirc.netlist import parse_netlist, serialize_netlist

ONE_TOFFOLI = "in secret a\nin secret b\nout c\ngate TOF a b c\n"
TWO_TOFFOLI_CHAIN = (
    "in secret a\nin secret b\nreg t\nout o\n"
    "gate TOF a b t\ngate TOF a t o\n"
)
# every logical gate kind, a public input and an `init 1` register: pins the
# encode-public and prep-block flips, logical-not/-cnot spans and labels, and
# the Z/CZ drop log, none of which the Toffoli fixtures reach
MIXED = (
    "in secret s\nin public x\nreg t init 1\nout o\n"
    "gate NOT s\ngate CNOT x o\ngate Z t\ngate CZ s t\ngate CNOT t o\ngate TOF s x o\n"
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def artifact_digests(comp) -> dict[str, str]:
    return {
        "netlist": _sha(serialize_netlist(comp.circuit)),
        "gadgets": _sha(_json(comp.to_json_dict())),
        "events": _sha("\n".join(comp.circuit.event_listing())),
        "report": _sha(_json(location_report(comp))),
    }


GOLDEN = {
    ("one", 1, True): {"netlist": "8aedc4a18d5d6f1f", "gadgets": "7c62a4b65084bf84",
                       "events": "53141937fc6c008f", "report": "43c221ec010ffcf5"},
    ("one", 1, False): {"netlist": "3386386669b6ee8d", "gadgets": "790e94d30f2458be",
                        "events": "55e9f59f209c38f6", "report": "9d6e57d6dc584f0a"},
    ("two", 1, True): {"netlist": "79333471d473e894", "gadgets": "ee5c676ee51fbd47",
                       "events": "19f50766e91a53cc", "report": "e46d52c75d517548"},
    ("two", 1, False): {"netlist": "30e3cb6c33ad1057", "gadgets": "8d0194ad1f14acc7",
                        "events": "2522c53283d09449", "report": "b0e0a08fdce2b06b"},
    ("one", 2, True): {"netlist": "190ef9b46e337479", "gadgets": "4b00f7f0308ac64f",
                       "events": "aa4bd813ebd88793", "report": "d9169c0fc99034a6"},
    ("mixed", 1, True): {"netlist": "457d7b7d79ad9f02", "gadgets": "31841a6c1ee88dce",
                         "events": "e27a8c6d88595a0c", "report": "66325066a5330040"},
    ("mixed", 1, False): {"netlist": "12eab6c5f047e331", "gadgets": "9a6a8fd418f7cc64",
                          "events": "257136a94a76605d", "report": "d6be885424453064"},
    ("mixed", 2, True): {"netlist": "b221a2a63fa3683e", "gadgets": "69f319daf44d5eb8",
                         "events": "ce8372d693a24411", "report": "fb2eee5a89d1fef8"},
}
MARGINAL_DIGEST = "eb672b67081d6e11"

_FIXTURES = {"one": ONE_TOFFOLI, "two": TWO_TOFFOLI_CHAIN, "mixed": MIXED}


@pytest.fixture(scope="module")
def one_toffoli_level2():
    return compile_circuit(parse_netlist(ONE_TOFFOLI), level=2, ec=True)


@pytest.mark.parametrize("name,ec", [("one", True), ("one", False),
                                     ("two", True), ("two", False),
                                     ("mixed", True), ("mixed", False)])
def test_level1_artifacts_are_pinned(name, ec):
    comp = compile_circuit(parse_netlist(_FIXTURES[name]), level=1, ec=ec)
    assert artifact_digests(comp) == GOLDEN[(name, 1, ec)]


def test_level2_one_toffoli_is_pinned(one_toffoli_level2):
    c = one_toffoli_level2.circuit
    assert (len(c.gates), c.num_events, c.rand_count) == (28_219, 49_638, 6_857)
    assert artifact_digests(one_toffoli_level2) == GOLDEN[("one", 2, True)]


def test_level2_mixed_is_pinned():
    comp = compile_circuit(parse_netlist(MIXED), level=2, ec=True)
    assert len(comp.circuit.gates) == 47_710
    assert artifact_digests(comp) == GOLDEN[("mixed", 2, True)]


def test_pairwise_marginal_report_is_pinned():
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    report = marginal_independence(comp, [0, 1], [1, 0], [], order=2,
                                   samples=2000, seed=5)
    assert report.details["comparisons"] == 1148
    assert _sha(_json(report.to_json_dict())) == MARGINAL_DIGEST


def test_marginal_report_without_comparisons_is_pinned():
    # no leakable event: nothing to compare, so no worst comparison
    report = marginal_independence(parse_netlist("out o\ngate RAND o\n"), [], [], [],
                                   order=1, samples=10, seed=0)
    assert report.details["comparisons"] == 0 and report.details["worst"] is None
    assert _sha(_json(report.to_json_dict())) == "28084c3d3039e3c6"


# Seeded lab reports and transcripts on the paths that turn seed bits into
# codewords and tally symbols; pinned before those paths became array code.
LAB_DIGESTS = {
    "mc_l1": "abb180cdf871df2b",
    "marginal_l1": "db3960e86c14fac7",
    "marginal_l2": "bd58f08af6dcebfc",
    "run_rounds_l1": "9de22fecfde8965f",
    "mc_l2": "1fb90449c24f37c0",
    "run_rounds_l2": "10e32b4b2ef06e79",
}


@pytest.fixture(scope="module")
def one_toffoli_level1():
    return compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)


def test_level1_mc_report_is_pinned(one_toffoli_level1):
    report = mc_advantage(one_toffoli_level1, [0, 1], [1, 0], [], LeakageModel(0.01),
                          samples=1000, seed=11, inner=64)
    assert _sha(_json(report.to_json_dict())) == LAB_DIGESTS["mc_l1"]


def test_level2_mc_report_is_pinned(one_toffoli_level2):
    # a level-2 mask holds about 428 events, far past where base-3 int64
    # row keys overflow (39 events)
    report = mc_advantage(one_toffoli_level2, [0, 1], [1, 0], [], LeakageModel(0.01),
                          samples=1000, seed=33, inner=8)
    assert _sha(_json(report.to_json_dict())) == LAB_DIGESTS["mc_l2"]


def test_level1_marginal_report_is_pinned(one_toffoli_level1):
    report = marginal_independence(one_toffoli_level1, [1, 0], [0, 1], [], order=1,
                                   samples=3000, seed=12)
    assert _sha(_json(report.to_json_dict())) == LAB_DIGESTS["marginal_l1"]


def test_level2_marginal_report_is_pinned(one_toffoli_level2):
    report = marginal_independence(one_toffoli_level2, [0, 0], [1, 0], [], order=1,
                                   samples=256, seed=13)
    assert _sha(_json(report.to_json_dict())) == LAB_DIGESTS["marginal_l2"]


def test_level1_transcripts_are_pinned(one_toffoli_level1):
    ts = run_rounds(one_toffoli_level1, [1, 0], [[]] * 40, LeakageModel(0.02), seed=14)
    assert _sha(_json([t.to_json_dict() for t in ts])) == LAB_DIGESTS["run_rounds_l1"]


def test_level2_transcripts_are_pinned(one_toffoli_level2):
    # 260 rounds cross the 247-row evaluation chunk, so the generator
    # stream must carry on unbroken from one chunk to the next; pinned
    # while each round's bits and uniforms were drawn one call at a time
    assert rows_per_batch(one_toffoli_level2.circuit) == 247
    ts = run_rounds(one_toffoli_level2, [1, 0], [[]] * 260, LeakageModel(0.02), seed=15)
    assert _sha(_json([t.to_json_dict() for t in ts])) == LAB_DIGESTS["run_rounds_l2"]


# Exact-oracle reports, truth tables and raw-circuit transcripts, pinned
# while all three still ran the scalar evaluate once per row.  The
# conditioned fixtures end their outputs on conditioned touches.
MIXED_3REG = (
    "in secret s\nin public x\nout o\n"
    "gate NOT s\ngate CNOT x o\ngate TOF s x o\ngate NOT o\n"
)
SECRET_WIRE = "in secret s\n"
MASKED = "in secret s\nreg a\ngate RAND a\ngate CNOT a s\n"
CGATE_MIXED = (
    "in secret s\nin public x\nreg a\nreg b\nout o\n"
    "gate RAND a\ngate CNOT a s\ngate RAND b\n"
    "gate TOF s x o\ncgate 2 NOT o\ngate COPY o b\n"
)
CGATE_LAST = (
    "in secret s\nin secret t\nin public x\nreg r\nout o\nout q\n"
    "gate RAND r\ngate CNOT s o\ngate TOF t x q\n"
    "cgate 2 NOT o\ncgate 1 CNOT r q\n"
)
# Cases whose 2^n masks span several of exact_tv_tiny's mask chunks (4, 2
# and 4), so each chunk's sum must carry into the next: the 17-event CNOT
# chain of test_lab, and one random.Random(42) circuit each of perfbench's
# (13, 13, 3) and (15, 12, 2) tiny shapes (leakable events, tape bits,
# tape bits read by a leakable gate).
CNOT_CHAIN = ("in secret s\n" + "".join(f"reg a{i}\n" for i in range(8))
              + "gate CNOT s a0\n" + "".join(f"gate CNOT a{i} a{i + 1}\n" for i in range(7)))
TINY_13_13_3 = (
    "in secret s0\nin secret s1\nout o\n"
    "reg r0\nreg r1\nreg r2\nreg r3\nreg r4\nreg r5\nreg r6\n"
    "reg r7\nreg r8\nreg r9\nreg r10\nreg r11\nreg r12\n"
    "gate RAND r0\ngate RAND r1\ngate RAND r2\ngate RAND r3\ngate RAND r4\n"
    "gate RAND r5\ngate RAND r6\ngate RAND r7\ngate RAND r8\ngate RAND r9\n"
    "gate RAND r10\ngate RAND r11\ngate RAND r12\n"
    "gate CNOT r0 o\ngate CNOT r1 o\ngate CNOT r2 o\n"
    "gate NOT s0\ngate CNOT o s1\ngate CNOT s1 o\n"
)
TINY_15_12_2 = (
    "in secret s0\nin secret s1\nout o\n"
    "reg r0\nreg r1\nreg r2\nreg r3\nreg r4\nreg r5\n"
    "reg r6\nreg r7\nreg r8\nreg r9\nreg r10\nreg r11\n"
    "gate RAND r0\ngate RAND r1\ngate RAND r2\ngate RAND r3\ngate RAND r4\n"
    "gate RAND r5\ngate RAND r6\ngate RAND r7\ngate RAND r8\ngate RAND r9\n"
    "gate RAND r10\ngate RAND r11\n"
    "gate CNOT r0 o\ngate CNOT r1 o\n"
    "gate NOT s0\ngate CNOT o s1\ngate CNOT s1 s0\ngate TOF s0 r1 r0\ngate NOT o\n"
)

EXACT_CASES = {
    "wire": (SECRET_WIRE, [0], [1], []),
    "masked": (MASKED, [0], [1], []),
    "toffoli": (ONE_TOFFOLI, [0, 1], [1, 0], []),
    "cgate_x0": (CGATE_MIXED, [0], [1], [0]),
    "cgate_x1": (CGATE_MIXED, [1], [0], [1]),
    "cgate_last": (CGATE_LAST, [0, 1], [1, 0], [1]),
    "rand_only": ("reg a\ngate RAND a\n", [], [], []),
    "cnot_chain": (CNOT_CHAIN, [0], [1], []),
    "tiny_13_13_3": (TINY_13_13_3, [0, 0], [1, 0], []),
    "tiny_15_12_2": (TINY_15_12_2, [0, 1], [0, 0], []),
}
EXACT_DIGESTS = {
    "wire": "da0653beae4d514f",
    "masked": "45713324a88abd28",
    "toffoli": "f9e6d0d4fd1f57e5",
    "cgate_x0": "b4c920c728fdedb1",
    "cgate_x1": "33af672a341cab72",
    "cgate_last": "bd6a2e5c4c79b230",
    "rand_only": "213f1acdac528cf5",
    "compiled_wire": "a03a19620b296724",
    "cnot_chain": "e9a94addc4a1fd7d",
    "tiny_13_13_3": "4ea6b08cbc2b69ba",
    "tiny_15_12_2": "bc36294a0b10761c",
}
TRUTH_TABLES = {
    "one": (ONE_TOFFOLI, "450cc06aac76fd5c"),
    "mixed": (MIXED_3REG, "d732380a570447e0"),
    "rand_copy": ("reg a\nout o\ngate RAND a\ngate COPY a o\n", "1c05ccdd278bfb58"),
    "cgate_mixed": (CGATE_MIXED, "df4eb819224727a4"),
    "cgate_last": (CGATE_LAST, "1820290cd026518c"),
    "cond_last": ("in secret s\nout o\ngate CNOT s o\ncgate 0 NOT o\n", "7663a39bab64718f"),
    "wire": (SECRET_WIRE, "6854df38f4a74a67"),
}
TRANSCRIPTS = {
    "masked": (MASKED, [1], 0, "9d15fa5f4f6faf37"),
    "cgate_mixed": (CGATE_MIXED, [1], 1, "93c31f253f754a86"),
    "cgate_last": (CGATE_LAST, [1, 1], 1, "8e5ed80270169c80"),
}
# Raw-circuit MC reports, pinned while the tally still unpacked the
# chunk's masked-column union: the default inner size, and an inner size
# off the byte boundary with conditioned events that tally -1 symbols.
RAW_MC = {
    "toffoli": (ONE_TOFFOLI, [0, 1], [1, 0], [], 0.1, 31, 256, "2f045f5f86fafffd"),
    "cgate_mixed": (CGATE_MIXED, [0], [1], [1], 0.3, 32, 21, "fb1e55f55fde13e3"),
}


def _exact_reports(target, y0, y1, x) -> str:
    reports = [exact_tv_tiny(target, y0, y1, x, LeakageModel(p)).to_json_dict()
               for p in (0.01, 0.1, 0.3)]
    return _sha(_json(reports))


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
def test_exact_reports_are_pinned(name):
    text, y0, y1, x = EXACT_CASES[name]
    assert _exact_reports(parse_netlist(text), y0, y1, x) == EXACT_DIGESTS[name]


def test_compiled_exact_reports_are_pinned():
    comp = compile_circuit(parse_netlist(SECRET_WIRE), level=1, ec=True)
    assert _exact_reports(comp, [0], [1], []) == EXACT_DIGESTS["compiled_wire"]


@pytest.mark.parametrize("name", sorted(TRUTH_TABLES))
def test_truth_table_repr_is_pinned(name):
    text, digest = TRUTH_TABLES[name]
    assert _sha(repr(truth_table(parse_netlist(text)))) == digest


@pytest.mark.parametrize("name", sorted(RAW_MC))
def test_raw_mc_reports_are_pinned(name):
    text, y0, y1, x, p, seed, inner, digest = RAW_MC[name]
    report = mc_advantage(parse_netlist(text), y0, y1, x, LeakageModel(p),
                          samples=1000, seed=seed, inner=inner)
    assert _sha(_json(report.to_json_dict())) == digest


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_raw_transcripts_are_pinned(name):
    # 60 rounds whose public inputs count up in binary
    text, secret, width, digest = TRANSCRIPTS[name]
    inputs = [[(r >> k) & 1 for k in range(width)] for r in range(60)]
    ts = run_rounds(parse_netlist(text), secret, inputs, LeakageModel(0.3), seed=21)
    assert _sha(_json([t.to_json_dict() for t in ts])) == digest
