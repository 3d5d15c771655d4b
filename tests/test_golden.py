"""Byte-level regression oracle for the compiler, the lab and truth tables.

Each digest covers one artifact of a fixed compile: the netlist text, the
gadget JSON with sorted keys, the wire-event listing and the location
report.  The pinned values predate the single expansion pass that both
compile levels now share, so they also show that refactor kept the output
byte-identical.  Changing any of them must be a deliberate decision.
"""

import hashlib
import json
import math
import warnings
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from lrcirc.channels import (
    LeakageFunction,
    dephasing_channel,
    leakage_channel,
    mixture_channel,
)
from lrcirc.circuits import RandomTape, evaluate, rows_per_batch, truth_table
from lrcirc import lab
from lrcirc.cli import main
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
MARGINAL_DIGEST = "c25b17ffef79e762"

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
# codewords and tally symbols; the reports were pinned when MC and the
# marginals began drawing their [seed | tape] bits as bit-planes, a byte
# draw per chunk, and MC began counting empty and saturated masks and rows,
# the transcripts when run_rounds began drawing one row of NumPy uniforms
# per round.
LAB_DIGESTS = {
    "mc_l1": "88480a80ed7f72f3",
    "marginal_l1": "551566e4d5844902",
    "marginal_l2": "7d2634c0b38f269f",
    "run_rounds_l1": "e34a100b524c3657",
    "mc_l2": "7af6123e999b5615",
    "run_rounds_l2": "5e54be569a9dda97",
    # row counts that are not whole bytes: the last byte of each drawn
    # column is masked, and every event's counts still come out exact
    "marginal_l2_250": "998fb501051511c6",
    "marginal_l1_17001": "08e9e5dd75bde8f9",
    # order-2 counts at level 2, where 3,647 pairs hold a conditioned
    # event and 931 hold two
    "marginal_l2_order2": "9f1e54d2a2d3c716",
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


def test_level2_marginal_report_on_a_partial_byte_is_pinned(one_toffoli_level2):
    report = marginal_independence(one_toffoli_level2, [0, 1], [1, 0], [], order=1,
                                   samples=250, seed=15)
    assert _sha(_json(report.to_json_dict())) == LAB_DIGESTS["marginal_l2_250"]


def test_level1_marginal_report_past_one_chunk_is_pinned(one_toffoli_level1):
    # one 16,384-row chunk, then 617 rows
    report = marginal_independence(one_toffoli_level1, [0, 1], [0, 0], [], order=1,
                                   samples=17_001, seed=16)
    assert _sha(_json(report.to_json_dict())) == LAB_DIGESTS["marginal_l1_17001"]


def test_level2_pairwise_marginal_report_is_pinned(one_toffoli_level2):
    report = marginal_independence(one_toffoli_level2, [0, 1], [1, 0], [], order=2,
                                   samples=64, seed=17)
    assert report.details["comparisons"] == 72_226
    assert _sha(_json(report.to_json_dict())) == LAB_DIGESTS["marginal_l2_order2"]


def test_level1_transcripts_are_pinned(one_toffoli_level1):
    ts = run_rounds(one_toffoli_level1, [1, 0], [[]] * 40, LeakageModel(0.02), seed=14)
    assert _sha(_json([t.to_json_dict() for t in ts])) == LAB_DIGESTS["run_rounds_l1"]


def test_level2_transcripts_are_pinned(one_toffoli_level2):
    # 260 rounds cross the 247-row evaluation chunk, so the generator
    # stream must carry on unbroken from one chunk to the next; the pin
    # equals the per-round reference loop's, which draws each round's
    # uniforms with a call of its own
    assert rows_per_batch(one_toffoli_level2.circuit) == 247
    ts = run_rounds(one_toffoli_level2, [1, 0], [[]] * 260, LeakageModel(0.02), seed=15)
    assert _sha(_json([t.to_json_dict() for t in ts])) == LAB_DIGESTS["run_rounds_l2"]


# Truth tables, pinned while they still ran the scalar evaluate once per
# row; exact-oracle reports, pinned when the oracle began weighing each
# subset of leak classes by its probability and reporting the class count;
# and raw-circuit transcripts, pinned with the level-1 and level-2 ones.
# The conditioned fixtures end their outputs on conditioned touches.
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
# Larger cases: the 17-event CNOT chain of test_lab, whose events all share
# one leak class, and one random.Random(42) circuit each of perfbench's
# (13, 13, 3) and (15, 12, 2) tiny shapes (leakable events, tape bits,
# tape bits read by a leakable gate), of 6 leak classes each, whose 64
# subsets go one chunk each at 4 cells a chunk.
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
    "wire": "f4bc7089b3d572c7",
    "masked": "906bf84ede48c627",
    "toffoli": "7b4c8781536b259c",
    "cgate_x0": "5da49ab165686f2e",
    "cgate_x1": "49c0aac6e9def2ac",
    "cgate_last": "e02a00b189f28f39",
    "rand_only": "b208da12f3e6fdea",
    "compiled_wire": "8e33afaedebb2274",
    "cnot_chain": "c42ac52872f714bf",
    "tiny_13_13_3": "be91f7151fbc7b4d",
    "tiny_15_12_2": "7e02842115cb4ffa",
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
    "masked": (MASKED, [1], 0, "c7a9549e8ad9ab1a"),
    "cgate_mixed": (CGATE_MIXED, [1], 1, "a5bfc28cb09ddf46"),
    "cgate_last": (CGATE_LAST, [1, 1], 1, "a9afe40023f756b2"),
}
# Raw-circuit MC reports, pinned with the level-1 and level-2 ones: the
# default inner size on a circuit without tape bits, and an inner size off
# the byte boundary with conditioned events that tally -1 symbols.
RAW_MC = {
    "toffoli": (ONE_TOFFOLI, [0, 1], [1, 0], [], 0.1, 31, 256, "39bce9da1971a7cc"),
    "cgate_mixed": (CGATE_MIXED, [0], [1], [1], 0.3, 32, 21, "6a8c8d9ac6faa81c"),
}


def _exact_json(target, y0, y1, x) -> str:
    return _json([exact_tv_tiny(target, y0, y1, x, LeakageModel(p)).to_json_dict()
                  for p in (0.01, 0.1, 0.3)])


def _exact_reports(target, y0, y1, x) -> str:
    return _sha(_exact_json(target, y0, y1, x))


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
def test_exact_reports_are_pinned(name):
    text, y0, y1, x = EXACT_CASES[name]
    assert _exact_reports(parse_netlist(text), y0, y1, x) == EXACT_DIGESTS[name]


def test_exact_reports_do_not_depend_on_chunk_size(monkeypatch):
    # at 4 cells a chunk, every case of more than one leak class spans
    # several subset chunks; fsum rounds once, so no report changes a byte
    cases = [(parse_netlist(text), y0, y1, x) for text, y0, y1, x in EXACT_CASES.values()]
    want = [_exact_json(*case) for case in cases]
    monkeypatch.setattr(lab, "_MASK_CHUNK_CELLS", 4)
    assert [_exact_json(*case) for case in cases] == want


def _l1_by_mask_size(circ, y0, y1, x, masks) -> list[int]:
    """Per mask size k, the sum over the `masks` of k events (bit j for
    leakable event j) of the L1 distance between the two secrets' counts of
    masked values over every tape, from the scalar evaluate."""
    leakable = circ.leakable.tolist()
    tapes = list(product((0, 1), repeat=circ.rand_count))
    rows = [[tuple(map(evaluate(circ, y, x, RandomTape.of(t)).values.__getitem__, leakable))
             for t in tapes] for y in (y0, y1)]
    by_size = [0] * (len(leakable) + 1)
    for mask in masks:
        picked = [j for j in range(len(leakable)) if mask >> j & 1]
        counts = Counter(tuple(r[j] for j in picked) for r in rows[0])
        counts.subtract(tuple(r[j] for j in picked) for r in rows[1])
        by_size[len(picked)] += sum(map(abs, counts.values()))
    return by_size


def _rational_tv(circ, by_size, p) -> Fraction:
    """The transcript TV in exact rationals at leak rate p, from the
    per-mask-size sums of _l1_by_mask_size over every mask."""
    n, p = len(by_size) - 1, Fraction(p)
    total = sum(p ** k * (1 - p) ** (n - k) * s for k, s in enumerate(by_size))
    return total / (2 * 2 ** circ.rand_count)


def _ulps_off(got: float, want: Fraction) -> float:
    """|got - want| in units of the last place of want as a float."""
    return float(abs(Fraction(got) - want) / Fraction(math.ulp(float(want))))


# the cases small enough to brute-force over masks and tapes
_RATIONAL_CASES = sorted(name for name, (text, *_) in EXACT_CASES.items()
                         for circ in [parse_netlist(text)]
                         if circ.leakable.size <= 13 and circ.rand_count <= 6)


@pytest.mark.parametrize("name", _RATIONAL_CASES)
def test_exact_reports_are_accurate_to_a_few_ulps(name):
    text, y0, y1, x = EXACT_CASES[name]
    circ = parse_netlist(text)
    by_size = _l1_by_mask_size(circ, y0, y1, x, range(1 << circ.leakable.size))
    for p in (0.01, 0.1, 0.3):
        got = exact_tv_tiny(circ, y0, y1, x, LeakageModel(p)).estimate
        assert _ulps_off(got, _rational_tv(circ, by_size, p)) <= 4, p


def test_cnot_chain_report_is_accurate_to_a_few_ulps():
    # every leaking mask has TV 1, so the TV is 1 - (1 - p)^17
    text, y0, y1, x = EXACT_CASES["cnot_chain"]
    circ = parse_netlist(text)
    for p in (0.01, 0.1, 0.3):
        got = exact_tv_tiny(circ, y0, y1, x, LeakageModel(p)).estimate
        assert _ulps_off(got, 1 - (1 - Fraction(p)) ** 17) <= 4, p


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
def test_exact_reports_at_the_edge_rates(name):
    # nothing leaks at p = 0; at p = 1 every event leaks, so the TV is the
    # full mask's, a multiple of 2^-(T + 1) and so exact in a float
    text, y0, y1, x = EXACT_CASES[name]
    circ = parse_netlist(text)
    full = (1 << circ.leakable.size) - 1
    want = _rational_tv(circ, _l1_by_mask_size(circ, y0, y1, x, [full]), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exact_tv_tiny(circ, y0, y1, x, LeakageModel(0.0)).estimate == 0.0
        assert exact_tv_tiny(circ, y0, y1, x, LeakageModel(1.0)).estimate == want


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


# sha256 of `lrc noise-equiv --seed 5 --trials 20 --wires w` on stdout
NOISE_EQUIV = {
    1: "a6e3728ccaf7108cd18e4960a20c565aa8f7343df1139e9b491d0bba9db7477d",
    2: "92d92514623ffc7e8cf1abbeba582c37783b629e53ca99aaaa52deb35fbb170d",
    3: "3aebad894e27f290c37271b984ba5812e8853f56463709c51c4d8f1bf0fed4b1",
    4: "a4a1fb97dd139f5dd0b8efdda8b70a2ae725dbb98d760aa8c5e5582934cf19df",
}


@pytest.mark.parametrize("wires", sorted(NOISE_EQUIV))
def test_noise_equiv_output_is_pinned(wires, capsys):
    assert main(["noise-equiv", "--seed", "5", "--trials", "20", "--wires", str(wires)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == NOISE_EQUIV[wires]


# sha256 over the multiplier bytes of each channel kind, built on 13
# functions per wire count: 10 seeded random ones, constant, parity and
# identity; a mixture pairs each function with the next, at 1/4 and 3/4
MULTIPLIERS = {
    ("leakage", 1): "744391fe08f7da219f4625a32d9827816b13df926e5c99f0c929295d992aa390",
    ("dephasing", 1): "9beb95989b098cc10042dd7bb22dcc4038414e021ac9e024811bc6cb228074e8",
    ("mixture", 1): "4ec08690c5bdb794b415fad6b5ec3693808b5b06a94346e04a153b58d04a0cd1",
    ("leakage", 2): "85bd135ebdaa77beb2d1603cb613ce1d325c9e8afdeaa07bf0891b6933590da0",
    ("dephasing", 2): "693b7a7afc711aacde2300245d064b348145c2435e57c92a61c53e7b53495a85",
    ("mixture", 2): "591ebf203d2f846d74999c85cb3a8d8a0a20ce99977b2449fc1d1a968df23e3a",
    ("leakage", 3): "52ea55c6be6dd14e5ed44a6a9c0f9a62e185430235de8d8a5dc6184be937a64d",
    ("dephasing", 3): "5ad5639ab636c787160a3fc14b405ef53121e423fdcf269567db84b33fb0181e",
    ("mixture", 3): "cf323aedc7dc4a094a667b1138567c51d61cdbb0d90f96dfda39aa1064aaff9e",
    ("leakage", 4): "fb33ab552e6fb409ea427b71ab0bc8c4812c359ac7c73a437abf5a0081b8157c",
    ("dephasing", 4): "7031bcb000de48991e87e00f62b176a940aaef145412e61b04dec1349bb1773e",
    ("mixture", 4): "05d532bf79dde86d3ba5bc18fdbb1a77ccdc1e377298c3e4707f7826457cc7be",
}


@pytest.mark.parametrize("kind, n", sorted(MULTIPLIERS))
def test_channel_multipliers_are_pinned(kind, n):
    rng = np.random.default_rng(60 + n)
    fs = [LeakageFunction.random(n, int(rng.integers(1, 2 ** n + 1)), rng) for _ in range(10)]
    fs += [LeakageFunction.constant(n), LeakageFunction.parity(n), LeakageFunction.identity(n)]
    if kind == "mixture":
        chans = [mixture_channel([(l, 0.25), (m, 0.75)]) for l, m in zip(fs, fs[1:] + fs[:1])]
    else:
        build = leakage_channel if kind == "leakage" else dephasing_channel
        chans = [build(l) for l in fs]
    h = hashlib.sha256()
    for ch in chans:
        h.update(ch.multiplier.tobytes())
    assert h.hexdigest() == MULTIPLIERS[(kind, n)]


# sha256 of the stdout of each audit: `lrc audit steane`, `lrc audit shor`,
# and `lrc audit transversality` on the level-1 and level-2 one-Toffoli
AUDITS = {
    "steane": "b9948e3de640728748880d1c1abc0239427e3a7d42f729cf9e5aad998716d651",
    "shor": "69025a24eb2a83e977b9a62c46c800475a7cb9ef414e34b286cc9129b9ed4453",
    "transversality-l1": "17f637fd1290ca61f8d9b793b7bb6160f6600c4313d43a920a6ffe0b69c8db37",
    "transversality-l2": "ec9b712b76bcdd55f0dae343b1be21b256208ba82b8111ddbec66558f44c2d7d",
}


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_audit_output_is_pinned(name, capsys, tmp_path, request):
    argv = ["audit", name.split("-")[0]]
    if name.startswith("transversality"):
        level = name[-1]
        comp = request.getfixturevalue(f"one_toffoli_level{level}")
        net, index = tmp_path / "c.net", tmp_path / "c.json"
        net.write_text(serialize_netlist(comp.circuit))
        index.write_text(_json(comp.to_json_dict()))
        argv += ["--circuit", str(net), "--gadgets", str(index)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == AUDITS[name]
