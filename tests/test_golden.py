"""Byte-level regression oracle for the compiler and the pair audit.

Each digest covers one artifact of a fixed compile: the netlist text, the
gadget JSON with sorted keys, the wire-event listing and the location
report.  The pinned values predate the single expansion pass that both
compile levels now share, so they also show that refactor kept the output
byte-identical.  Changing any of them must be a deliberate decision.
"""

import hashlib
import json

import pytest

from lrcirc.compiler import compile_circuit, location_report
from lrcirc.lab import LeakageModel, marginal_independence, mc_advantage, run_rounds
from lrcirc.netlist import parse_netlist, serialize_netlist

ONE_TOFFOLI = "in secret a\nin secret b\nout c\ngate TOF a b c\n"
TWO_TOFFOLI_CHAIN = (
    "in secret a\nin secret b\nreg t\nout o\n"
    "gate TOF a b t\ngate TOF a t o\n"
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
}
MARGINAL_DIGEST = "eb672b67081d6e11"

_FIXTURES = {"one": ONE_TOFFOLI, "two": TWO_TOFFOLI_CHAIN}


@pytest.fixture(scope="module")
def one_toffoli_level2():
    return compile_circuit(parse_netlist(ONE_TOFFOLI), level=2, ec=True)


@pytest.mark.parametrize("name,ec", [("one", True), ("one", False),
                                     ("two", True), ("two", False)])
def test_level1_artifacts_are_pinned(name, ec):
    comp = compile_circuit(parse_netlist(_FIXTURES[name]), level=1, ec=ec)
    assert artifact_digests(comp) == GOLDEN[(name, 1, ec)]


def test_level2_one_toffoli_is_pinned(one_toffoli_level2):
    c = one_toffoli_level2.circuit
    assert (len(c.gates), c.num_events, c.rand_count) == (28_219, 49_638, 6_857)
    assert artifact_digests(one_toffoli_level2) == GOLDEN[("one", 2, True)]


def test_pairwise_marginal_report_is_pinned():
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    report = marginal_independence(comp, [0, 1], [1, 0], [], order=2,
                                   samples=2000, seed=5)
    assert report.details["comparisons"] == 1148
    assert _sha(_json(report.to_json_dict())) == MARGINAL_DIGEST


# Seeded lab reports and transcripts on the paths that turn seed bits into
# codewords and tally symbols; pinned before those paths became array code.
LAB_DIGESTS = {
    "mc_l1": "abb180cdf871df2b",
    "marginal_l1": "db3960e86c14fac7",
    "marginal_l2": "bd58f08af6dcebfc",
    "run_rounds_l1": "9de22fecfde8965f",
}


@pytest.fixture(scope="module")
def one_toffoli_level1():
    return compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)


def test_level1_mc_report_is_pinned(one_toffoli_level1):
    report = mc_advantage(one_toffoli_level1, [0, 1], [1, 0], [], LeakageModel(0.01),
                          samples=1000, seed=11, inner=64)
    assert _sha(_json(report.to_json_dict())) == LAB_DIGESTS["mc_l1"]


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
