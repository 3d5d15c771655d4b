"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Tolerances and sample counts are pinned here, not configurable.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from lrcirc.channels import (
    LeakageFunction,
    dephasing_channel,
    equivalence_sweep,
    leakage_channel,
)
from lrcirc.circuits import RandomTape, batch_outputs, evaluate_batch, register_file, truth_table
from lrcirc.compiler import (
    CircuitBuilder,
    compile_circuit,
    emit_parity_readout,
    location_report,
    shor_prep_gadget,
    toffoli_ancilla_gadget,
)
from lrcirc.faults import (
    MARKED_FAULTS,
    SHOR_PREP,
    enumerate_single_faults,
    propagate_z,
    syndrome_of,
    zmask,
)
from lrcirc.lab import (
    LeakageModel,
    encoded_secret_rows,
    exact_tv_tiny,
    marginal_independence,
    mc_advantage,
)
from lrcirc.netlist import parse_netlist
from lrcirc.steane import CODEWORDS, EVEN, ODD, syndrome, word_str

# reference codeword tables (each class is an 8-element affine space; the
# final word of each is forced by linearity from the other seven)
REFERENCE_EVEN = {"0000000", "0001111", "0110011", "1010101",
                  "0111100", "1011010", "1100110"}
REFERENCE_ODD = {"1111111", "1110000", "1001100", "0101010",
                 "1000011", "0100101", "0011001"}
FORCED_EVEN = "1101001"
FORCED_ODD = "0010110"

ONE_TOFFOLI = "in secret a\nin secret b\nout c\ngate TOF a b c\n"
TWO_TOFFOLI_CHAIN = (
    "in secret a\nin secret b\nreg t\nout o\n"
    "gate TOF a b t\ngate TOF a t o\n"
)
MIXED_3REG = (
    "in secret s\nin public x\nout o\n"
    "gate NOT s\ngate CNOT x o\ngate TOF s x o\ngate NOT o\n"
)

SECRET_WIRE = "in secret s\n"
MASKED_WIRE = "in secret s\nreg a\ngate RAND a\ngate CNOT a s\n"


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok


def test_criterion_01_steane_tables():
    t0 = time.perf_counter()
    even = {word_str(w) for w in EVEN}
    odd = {word_str(w) for w in ODD}
    ok = (
        even == REFERENCE_EVEN | {FORCED_EVEN}
        and odd == REFERENCE_ODD | {FORCED_ODD}
        and len(even) == 8 and len(odd) == 8
        and all(syndrome(w) == (0, 0, 0) for w in CODEWORDS)
        and all(sum(w) % 2 == 0 for w in EVEN)
        and all(sum(w) % 2 == 1 for w in ODD)
    )
    dt = time.perf_counter() - t0
    verdict(1, ok and dt < 1.0,
            f"codeword classes match the reference tables ({dt:.3f}s)")


def test_criterion_02_overlap_lemma():
    from lrcirc.steane import logical_value, overlap_parity

    t0 = time.perf_counter()
    ok = all(
        overlap_parity(u, v) == logical_value(u) * logical_value(v)
        for u in CODEWORDS for v in CODEWORDS
    )
    dt = time.perf_counter() - t0
    verdict(2, ok and dt < 1.0, f"overlap identity on all 256 pairs ({dt:.3f}s)")


def test_criterion_03_fault_patterns_and_syndromes():
    t0 = time.perf_counter()
    want_patterns = [zmask(1, 2), zmask(1, 2, 3), zmask(5, 6, 7), zmask(6, 7)]
    want_syndromes = [frozenset(s) for s in
                      ({1, 2, 6}, {1, 2, 3, 6, 7}, {2, 4, 6, 7}, {6, 7})]
    ok = True
    for pos, want in zip((1, 2, 3, 4), want_patterns):
        slot, wire = MARKED_FAULTS[pos]
        ok &= propagate_z(zmask(wire), SHOR_PREP, from_slot=slot) == want
    syndromes = [syndrome_of(m) for m in want_patterns]
    ok &= syndromes == want_syndromes
    singles = [syndrome_of(zmask(w)) for w in range(1, 8)]
    ok &= len(set(syndromes)) == 4
    ok &= not (set(syndromes) & set(singles))
    ok &= len(set(singles)) == 7
    report = enumerate_single_faults()  # exhaustive over all 49 sites
    ok &= report["distinct"]
    ok &= report["multi_error_classes"] == [[1, 2], [1, 2, 3], [5, 6, 7], [6, 7]]
    dt = time.perf_counter() - t0
    verdict(3, ok and dt < 1.0,
            f"marked fault classes and distinct syndromes ({dt:.3f}s)")


def test_criterion_04_shor_state_distribution():
    t0 = time.perf_counter()
    b = CircuitBuilder()
    block = shor_prep_gadget(b, "s")
    circ = b.build()
    seen = set()
    for bits in product((0, 1), repeat=6):
        vals = register_file(circ, [], [], RandomTape.of(bits))
        seen.add("".join(str(vals[r]) for r in block))
    want = {"".join(map(str, w)) for w in product((0, 1), repeat=7)
            if sum(w) % 2 == 0}
    ok = len(seen) == 64 and seen == want
    dt = time.perf_counter() - t0
    verdict(4, ok and dt < 1.0,
            f"64 tapes hit the 64 even-weight words exactly once ({dt:.3f}s)")


def test_criterion_05_channel_equivalence():
    t0 = time.perf_counter()
    report = equivalence_sweep(max_exhaustive_wires=2, alphabet=4,
                               random_wires=3, trials=20, seed=2024)
    ok = (report["exhaustive_max_distance"] <= 1e-10
          and report["random_max_distance"] <= 1e-10
          and report["exhaustive_functions"] == 16 + 256)

    # single-wire special case: exact half(rho + Z rho Z) on a state basis
    ident = LeakageFunction.identity(1)
    deph = dephasing_channel(ident)
    leak = leakage_channel(ident)
    z = np.diag([1.0, -1.0]).astype(complex)
    states = []
    for v in ([1, 0], [0, 1], [2 ** -0.5, 2 ** -0.5], [2 ** -0.5, 1j * 2 ** -0.5]):
        v = np.array(v, dtype=complex)
        states.append(np.outer(v, v.conj()))
    for rho in states:
        want = 0.5 * (rho + z @ rho @ z)
        ok &= np.abs(deph(rho) - want).max() <= 1e-12
        ok &= np.abs(leak(rho) - want).max() <= 1e-12
    dt = time.perf_counter() - t0
    verdict(5, ok and dt < 30.0,
            f"leakage = dephasing over {report['exhaustive_functions']}+20 "
            f"functions, max dist {max(report['exhaustive_max_distance'], report['random_max_distance']):.1e} ({dt:.1f}s)")


def _functional_check(text: str, n_tapes: int, seed: int) -> int:
    logical = parse_netlist(text)
    comp = compile_circuit(logical, level=1, ec=True)
    table = truth_table(logical)
    rng = np.random.default_rng(seed)
    mismatches = 0
    for sec in product((0, 1), repeat=len(logical.secret_regs)):
        for pub in product((0, 1), repeat=len(logical.public_regs)):
            want = np.array(next(iter(table[(sec, pub)])), dtype=np.int8)
            tapes = rng.integers(0, 2, size=(n_tapes, comp.circuit.rand_count),
                                 dtype=np.int8)
            enc = encoded_secret_rows(comp, list(sec), n_tapes, rng)
            events = evaluate_batch(comp.circuit, enc, list(pub), tapes)
            outs = batch_outputs(comp.circuit, events)
            mismatches += int((outs != want).sum())
    return mismatches


def test_criterion_06_functional_equivalence():
    t0 = time.perf_counter()
    total = 0
    for text, seed in ((ONE_TOFFOLI, 61), (TWO_TOFFOLI_CHAIN, 62), (MIXED_3REG, 63)):
        total += _functional_check(text, n_tapes=10_000, seed=seed)
    dt = time.perf_counter() - t0
    verdict(6, total == 0 and dt < 120.0,
            f"3 fixtures, all inputs x 10^4 tapes, {total} mismatches ({dt:.1f}s)")


def test_criterion_07_theta_distribution():
    t0 = time.perf_counter()
    b = CircuitBuilder()
    a1, a2, a3 = toffoli_ancilla_gadget(b, "th")
    readout_events = [
        emit_parity_readout(b, blk, f"dec{i}")[1]
        for i, blk in enumerate((a1, a2, a3))
    ]
    circ = b.build()
    n = 100_000
    rng = np.random.default_rng(7)
    tapes = rng.integers(0, 2, size=(n, circ.rand_count), dtype=np.int8)
    triples = evaluate_batch(circ, [], [], tapes).matrix(readout_events)
    codes = triples[:, 0] * 4 + triples[:, 1] * 2 + triples[:, 2]
    counts = np.bincount(codes, minlength=8)
    allowed = [0b000, 0b100, 0b010, 0b111]
    ok = counts.sum() == n
    ok &= sum(counts[a] for a in allowed) == n  # exact membership
    obs = np.array([counts[a] for a in allowed], dtype=float)
    stat = ((obs - n / 4) ** 2 / (n / 4)).sum()
    # chi-square survival function at three degrees of freedom
    pval = math.erfc(math.sqrt(stat / 2)) + math.sqrt(2 * stat / math.pi) * math.exp(-stat / 2)
    ok &= pval > 0.001
    dt = time.perf_counter() - t0
    verdict(7, ok and dt < 60.0,
            f"triple uniform on the 4 allowed values, chi2 p={pval:.3f} ({dt:.1f}s)")


def test_criterion_08_single_wire_secrecy():
    t0 = time.perf_counter()
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    y0, y1 = [0, 1], [1, 0]  # output-equivalent secrets
    r1 = marginal_independence(comp, y0, y1, [], order=1,
                               samples=100_000, seed=81)
    r2 = marginal_independence(comp, y0, y1, [], order=2,
                               samples=100_000, seed=82)
    ok = r1.consistent_with_zero() and r2.consistent_with_zero()
    dt = time.perf_counter() - t0
    verdict(
        8, ok and dt < 300.0,
        f"order1 max {r1.estimate:.4f} <= {3 * r1.std_error + r1.bias_bound:.4f}, "
        f"order2 max {r2.estimate:.4f} <= {3 * r2.std_error + r2.bias_bound:.4f} "
        f"over {r2.details['comparisons']} pairs ({dt:.1f}s)",
    )


def test_criterion_09_separation():
    t0 = time.perf_counter()
    model = LeakageModel(0.01)
    raw = parse_netlist(ONE_TOFFOLI)
    r_raw = mc_advantage(raw, [0, 1], [1, 0], [], model, samples=10_000, seed=91)
    comp = compile_circuit(raw, level=1, ec=True)
    r_comp = mc_advantage(comp, [0, 1], [1, 0], [], model, samples=10_000, seed=92)
    ok = r_raw.estimate >= 0.005 and r_comp.consistent_with_zero()
    dt = time.perf_counter() - t0
    verdict(
        9, ok and dt < 300.0,
        f"raw {r_raw.estimate:.4f} >= 0.005; compiled {r_comp.estimate:.4f} "
        f"consistent with 0 (bound {3 * r_comp.std_error + r_comp.bias_bound:.3f}) ({dt:.1f}s)",
    )


def test_criterion_10_threshold_arithmetic():
    t0 = time.perf_counter()
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    report = location_report(comp)
    ref = report["reference"]
    ok = (
        ref["locations"] == 20
        and ref["pairs"] == 190
        and ref["threshold_estimate"] == 1.0 / 190
        and abs(ref["threshold_estimate"] - 0.00526) < 5e-5
        and report["own"] is not None
        and report["own"]["locations"] > 0
        and report["per_gadget"]
        and report["size"]["gate_ratio"] > 1
        and report["size"]["depth_ratio"] > 1
    )
    dt = time.perf_counter() - t0
    verdict(
        10, ok and dt < 1.0,
        f"C(20,2)=190, 1/190={ref['threshold_estimate']:.5f}; own largest "
        f"{report['own']['largest_gadget']}={report['own']['locations']} locations ({dt:.3f}s)",
    )


def test_criterion_11_oracle_agreement():
    t0 = time.perf_counter()
    wire = parse_netlist(SECRET_WIRE)
    ok = True
    for p in (0.001, 0.01, 0.1):
        est = exact_tv_tiny(wire, [0], [1], [], LeakageModel(p)).estimate
        ok &= abs(est - p) <= 1e-12
    for text, y0, y1 in (
        (SECRET_WIRE, [0], [1]),
        (MASKED_WIRE, [0], [1]),
        (ONE_TOFFOLI, [0, 1], [1, 0]),
    ):
        circ = parse_netlist(text)
        model = LeakageModel(0.05)
        exact = exact_tv_tiny(circ, y0, y1, [], model)
        mc = mc_advantage(circ, y0, y1, [], model, samples=3000, seed=111)
        ok &= abs(mc.estimate - exact.estimate) <= 3 * mc.std_error + mc.bias_bound
    dt = time.perf_counter() - t0
    verdict(11, ok and dt < 120.0,
            f"exact TV = p at 3 leak rates; MC agrees on 3 tiny fixtures ({dt:.1f}s)")
