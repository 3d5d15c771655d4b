"""Leakage transcripts and distinguishing-advantage estimators."""

import random
from itertools import product

import numpy as np
import pytest

from lrcirc.circuits import EvalError, Planes, evaluate_batch
from lrcirc import lab
from lrcirc.compiler import compile_circuit, encode_seed_planes, seed_count
from lrcirc.lab import (
    AdvantageReport,
    LeakageModel,
    encoded_secret_rows,
    exact_tv_tiny,
    marginal_independence,
    mc_advantage,
    run_rounds,
)
from lrcirc.netlist import parse_netlist

# the secret feeds a conditioned NOT whose condition is a tape bit, so rows
# skip it; test_golden pins raw MC on this circuit at inner=21
CGATE_MIXED = (
    "in secret s\nin public x\nreg a\nreg b\nout o\n"
    "gate RAND a\ngate CNOT a s\ngate RAND b\n"
    "gate TOF s x o\ncgate 2 NOT o\ngate COPY o b\n"
)
# one leakable event carrying the secret, nothing else
SECRET_WIRE = "in secret s\n"
# the secret is masked in place; the raw input event still leaks
MASKED = "in secret s\nreg a\ngate RAND a\ngate CNOT a s\n"
ONE_TOFFOLI = "in secret a\nin secret b\nout c\ngate TOF a b c\n"
# the secret conditions a CZ: under s = 0 both its events are skipped, under
# s = 1 its port on the never-written b reads 0
CONDITIONED = "in secret s\nreg a\nreg b\ngate RAND a\ncgate 0 CZ a b\n"


def test_leakage_model_bounds():
    with pytest.raises(ValueError):
        LeakageModel(1.5)


def test_run_rounds_p0_and_p1():
    circ = parse_netlist(MASKED)
    empty = run_rounds(circ, [1], [[], []], LeakageModel(0.0), seed=1)
    assert all(t.mask == () for t in empty)
    full = run_rounds(circ, [1], [[]], LeakageModel(1.0), seed=1)
    leakable = set(range(circ.num_events)) - circ.leak_free
    assert set(full[0].mask) == leakable


def test_run_rounds_deterministic():
    circ = parse_netlist(MASKED)
    a = run_rounds(circ, [1], [[]] * 5, LeakageModel(0.3), seed=42)
    b = run_rounds(circ, [1], [[]] * 5, LeakageModel(0.3), seed=42)
    assert a == b


def test_run_rounds_never_leaks_leak_free_events():
    circ = parse_netlist(MASKED)
    for t in run_rounds(circ, [0], [[]] * 50, LeakageModel(0.9), seed=7):
        assert not (set(t.mask) & circ.leak_free)


def test_run_rounds_output_decoded_for_compiled():
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), ec=True)
    for a, b in product((0, 1), repeat=2):
        ts = run_rounds(comp, [a, b], [[]] * 3, LeakageModel(0.0), seed=5)
        assert all(t.output == {"c": a & b} for t in ts)


def test_skipped_events_appear_as_none_values():
    circ = parse_netlist("in secret s\nout o\ncgate 0 NOT o\n")
    ts = run_rounds(circ, [0], [[]] * 20, LeakageModel(1.0), seed=3)
    # event 1 is the conditioned NOT's port; with s=0 it is always skipped
    assert all(t.values[1] is None for t in ts)


@pytest.mark.parametrize("level", [0, 1])
def test_transcripts_do_not_depend_on_evaluation_chunks(monkeypatch, level):
    # one row of uniforms per round, drawn in order, so the rows per
    # evaluate_batch call cannot move a round's draws
    circ = parse_netlist(CONDITIONED if level == 0 else ONE_TOFFOLI)
    target = circ if level == 0 else compile_circuit(circ, level=1, ec=True)
    secret = [1] if level == 0 else [1, 0]
    want = run_rounds(target, secret, [[]] * 10, LeakageModel(0.2), seed=8)
    for rows in (1, 3):
        monkeypatch.setattr(lab, "rows_per_batch", lambda _circuit, rows=rows: rows)
        assert run_rounds(target, secret, [[]] * 10, LeakageModel(0.2), seed=8) == want


def test_run_rounds_draws_leaks_and_tape_bits_at_their_rates():
    # a reference loop drawing the same way would share a wrong threshold,
    # so the rates are checked against the model itself
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    p, rounds = 0.05, 2000
    cells = rounds * (comp.circuit.num_events - len(comp.circuit.leak_free))
    hits = sum(len(t.mask) for t in run_rounds(comp, [0, 1], [[]] * rounds,
                                               LeakageModel(p), seed=9))
    assert abs(hits - p * cells) < 5 * np.sqrt(cells * p * (1 - p))
    # the output copies one tape bit
    circ = parse_netlist("reg a\nout o\ngate RAND a\ngate COPY a o\n")
    ones = sum(t.output["o"] for t in run_rounds(circ, [], [[]] * rounds,
                                                 LeakageModel(0.0), seed=9))
    assert abs(ones - rounds / 2) < 5 * np.sqrt(rounds / 4)


# -- exact oracle ---------------------------------------------------------------


@pytest.mark.parametrize("p", [0.001, 0.01, 0.1])
def test_exact_tv_secret_wire_equals_p(p):
    circ = parse_netlist(SECRET_WIRE)
    report = exact_tv_tiny(circ, [0], [1], [], LeakageModel(p))
    assert report.estimate == pytest.approx(p, abs=1e-15)
    assert report.method == "exact-tiny"


def test_exact_tv_same_secret_is_zero():
    circ = parse_netlist(MASKED)
    report = exact_tv_tiny(circ, [1], [1], [], LeakageModel(0.2))
    assert report.estimate == 0.0


@pytest.mark.parametrize("p", [0.001, 0.01, 0.1])
def test_exact_tv_masked_fixture_closed_form(p):
    # events: s-input (secret), RAND (leak-free), CNOT control port (r),
    # CNOT target port (s^r).  The transcripts differ when the input event
    # leaks, or when both CNOT ports leak (their joint support is disjoint
    # between the secrets): TV = p + (1-p)p^2.
    circ = parse_netlist(MASKED)
    report = exact_tv_tiny(circ, [0], [1], [], LeakageModel(p))
    assert report.estimate == pytest.approx(p + (1 - p) * p * p, abs=1e-12)


def test_exact_tv_monotone_in_p():
    circ = parse_netlist(SECRET_WIRE)
    vals = [
        exact_tv_tiny(circ, [0], [1], [], LeakageModel(p)).estimate
        for p in (0.001, 0.01, 0.1)
    ]
    assert vals == sorted(vals)


def test_exact_tv_size_guard():
    lines = [f"reg a{i}" for i in range(25)] + [f"gate RAND a{i}" for i in range(25)]
    circ = parse_netlist("\n".join(lines) + "\n")
    with pytest.raises(EvalError, match="size guard"):
        exact_tv_tiny(circ, [], [], [], LeakageModel(0.1))


def test_exact_tv_raw_toffoli_matches_event_count_formula():
    # y0=01 vs y1=10: both AND to 0; the four differing events are the two
    # secret inputs and their Toffoli pass-through ports, and any leaked
    # one of them distinguishes perfectly; the pair (c-out) adds nothing.
    p = 0.05
    circ = parse_netlist(ONE_TOFFOLI)
    report = exact_tv_tiny(circ, [0, 1], [1, 0], [], LeakageModel(p))
    assert report.estimate == pytest.approx(1 - (1 - p) ** 4, abs=1e-12)


# every event carries the secret, so each leaking mask has TV 1 and the
# exact TV is 1 - (1 - p)^17; unclamped, the weighted sum passed 1 by
# rounding at 55 of 106 evenly spaced values of p in [0.9, 1], and at 13
# of the 27 tested here
CNOT_CHAIN = ("in secret s\n" + "".join(f"reg a{i}\n" for i in range(8))
              + "gate CNOT s a0\n" + "".join(f"gate CNOT a{i} a{i + 1}\n" for i in range(7)))


def test_exact_tv_never_exceeds_one():
    circ = parse_netlist(CNOT_CHAIN)
    assert circ.num_events == 17 and not circ.leak_free
    for p in np.linspace(0.9, 1.0, 106)[::4].tolist():
        estimate = exact_tv_tiny(circ, [0], [1], [], LeakageModel(p)).estimate
        assert estimate <= 1.0
        assert estimate == pytest.approx(1 - (1 - p) ** 17, abs=1e-12)


def _brute_force_transcript_tv(circ, y0, y1, p):
    """Independent oracle: enumerate full (mask, values) transcripts.

    Builds both transcript distributions outright, with no mask/value
    decomposition, and takes half the L1 distance.  Exponential in events
    and tape bits, so only for the tiniest fixtures.
    """
    from lrcirc.circuits import RandomTape, evaluate

    leakable = sorted(set(range(circ.num_events)) - circ.leak_free)
    dists = []
    for secret in (y0, y1):
        dist = {}
        for tape_bits in product((0, 1), repeat=circ.rand_count):
            tr = evaluate(circ, secret, [], RandomTape.of(tape_bits))
            t_weight = 1.0 / 2 ** circ.rand_count
            for mask_bits in product((0, 1), repeat=len(leakable)):
                w = tuple(e for e, m in zip(leakable, mask_bits) if m)
                prob = t_weight * (p ** len(w)) * ((1 - p) ** (len(leakable) - len(w)))
                vals = tuple(tr.values[e] for e in w)
                key = (w, vals)
                dist[key] = dist.get(key, 0.0) + prob
        dists.append(dist)
    keys = set(dists[0]) | set(dists[1])
    return 0.5 * sum(abs(dists[0].get(k, 0.0) - dists[1].get(k, 0.0)) for k in keys)


# events 4 (the Toffoli's target, s & r) and 5 (Z on r, run only when
# s = 1) have equal value bits in every row, but event 5 is skipped where
# event 4 reads 0: alone, event 4 has TV 1/2 and event 5 TV 1, so the two
# must not share a leak class
SKIP_VS_ZERO = "in secret s\nreg r\nreg c\ngate RAND r\ngate TOF s r c\ncgate 0 Z r\n"

_ARITY = {"NOT": 1, "Z": 1, "CNOT": 2, "CZ": 2, "COPY": 2, "TOF": 3}
_KINDS = ("NOT", "Z", "Z", "CNOT", "CZ", "COPY", "COPY", "TOF")  # Z and COPY twice as often


def _random_raw_circuit(rng: random.Random) -> tuple[str, list[int], list[int]]:
    """A raw circuit of at most 10 leakable events and 4 tape bits, and two
    distinct secrets for it.  Gates act on random registers, so Z and COPY
    repeat observations of one value and NOT complements it between them;
    about a third are conditioned on an event that always runs (an input,
    a tape bit or an unconditioned gate's port)."""
    width, tape = rng.randint(1, 2), rng.randint(0, 4)
    regs = [f"s{i}" for i in range(width)] + [f"r{i}" for i in range(tape)] + ["a", "b"]
    lines = [f"in secret s{i}" for i in range(width)] + [f"reg {r}" for r in regs[width:]]
    lines += [f"gate RAND r{i}" for i in range(tape)]
    always = list(range(width + tape))
    events, leaks, budget = width + tape, width, rng.randint(6, 10)
    while leaks < budget:
        kind = rng.choice([k for k in _KINDS if leaks + _ARITY[k] <= budget])
        ops = " ".join(rng.sample(regs, _ARITY[kind]))
        if rng.random() < 0.3:
            lines.append(f"cgate {rng.choice(always)} {kind} {ops}")
        else:
            lines.append(f"gate {kind} {ops}")
            always += range(events, events + _ARITY[kind])
        events += _ARITY[kind]
        leaks += _ARITY[kind]
    y0, y1 = rng.sample([[(v >> k) & 1 for k in range(width)] for v in range(2 ** width)], 2)
    return "\n".join(lines) + "\n", y0, y1


@pytest.mark.parametrize("text,y0,y1", [
    (SECRET_WIRE, [0], [1]),
    (MASKED, [0], [1]),
    (ONE_TOFFOLI, [0, 1], [1, 0]),
    (ONE_TOFFOLI, [0, 0], [1, 1]),
    (CONDITIONED, [0], [1]),
    pytest.param(SKIP_VS_ZERO, [0], [1], id="skip-vs-zero"),
    *(pytest.param(*_random_raw_circuit(random.Random(seed)), id=f"generated-{seed}")
      for seed in range(20)),
])
def test_exact_tv_matches_full_transcript_enumeration(text, y0, y1):
    # dual route: the mask-decomposed oracle equals the direct transcript
    # distribution distance
    circ = parse_netlist(text)
    for p in (0.05, 0.3):
        want = _brute_force_transcript_tv(circ, y0, y1, p)
        got = exact_tv_tiny(circ, y0, y1, [], LeakageModel(p)).estimate
        assert got == pytest.approx(want, abs=1e-12)


# -- Monte-Carlo estimator ---------------------------------------------------------


def test_mc_requires_min_samples():
    circ = parse_netlist(SECRET_WIRE)
    with pytest.raises(ValueError):
        mc_advantage(circ, [0], [1], [], LeakageModel(0.1), samples=10, seed=0)


@pytest.mark.parametrize("estimator, kwargs, message", [
    (mc_advantage, {"inner": 0}, "inner tape"),
    (marginal_independence, {"samples": 0}, "at least 1 sample"),
])
def test_estimators_refuse_empty_batches_up_front(estimator, kwargs, message):
    # each of these used to loop forever or divide by zero
    circ = parse_netlist(SECRET_WIRE)
    if estimator is mc_advantage:
        args = dict(model=LeakageModel(0.1), samples=1000, seed=0)
    else:
        args = dict(order=1, samples=100, seed=0)
    with pytest.raises(ValueError, match=message):
        estimator(circ, [0], [1], [], **{**args, **kwargs})


def test_mc_bias_bound_of_masks_over_646_events():
    # every mask holds all 701 events; the bound used 3.0 ** |w|, which
    # overflows a float from 647 events on
    circ = parse_netlist("in secret s\nreg a\n" + "gate CNOT s a\n" * 350)
    report = mc_advantage(circ, [0], [1], [], LeakageModel(1.0), samples=1000,
                          seed=0, inner=1)
    assert (report.estimate, report.bias_bound) == (1.0, 1.0)


def test_mc_details_count_empty_and_saturated_masks():
    circ = parse_netlist("in secret s\nreg a\n" + "gate CNOT s a\n" * 350)
    never = mc_advantage(circ, [0], [1], [], LeakageModel(0.0), samples=1000, seed=0, inner=3)
    always = mc_advantage(circ, [0], [1], [], LeakageModel(1.0), samples=1000, seed=0, inner=3)
    counts = ("empty_masks", "saturated_masks", "rows_evaluated")
    assert [never.details[k] for k in counts] == [1000, 0, 6000]
    assert [always.details[k] for k in counts] == [0, 1000, 6000]


def test_mc_same_secret_consistent_with_zero():
    circ = parse_netlist(MASKED)
    report = mc_advantage(circ, [1], [1], [], LeakageModel(0.1),
                          samples=1000, seed=1)
    assert report.estimate == 0.0  # CRN makes identical wires exact zeros
    assert report.consistent_with_zero()


@pytest.mark.parametrize("level", [0, 1, 2])
def test_mc_same_secret_reads_exactly_zero_at_every_level(level):
    # both secrets are evaluated on the same seed and tape rows at every
    # level, so a same-secret run compares identical rows
    circ = parse_netlist(ONE_TOFFOLI)
    target = compile_circuit(circ, level=level, ec=True) if level else circ
    report = mc_advantage(target, [0, 1], [0, 1], [], LeakageModel(0.01),
                          samples=1000, seed=33, inner=8)
    assert (report.estimate, report.std_error) == (0.0, 0.0)


def test_mc_agrees_with_exact_on_tiny_fixtures():
    model = LeakageModel(0.05)
    for text in (SECRET_WIRE, MASKED):
        circ = parse_netlist(text)
        exact = exact_tv_tiny(circ, [0], [1], [], model)
        mc = mc_advantage(circ, [0], [1], [], model, samples=3000, seed=9)
        assert abs(mc.estimate - exact.estimate) <= 3 * mc.std_error + mc.bias_bound


def test_mc_raw_toffoli_detects_leakage():
    circ = parse_netlist(ONE_TOFFOLI)
    report = mc_advantage(circ, [0, 1], [1, 0], [], LeakageModel(0.01),
                          samples=2000, seed=11)
    assert report.estimate >= 0.005


def test_mc_deterministic():
    circ = parse_netlist(MASKED)
    a = mc_advantage(circ, [0], [1], [], LeakageModel(0.1), samples=1000, seed=5)
    b = mc_advantage(circ, [0], [1], [], LeakageModel(0.1), samples=1000, seed=5)
    assert a == b


# -- packed [seed | tape] draws --------------------------------------------------------


@pytest.mark.parametrize("rows", [1, 7, 9, 21, 861])
def test_drawn_planes_hold_no_bit_past_their_rows(rows):
    bits = lab._draw_planes(np.random.default_rng(rows), rows, 5)
    assert bits.shape == (rows, 5)
    assert all(0 <= plane < 1 << rows for plane in bits.planes)


def _spy_on_planes(monkeypatch):
    """Patch lab.evaluate_batch to check that no plane it gets has a bit
    at or past its rows; returns the list of each call's rows."""
    seen = []

    def spy(circuit, secret, public, tapes):
        for bits in (secret, tapes):
            assert isinstance(bits, Planes)
            assert all(0 <= plane < 1 << bits.rows for plane in bits.planes)
        seen.append(tapes.rows)
        return evaluate_batch(circuit, secret, public, tapes)

    monkeypatch.setattr(lab, "evaluate_batch", spy)
    return seen


def test_mc_spare_bits_never_reach_a_plane(monkeypatch):
    # 1001 masks at inner=21: the last chunk's 41 * 21 = 861 rows end
    # five bits into a byte
    seen = _spy_on_planes(monkeypatch)
    report = mc_advantage(parse_netlist(CGATE_MIXED), [0], [1], [1], LeakageModel(0.3),
                          samples=1001, seed=32, inner=21)
    assert sum(seen) == report.details["rows_evaluated"] == 2 * 1001 * 21
    assert any(rows % 8 for rows in seen)


@pytest.mark.parametrize("order", [1, 2])
def test_marginal_spare_bits_never_reach_a_plane(monkeypatch, order):
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1)
    targets = comp.snapshot_pairs if order == 2 else comp.circuit.leakable
    seen = _spy_on_planes(monkeypatch)
    counts = lab._symbol_counts(comp.circuit, 1, [1, 0], [], 21, np.random.default_rng(8),
                                targets, order)
    assert seen == [21]
    assert (counts >= 0).all() and (counts.sum(axis=1) == 21).all()


# -- marginal distinguishers ----------------------------------------------------------


def test_marginal_raw_secret_wire_is_one():
    circ = parse_netlist(SECRET_WIRE)
    report = marginal_independence(circ, [0], [1], [], order=1,
                                   samples=2000, seed=2)
    assert report.estimate == 1.0
    assert report.method == "per-wire-marginal"
    assert not report.consistent_with_zero()


def test_marginal_masked_wire_uniform():
    # the CNOT ports are uniform regardless of the secret; only the input
    # event distinguishes
    circ = parse_netlist(MASKED)
    report = marginal_independence(circ, [0], [1], [], order=1,
                                   samples=4000, seed=3)
    assert report.estimate == 1.0
    assert report.details["worst"] == [0]


def test_marginal_compiled_block_positions_uniform():
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), ec=True)
    report = marginal_independence(comp, [0, 1], [1, 0], [], order=1,
                                   samples=3000, seed=4)
    assert report.consistent_with_zero()


def test_pairwise_compiled_consistent_with_zero():
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), ec=True)
    report = marginal_independence(comp, [0, 1], [1, 0], [], order=2,
                                   samples=3000, seed=6)
    assert report.method == "pairwise-marginal"
    assert report.details["comparisons"] > 1000
    assert report.consistent_with_zero()


def test_pairwise_needs_blocks():
    circ = parse_netlist(MASKED)
    with pytest.raises(EvalError, match="blocks"):
        marginal_independence(circ, [0], [1], [], order=2, samples=1000, seed=0)


def test_exact_codeword_position_marginals():
    # exhaustive over the 8 codewords of each class: every position uniform
    from lrcirc.steane import EVEN, ODD

    for cls in (EVEN, ODD):
        for pos in range(7):
            ones = sum(w[pos] for w in cls)
            assert ones == 4


def test_report_band_validation():
    # only impossible values are refused: a TV outside [0, 1], or an error
    # term that is negative or not finite
    cases = [
        (dict(estimate=1.5), "estimate"),
        (dict(estimate=-0.2), "estimate"),
        (dict(estimate=float("nan")), "estimate"),
        (dict(std_error=-0.1), "std_error"),
        (dict(std_error=float("inf")), "std_error"),
        (dict(std_error=float("nan")), "std_error"),
        (dict(bias_bound=-1.0), "bias_bound"),
        (dict(bias_bound=float("inf")), "bias_bound"),
        (dict(bias_bound=float("nan")), "bias_bound"),
    ]
    for fields, message in cases:
        with pytest.raises(ValueError, match=message):
            AdvantageReport(**{"estimate": 0.5, "std_error": 0.1, "bias_bound": 0.0,
                               "method": "exact-tiny", "samples": 1, **fields})


def test_unknown_method_and_order_are_refused():
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        AdvantageReport(estimate=0.5, std_error=0.1, bias_bound=0.0, method="bogus", samples=1)
    with pytest.raises(ValueError, match="order must be 1 or 2"):
        marginal_independence(parse_netlist(SECRET_WIRE), [0], [1], [], order=3,
                              samples=100, seed=0)


def test_report_accepts_every_possible_value():
    for estimate, std_error in ((1.0, 0.2), (0.0, 0.5), (0.01, 1.0), (1.0 + 1e-13, 0.0)):
        AdvantageReport(estimate=estimate, std_error=std_error, bias_bound=3.0,
                        method="per-wire-marginal", samples=1)


BAND = "in secret a\nin secret b\nreg r\nout o\ngate RAND r\ngate CNOT r o\ngate TOF a b o\n"


@pytest.mark.parametrize("samples", [10, 100, 300])
def test_small_estimate_with_large_error_is_reported(samples):
    # equal secrets: the estimate is noise, often small next to 3 std errors;
    # a band check on estimate - 3 * std_error refused 13 of these 15 runs
    for seed in range(5):
        report = marginal_independence(parse_netlist(BAND), [1, 1], [1, 1], [], order=1,
                                       samples=samples, seed=seed)
        assert 0.0 <= report.estimate <= 1.0
        assert report.consistent_with_zero()


# -- one target path: secret widths and level-0 encodings ---------------------------


@pytest.fixture(scope="module")
def targets_by_level():
    logical = parse_netlist(ONE_TOFFOLI)
    return {0: logical, 1: compile_circuit(logical, level=1),
            2: compile_circuit(logical, level=2)}


def _run_estimator(name, target, y0, y1):
    if name == "run_rounds":
        return run_rounds(target, y0, [[]], LeakageModel(0.1), seed=0)
    if name == "exact":
        return exact_tv_tiny(target, y0, y1, [], LeakageModel(0.1))
    if name == "mc":
        return mc_advantage(target, y0, y1, [], LeakageModel(0.1), samples=1000, seed=0)
    if name == "encode":
        return encoded_secret_rows(target, y0, 4, np.random.default_rng(0))
    return marginal_independence(target, y0, y1, [], order=int(name[-1]), samples=10, seed=0)


_WIDTH_CASES = [("run_rounds", "y0"), ("encode", "y0")] + [
    (name, bad) for name in ("exact", "mc", "marginal1", "marginal2") for bad in ("y0", "y1")]


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("name, bad", _WIDTH_CASES)
def test_secret_width_is_checked_once_with_one_message(targets_by_level, level, name, bad):
    for width in (1, 3):
        y0, y1 = ([1] * width, [0, 1]) if bad == "y0" else ([0, 1], [1] * width)
        with pytest.raises(EvalError, match=f"^expected 2 secret bits, got {width}$"):
            _run_estimator(name, targets_by_level[level], y0, y1)


def test_raw_target_encoding_is_the_secret_and_draws_nothing():
    circ = parse_netlist(ONE_TOFFOLI)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    rows = encoded_secret_rows(circ, [1, 0], 5, rng)
    assert rows.tolist() == [[1, 0]] * 5
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("level", [0, 1, 2])
def test_paired_encoding_is_linear_in_the_secret(level):
    # one seed batch serves both secrets: enc(y1) = enc(y0) ^ enc(y0 ^ y1, 0)
    width = seed_count(2, level)
    seeds = np.random.default_rng(4).integers(0, 2, size=(64, width))

    def encode(y, seeds):
        planes = Planes.pack(seeds)
        return Planes(planes.rows, encode_seed_planes(y, planes.planes, level, planes.rows)).unpack()

    for y0, y1 in product(product((0, 1), repeat=2), repeat=2):
        enc0, enc1 = (encode(y, seeds) for y in (y0, y1))
        diff = encode([a ^ b for a, b in zip(y0, y1)], np.zeros((1, width)))
        assert ((enc0 ^ diff) == enc1).all()


def test_mask_frequencies_match_model():
    # chi-square-style check that per-event leak frequency tracks p and is
    # identical for both secrets (masks are sampled value-blind)
    circ = parse_netlist(MASKED)
    p = 0.25
    n = 4000
    counts = {0: np.zeros(circ.num_events), 1: np.zeros(circ.num_events)}
    for secret in (0, 1):
        for t in run_rounds(circ, [secret], [[]] * n, LeakageModel(p), seed=13):
            for e in t.mask:
                counts[secret][e] += 1
    leakable = sorted(set(range(circ.num_events)) - circ.leak_free)
    for e in leakable:
        for secret in (0, 1):
            assert abs(counts[secret][e] / n - p) < 5 * np.sqrt(p * (1 - p) / n)
    # same seed, same masks: frequency difference is exactly zero
    assert (counts[0] == counts[1]).all()
