"""Adversary-side laboratory: independent leakage, transcripts, advantage.

Each non-leak-free wire event leaks independently with probability p; a
round's transcript is the leaked set, the leaked values (null for events of
skipped conditioned gates) and the decoded output.  Distinguishing power
between two secrets at a fixed public input is measured three ways:

* exact_tv_tiny enumerates tapes and masks outright (tiny circuits only),
* mc_advantage samples masks and estimates the per-mask value-distribution
  TV from paired tape samples, reporting an explicit upward-bias bound for
  the inner empirical TV,
* marginal_independence bounds the best single-event (or within-block
  pair) distinguisher, which is where the codeword pair-uniformity does
  its work.

All randomness flows from one seed: per round/sample the generator supplies
encoding seeds (compiled targets), the circuit tape, then the leak mask, in
that order, so identical (config, seed) gives identical results.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .circuits import (
    Circuit,
    EvalError,
    RandomTape,
    evaluate,
    evaluate_batch,
)
from .compiler import CompiledCircuit, encode_secret

_METHODS = ("exact-tiny", "mask-decomposed-MC", "per-wire-marginal", "pairwise-marginal")
_MAX_EXACT_EVENTS = 24
_MAX_EXACT_TAPE = 20
_MAX_EXACT_WORK = 5 * 10 ** 7


@dataclass(frozen=True)
class LeakageModel:
    """Independent leakage: every leakable wire event leaks w.p. p."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("leak probability must be in [0, 1]")


@dataclass(frozen=True)
class LeakTranscript:
    round: int
    mask: tuple[int, ...]                 # leaked wire-event ids, sorted
    values: dict[int, int | None]         # per leaked id; None = skipped no-op
    output: dict[str, int]

    def to_json_dict(self) -> dict:
        return {
            "round": self.round,
            "mask": list(self.mask),
            "values": {str(k): v for k, v in self.values.items()},
            "output": dict(self.output),
        }


@dataclass(frozen=True)
class AdvantageReport:
    estimate: float
    std_error: float
    bias_bound: float
    method: str
    samples: int
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        lo = self.estimate - 3 * self.std_error
        hi = self.estimate + 3 * self.std_error
        if lo < -0.01 or hi > 1.01:
            raise ValueError("estimate out of the admissible band")

    def consistent_with_zero(self) -> bool:
        return self.estimate <= 3 * self.std_error + self.bias_bound

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "bias_bound": self.bias_bound,
            "method": self.method,
            "samples": self.samples,
            "consistent_with_zero": self.consistent_with_zero(),
            "details": self.details,
        }


# -- target handling ---------------------------------------------------------


def _unpack(target) -> tuple[Circuit, CompiledCircuit | None]:
    if isinstance(target, CompiledCircuit):
        return target.circuit, target
    return target, None


def _round_secret(compiled: CompiledCircuit | None, secret, rng: random.Random):
    """Per-round circuit-level secret bits; compiled targets get a fresh
    encoding from leak-free randomness (level 2 encodes the level-1 bits
    again)."""
    if compiled is None:
        return [int(b) & 1 for b in secret]
    bits = [int(b) & 1 for b in secret]
    for _ in range(compiled.level):
        bits = encode_secret(bits, rng).flat_bits()
    if len(bits) != len(compiled.circuit.secret_regs):
        raise EvalError("secret width does not match the compiled circuit")
    return bits


def _encoding_bits(compiled: CompiledCircuit | None, logical_bits: int) -> int:
    """Leak-free seed bits consumed per round by the secret encoding."""
    if compiled is None:
        return 0
    # 3 seeds per bit per pass; a level-2 pass re-encodes the 7x wider word
    return 3 * logical_bits * (1 if compiled.level == 1 else 8)


def _leakable_events(circuit: Circuit) -> list[int]:
    return [e for e in range(circuit.num_events) if e not in circuit.leak_free]


# -- round sampling ------------------------------------------------------------


def run_rounds(target, secret, inputs, model: LeakageModel, seed: int,
               tape_policy: str = "fresh",
               tape: RandomTape | None = None) -> list[LeakTranscript]:
    """One transcript per public input: fresh tape, evaluate, sample mask.

    Leak-free events are never eligible for the mask.  Fixed seeds give
    identical transcripts.  The default policy draws a fresh tape per round;
    the "fixed" policy replays the supplied tape every round (mask sampling
    and secret encodings stay seeded).
    """
    if tape_policy not in ("fresh", "fixed"):
        raise ValueError(f"unknown tape policy {tape_policy!r}")
    if tape_policy == "fixed" and tape is None:
        raise ValueError("fixed tape policy needs a tape")
    circuit, compiled = _unpack(target)
    rng = random.Random(seed)
    leakable = _leakable_events(circuit)
    out = []
    for rnd, x in enumerate(inputs):
        bits = _round_secret(compiled, secret, rng)
        if tape_policy == "fresh":
            round_tape = RandomTape.of(
                [rng.getrandbits(1) for _ in range(circuit.rand_count)]
            )
        else:
            round_tape = tape
        trace = evaluate(circuit, bits, x, round_tape)
        mask = tuple(e for e in leakable if rng.random() < model.p)
        values = {e: trace.values[e] for e in mask}
        out.append(LeakTranscript(rnd, mask, values, trace.outputs))
    return out


# -- exact tiny oracle -----------------------------------------------------------


def exact_tv_tiny(target, y0, y1, x, model: LeakageModel) -> AdvantageReport:
    """Exact transcript TV between two secrets at fixed x, tiny circuits only.

    The mask distribution is secret-independent, so the transcript TV
    decomposes as the mask-weighted sum of masked-value TVs; tapes (plus
    encoding seeds for compiled targets) and masks are both enumerated.
    """
    circuit, compiled = _unpack(target)
    leakable = _leakable_events(circuit)
    n = len(leakable)
    enc_bits = _encoding_bits(compiled, len(list(y0)))
    total_tape = circuit.rand_count + enc_bits
    if n > _MAX_EXACT_EVENTS:
        raise EvalError(f"size guard exceeded: {n} leakable events (max {_MAX_EXACT_EVENTS})")
    if total_tape > _MAX_EXACT_TAPE:
        raise EvalError(f"size guard exceeded: {total_tape} tape bits (max {_MAX_EXACT_TAPE})")

    dists = []
    for secret in (y0, y1):
        counts: Counter = Counter()
        for bits in product((0, 1), repeat=total_tape):
            rng = _BitFeeder(bits)
            circ_secret = _round_secret(compiled, secret, rng)
            tape = RandomTape.of(bits[enc_bits:])
            trace = evaluate(circuit, circ_secret, x, tape)
            key = tuple(
                -1 if trace.values[e] is None else trace.values[e] for e in leakable
            )
            counts[key] += 1
        total = 2 ** total_tape
        dists.append({k: v / total for k, v in counts.items()})

    support = sorted(set(dists[0]) | set(dists[1]))
    if (2 ** n) * max(1, len(support)) > _MAX_EXACT_WORK:
        raise EvalError("size guard exceeded: mask enumeration too large")

    p = model.p
    tv = 0.0
    for mask_bits in range(2 ** n):
        k = mask_bits.bit_count()
        weight = (p ** k) * ((1 - p) ** (n - k))
        if weight == 0.0:
            continue
        proj0: dict = {}
        proj1: dict = {}
        for vec in support:
            key = tuple(v for i, v in enumerate(vec) if mask_bits >> i & 1)
            proj0[key] = proj0.get(key, 0.0) + dists[0].get(vec, 0.0)
            proj1[key] = proj1.get(key, 0.0) + dists[1].get(vec, 0.0)
        inner = 0.5 * sum(
            abs(proj0.get(k2, 0.0) - proj1.get(k2, 0.0))
            for k2 in set(proj0) | set(proj1)
        )
        tv += weight * inner
    return AdvantageReport(
        estimate=tv, std_error=0.0, bias_bound=0.0, method="exact-tiny",
        samples=2 ** total_tape,
        details={"leakable_events": n, "tape_bits": total_tape, "p": p},
    )


class _BitFeeder:
    """random.Random stand-in that replays a fixed bit sequence (used to
    enumerate the leak-free encoding seeds exactly)."""

    def __init__(self, bits):
        self._bits = list(bits)
        self._i = 0

    def getrandbits(self, k):
        assert k == 1
        b = self._bits[self._i]
        self._i += 1
        return b


# -- Monte-Carlo mask-decomposition estimator -------------------------------------


def mc_advantage(target, y0, y1, x, model: LeakageModel, samples: int, seed: int,
                 inner: int = 256, chunk: int = 64) -> AdvantageReport:
    """Sampled-mask estimator of the transcript TV.

    Masks are drawn from the secret-independent leak distribution; for each
    mask the masked-value TV is estimated from `inner` fresh tapes per
    secret, paired through common random numbers so identically distributed
    wires contribute exact zeros.  The inner empirical TV is biased upward
    by at most ~sqrt(support/inner); the reported bias bound is the mean of
    the per-mask bounds min(1, sqrt(min(3^|w|, 2*inner)/inner)), and the
    std-error is a 200-resample bootstrap over the per-mask estimates.
    """
    if samples < 10 ** 3:
        raise ValueError("need at least 1000 samples")
    circuit, compiled = _unpack(target)
    leakable = np.array(_leakable_events(circuit), dtype=np.int64)
    rng = random.Random(seed)
    np_rng = np.random.default_rng(rng.getrandbits(64))

    tvs = np.zeros(samples)
    biases = np.zeros(samples)
    pos = 0
    while pos < samples:
        m = min(chunk, samples - pos)
        rows = m * inner
        ev0, ev1 = _paired_event_batches(circuit, compiled, y0, y1, x, rows, np_rng)
        masks = np_rng.random((m, leakable.size)) < model.p
        for i in range(m):
            cols = leakable[masks[i]]
            if cols.size == 0:
                tvs[pos + i] = 0.0
                biases[pos + i] = 0.0
                continue
            lo, hi = i * inner, (i + 1) * inner
            tvs[pos + i] = _empirical_tv(ev0[lo:hi][:, cols], ev1[lo:hi][:, cols])
            support = min(3.0 ** cols.size, 2.0 * inner)
            biases[pos + i] = min(1.0, math.sqrt(support / inner))
        pos += m

    estimate = float(tvs.mean())
    boot = np_rng.choice(tvs, size=(200, samples), replace=True).mean(axis=1)
    std_error = float(boot.std(ddof=1))
    return AdvantageReport(
        estimate=estimate, std_error=std_error, bias_bound=float(biases.mean()),
        method="mask-decomposed-MC", samples=samples,
        details={"inner_tapes": inner, "p": model.p,
                 "leakable_events": int(leakable.size),
                 "mean_mask_size": model.p * leakable.size,
                 "bootstrap_resamples": 200},
    )


def _paired_event_batches(circuit, compiled, y0, y1, x, rows, np_rng):
    """Event matrices for both secrets from one tape/seed batch (CRN)."""
    tapes = np_rng.integers(0, 2, size=(rows, circuit.rand_count), dtype=np.int8)
    if compiled is None:
        ev0 = evaluate_batch(circuit, y0, x, tapes)
        ev1 = evaluate_batch(circuit, y1, x, tapes)
        return ev0, ev1
    enc0 = encoded_secret_rows(compiled, y0, rows, np_rng)
    if compiled.level == 1:
        # same seed stream, other secret: encode(b, s) differs from
        # encode(b^1, s) exactly by the flip on the logical support
        enc1 = _apply_logical_flip(compiled, enc0, y0, y1)
    else:
        enc1 = encoded_secret_rows(compiled, y1, rows, np_rng)
    ev0 = evaluate_batch(circuit, enc0, x, tapes)
    ev1 = evaluate_batch(circuit, enc1, x, tapes)
    return ev0, ev1


def encoded_secret_rows(compiled: CompiledCircuit, secret, rows: int,
                        np_rng) -> np.ndarray:
    """Fresh per-row codeword encodings of the logical secret, ready to be
    passed to evaluate_batch as the per-row secret matrix."""
    bits = [int(b) & 1 for b in secret]
    width = len(compiled.circuit.secret_regs)
    out = np.empty((rows, width), dtype=np.int8)
    feeder = np_rng.integers(0, 2, size=(rows, _encoding_bits(compiled, len(bits))))
    for r in range(rows):
        rng = _BitFeeder(feeder[r])
        out[r] = _round_secret(compiled, bits, rng)
    return out


def _apply_logical_flip(compiled: CompiledCircuit, enc: np.ndarray, y0, y1) -> np.ndarray:
    b0 = [int(b) & 1 for b in y0]
    b1 = [int(b) & 1 for b in y1]
    out = enc.copy()
    for k, (a, b) in enumerate(zip(b0, b1)):
        if a != b:
            for j in (0, 1, 2):  # logical support, 0-based within the block
                out[:, 7 * k + j] ^= 1
    return out


def _empirical_tv(a: np.ndarray, b: np.ndarray) -> float:
    ca = Counter(map(bytes, a))
    cb = Counter(map(bytes, b))
    n = a.shape[0]
    return 0.5 * sum(
        abs(ca.get(k, 0) - cb.get(k, 0)) for k in set(ca) | set(cb)
    ) / n


# -- marginal distinguishers -------------------------------------------------------


def marginal_independence(target, y0, y1, x, order: int, samples: int,
                          seed: int, chunk: int = 1 << 14) -> AdvantageReport:
    """Best single-event (order 1) or within-block pair (order 2) TV.

    Counts are exact per cell over `samples` independently drawn tapes per
    secret.  The bias bound is a union Hoeffding bound at level 1e-3 over
    all comparisons, so "max TV <= 3*std_error + bias_bound" is a calibrated
    consistency-with-zero test when the true marginals coincide.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    circuit, compiled = _unpack(target)
    rng = random.Random(seed)
    rng0 = np.random.default_rng(rng.getrandbits(64))
    rng1 = np.random.default_rng(rng.getrandbits(64))

    if order == 1:
        targets = [(e,) for e in _leakable_events(circuit)]
        symbols = 3
    else:
        targets = _within_block_pairs(circuit, compiled)
        symbols = 9

    counts0 = _symbol_counts(circuit, compiled, y0, x, samples, rng0, targets, order, chunk)
    counts1 = _symbol_counts(circuit, compiled, y1, x, samples, rng1, targets, order, chunk)
    tv = 0.5 * np.abs(counts0 - counts1).sum(axis=1) / samples
    worst = int(np.argmax(tv)) if len(targets) else 0

    # plug-in standard error of the worst comparison's empirical TV
    if len(targets):
        p_hat = counts0[worst] / samples
        q_hat = counts1[worst] / samples
        var = (p_hat * (1 - p_hat) + q_hat * (1 - q_hat)).sum() / samples
        std_error = 0.5 * math.sqrt(var)
    else:
        std_error = 0.0
    # union Hoeffding bound over every cell of every comparison
    m = max(1, len(targets))
    delta = math.sqrt(math.log(4.0 * symbols * m / 1e-3) / (2.0 * samples))
    return AdvantageReport(
        estimate=float(tv[worst]) if len(targets) else 0.0,
        std_error=std_error,
        bias_bound=symbols * delta,
        method="per-wire-marginal" if order == 1 else "pairwise-marginal",
        samples=samples,
        details={
            "comparisons": len(targets),
            "worst": list(targets[worst]) if len(targets) else None,
            "order": order,
            "hoeffding_delta": delta,
        },
    )


def _within_block_pairs(circuit: Circuit, compiled: CompiledCircuit | None):
    """Event pairs that observe one code block within a single snapshot.

    A snapshot is a maximal gate interval in which no register of the block
    is written, so the two events sample positions of one codeword state.
    Pairs straddling a write observe two causally different block states;
    those correlate with the secret at second order by design (two leaks in
    one error-correction period are the construction's allowed failure
    mode) and belong to the transcript-level estimators, not to the
    pair-uniformity check.
    """
    if compiled is None:
        raise EvalError("order-2 marginals need a compiled target with blocks")
    reg_block: dict[int, int] = {}
    for bi, (_name, regs) in enumerate(compiled.blocks):
        for r in regs:
            reg_block[r] = bi

    window = [0] * len(compiled.blocks)
    snapshot_events: dict[tuple[int, int], list[int]] = {}
    for rid, eid in circuit.input_events.items():
        bi = reg_block.get(rid)
        if bi is not None:
            snapshot_events.setdefault((bi, 0), []).append(eid)
    for g, eids in zip(circuit.gates, circuit.gate_events):
        for port, ev in enumerate(eids):
            rid = g.args[port]
            bi = reg_block.get(rid)
            if bi is None:
                continue
            if port == g.kind.write_port:
                window[bi] += 1
            if ev not in circuit.leak_free:
                snapshot_events.setdefault((bi, window[bi]), []).append(ev)
    pairs = []
    for events in snapshot_events.values():
        events.sort()
        for i in range(len(events)):
            for j in range(i + 1, len(events)):
                pairs.append((events[i], events[j]))
    return pairs


def _symbol_counts(circuit, compiled, secret, x, samples, np_rng, targets,
                   order, chunk, group: int = 512) -> np.ndarray:
    """Counts per target of the shifted symbol codes over all samples.

    Targets are processed in groups with one flattened bincount per group
    per chunk, which keeps memory at chunk*group cells.
    """
    ncols = 3 if order == 1 else 9
    counts = np.zeros((len(targets), ncols), dtype=np.int64)
    first = np.array([t[0] for t in targets], dtype=np.int64)
    second = np.array([t[-1] for t in targets], dtype=np.int64)
    done = 0
    while done < samples:
        rows = min(chunk, samples - done)
        tapes = np_rng.integers(0, 2, size=(rows, circuit.rand_count), dtype=np.int8)
        if compiled is None:
            ev = evaluate_batch(circuit, secret, x, tapes)
        else:
            enc = encoded_secret_rows(compiled, secret, rows, np_rng)
            ev = evaluate_batch(circuit, enc, x, tapes)
        shifted = (ev + 1).astype(np.int64)  # skip=-1 -> 0
        for g0 in range(0, len(targets), group):
            g1 = min(g0 + group, len(targets))
            if order == 1:
                codes = shifted[:, first[g0:g1]]
            else:
                codes = shifted[:, first[g0:g1]] * 3 + shifted[:, second[g0:g1]]
            flat = codes + np.arange(g1 - g0, dtype=np.int64) * ncols
            counts[g0:g1] += np.bincount(
                flat.ravel(), minlength=(g1 - g0) * ncols
            ).reshape(g1 - g0, ncols)
        done += rows
    return counts
