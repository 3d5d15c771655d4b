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

A target is a raw circuit or a CompiledCircuit, and every estimator runs
one path for both: a raw circuit is an encoding of level 0, whose secret
rows are the secret itself and which draws no seed bits.  Each estimator
checks the width of its secrets once, up front.

All randomness flows from one seed: per round/sample the generator supplies
encoding seeds (none at level 0), the circuit tape, then the leak mask, in
that order, so identical (config, seed) gives identical results.
run_rounds' generator is the one Mersenne Twister stream of
random.Random(seed), replayed by NumPy's MT19937 in blocks of words and
decoded as random.Random decodes them, so each transcript is the one that
one getrandbits(1) per seed and tape bit and one random() per leakable
event would give.  Every
path evaluates its rows with circuits.evaluate_batch and reads the
resulting EventBatch bit-planes.  The marginals count symbols by popcount;
every other path unpacks only what it reads with EventBatch.matrix:
run_rounds the masked event columns, exact_tv_tiny the leakable columns,
keyed into one int per row, and mc_advantage each mask's own events over
that mask's own rows.  Both TV estimators tally a chunk of masks at once
with one per-mask grouped sum, _abs_group_sums: half the sum, over a
mask's distinct masked rows, of |count under y0 - count under y1|.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .circuits import (  # noqa: F401 - perfbench/run.py wraps lab.evaluate by name
    Circuit,
    EvalError,
    EventBatch,
    batch_outputs,
    bit_rows,
    evaluate,
    evaluate_batch,
    rows_per_batch,
)
from .compiler import CompiledCircuit, encode_seed_rows, seed_count

_METHODS = ("exact-tiny", "mask-decomposed-MC", "per-wire-marginal", "pairwise-marginal")
_MAX_EXACT_EVENTS = 24
_MAX_EXACT_TAPE = 20
_MAX_EXACT_WORK = 5 * 10 ** 7
_MASK_CHUNK_CELLS = 1 << 16
_MC_CHUNK_MASKS = 64  # masks per mc_advantage evaluation batch
_MARGINAL_CHUNK_ROWS = 1 << 14  # rows per marginal evaluation batch
_ROUNDING_SLACK = 1e-9
_DRAW_BLOCK_WORDS = 1 << 16  # 32-bit generator words per run_rounds draw block


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
        # only impossible values are refused: a TV outside [0, 1] beyond a
        # float-rounding slack, or a negative or non-finite error term
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not -_ROUNDING_SLACK <= self.estimate <= 1.0 + _ROUNDING_SLACK:
            raise ValueError(f"estimate {self.estimate} is not in [0, 1]")
        if not all(math.isfinite(v) and v >= 0.0 for v in (self.std_error, self.bias_bound)):
            raise ValueError("std_error and bias_bound must be finite and >= 0")

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


def _unpack(target, *secrets) -> tuple[Circuit, CompiledCircuit | None, int]:
    """(circuit, compiled or None, encoding level) of a target, a raw
    circuit being level 0; each of `secrets` must hold one bit per logical
    secret register."""
    if isinstance(target, CompiledCircuit):
        circuit, compiled, level = target.circuit, target, target.level
    else:
        circuit, compiled, level = target, None, 0
    width = len(circuit.secret_regs) // 7 ** level
    for secret in secrets:
        if len(secret) != width:
            raise EvalError(f"expected {width} secret bits, got {len(secret)}")
    return circuit, compiled, level


def _leakable_events(circuit: Circuit) -> list[int]:
    return [e for e in range(circuit.num_events) if e not in circuit.leak_free]


# -- round sampling ------------------------------------------------------------


def run_rounds(target, secret, inputs, model: LeakageModel,
               seed: int) -> list[LeakTranscript]:
    """One transcript per public input: fresh tape, evaluate, sample mask.

    Leak-free events are never eligible for the mask.  Per round the seeded
    generator draws the encoding seeds, then the tape, then one uniform per
    leakable event for the mask, so fixed seeds give identical transcripts;
    the rounds are then evaluated together in chunks.  The generator is
    random.Random(seed)'s Mersenne Twister stream, replayed by a NumPy
    MT19937 and drawn in blocks of at most _DRAW_BLOCK_WORDS words (or one
    round), so every transcript equals one drawn bit by bit with
    getrandbits(1) and random().
    """
    circuit, _, level = _unpack(target, secret)
    gen = _python_mt(seed)
    leakable = np.array(_leakable_events(circuit), dtype=np.int64)
    enc_bits = seed_count(len(secret), level)
    out = []
    inputs, step = list(inputs), rows_per_batch(circuit)
    for lo in range(0, len(inputs), step):
        xs = [[int(b) & 1 for b in x] for x in inputs[lo:lo + step]]
        bits, rows, cols = _draw_rounds(gen, len(xs), enc_bits + circuit.rand_count,
                                        leakable.size, model.p)
        events = evaluate_batch(circuit, encode_seed_rows(secret, bits[:, :enc_bits], level),
                                xs, bits[:, enc_bits:])
        outputs = batch_outputs(circuit, events).tolist()
        # hit j leaks event leakable[cols[j]] in round rows[j]; the hits come
        # row by row, each row's in ascending event order
        used, slot = np.unique(cols, return_inverse=True)
        leaked = events.matrix(leakable[used])[rows, slot].tolist()
        hits = leakable[cols].tolist()
        ends = np.cumsum(np.bincount(rows, minlength=len(xs))).tolist()
        for i, (start, end) in enumerate(zip([0] + ends, ends)):
            mask = tuple(hits[start:end])
            values = {e: None if v < 0 else v for e, v in zip(mask, leaked[start:end])}
            output = {r.name: v for r, v in zip(circuit.output_regs, outputs[i])}
            out.append(LeakTranscript(lo + i, mask, values, output))
    return out


def _python_mt(seed) -> np.random.MT19937:
    """A NumPy MT19937 in the exact state of random.Random(seed): its
    624-word key and position, so random_raw yields the 32-bit words that
    the Random would consume next, for every seed Random accepts."""
    state = random.Random(seed).getstate()[1]
    gen = np.random.MT19937(0)
    gen.state = {"bit_generator": "MT19937",
                 "state": {"key": np.array(state[:624], dtype=np.uint32), "pos": state[624]}}
    return gen


def _draw_rounds(gen: np.random.MT19937, rows: int, nbits: int, nuni: int, p: float):
    """Per round, `nbits` random bits then `nuni` uniforms u, each tested
    u < p; returns the (rows, nbits) int8 bits and the (round, uniform)
    index pairs of the hits, in row-major order.

    The words are decoded as random.Random decodes them: getrandbits(1) is
    a word's top bit and random() is k / 2**53 for the integer
    k = (a >> 5) * 2**26 + (b >> 6) of two consecutive words a, b.  So
    u < p exactly when k < ceil(p * 2**53), and since k's top 27 bits are
    a >> 5, only a word a below `near` can start a hit: k is built for
    those alone.  Rounds are drawn _DRAW_BLOCK_WORDS words at a time, or
    one round when a round is wider, so the draw memory does not grow with
    `rows`.
    """
    width = nbits + 2 * nuni
    per_block = max(1, _DRAW_BLOCK_WORDS // max(1, width))
    limit = math.ceil(p * 2.0 ** 53)  # p * 2**53 is exact: a power-of-two scaling
    near = ((limit >> 26) + 1) << 5
    bits = np.empty((rows, nbits), dtype=np.int8)
    hit_rows, hit_cols = [], []
    for lo in range(0, rows, per_block):
        raw = gen.random_raw((min(per_block, rows - lo), width))
        bits[lo:lo + len(raw)] = raw[:, :nbits] >> 31
        a, b = raw[:, nbits::2], raw[:, nbits + 1::2]
        r, c = np.nonzero(a < near)
        hit = (a[r, c] >> 5) * 67108864 + (b[r, c] >> 6) < limit
        hit_rows.append(r[hit] + lo)
        hit_cols.append(c[hit])
    return bits, np.concatenate(hit_rows), np.concatenate(hit_cols)


# -- exact tiny oracle -----------------------------------------------------------


def exact_tv_tiny(target, y0, y1, x, model: LeakageModel) -> AdvantageReport:
    """Exact transcript TV between two secrets at fixed x, tiny circuits only.

    The mask distribution is secret-independent, so the transcript TV
    decomposes as the mask-weighted sum of masked-value TVs; the seed x
    tape rows (no seeds for a raw circuit) and the masks are both enumerated.
    Each secret's seed x tape rows are evaluated in one batch and each row
    is keyed by one int over its leakable events; per chunk of masks,
    _abs_group_sums groups each mask's projected keys, each weighing its
    count under y0 minus its count under y1.
    """
    circuit, _, level = _unpack(target, y0, y1)
    leakable = _leakable_events(circuit)
    n = len(leakable)
    enc_bits = seed_count(len(y0), level)
    total_tape = circuit.rand_count + enc_bits
    if n > _MAX_EXACT_EVENTS:
        raise EvalError(f"size guard exceeded: {n} leakable events (max {_MAX_EXACT_EVENTS})")
    if total_tape > _MAX_EXACT_TAPE:
        raise EvalError(f"size guard exceeded: {total_tape} tape bits (max {_MAX_EXACT_TAPE})")

    bits = bit_rows(total_tape)  # seed columns, then tape columns
    rows = len(bits)
    # bit j of a row's key is event j's value and bit n + j says it ran
    place = np.int64(1) << np.arange(2 * n, dtype=np.int64)
    keys = []
    for s in (y0, y1):
        values = evaluate_batch(circuit, encode_seed_rows(s, bits[:, :enc_bits], level), x,
                                bits[:, enc_bits:]).matrix(leakable)
        keys.append(np.concatenate([values > 0, values >= 0], axis=1) @ place)
    distinct, codes = np.unique(np.concatenate(keys), return_inverse=True)
    m = len(distinct)
    if (2 ** n) * m > _MAX_EXACT_WORK:
        raise EvalError("size guard exceeded: mask enumeration too large")
    diff = np.bincount(codes[:rows], minlength=m) - np.bincount(codes[rows:], minlength=m)

    # Every projected probability is a multiple of 1/rows with rows = 2^T,
    # so each mask's inner TV is exact whatever the summation order; only
    # the weighted sum rounds, and it runs in ascending mask order.  Masks go
    # _MASK_CHUNK_CELLS mask-key cells (a few MB) or one mask at a time.
    p = model.p
    weights = np.array([(p ** k) * ((1 - p) ** (n - k)) for k in range(n + 1)])
    step = max(1, _MASK_CHUNK_CELLS // m)
    tv = 0.0
    for lo in range(0, 1 << n, step):
        masks = np.arange(lo, min(lo + step, 1 << n), dtype=np.int64)
        # a key's projection under mask M is key & (M | M << n)
        groups = _abs_group_sums(distinct & (masks | masks << n)[:, None], diff)
        w = weights[np.bitwise_count(masks)]
        terms = w * (0.5 * (groups / rows))
        # cumsum adds left to right, as `tv += term` over the masks would
        tv = float(np.cumsum(np.concatenate(([tv], terms[w != 0.0])))[-1])
    # the mask weights sum to 1, so a sum past 1 is rounding (up to ~2e-13
    # when every leaking mask has TV 1)
    tv = min(tv, 1.0)
    return AdvantageReport(
        estimate=tv, std_error=0.0, bias_bound=0.0, method="exact-tiny",
        samples=2 ** total_tape,
        details={"leakable_events": n, "tape_bits": total_tape, "p": p},
    )


def _abs_group_sums(keys: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per row of the (k, cells) `keys` (int64 or void), the sum over its
    distinct keys of |sum of `weights` over the cells holding that key|;
    `weights` holds one weight per column, shared by every row.  Each row
    is sorted on its own, so keys of different rows are never compared."""
    order = np.argsort(keys, axis=1)
    sorted_keys = np.take_along_axis(keys, order, axis=1)
    starts = np.ones(keys.shape, dtype=bool)
    starts[:, 1:] = sorted_keys[:, 1:] != sorted_keys[:, :-1]
    starts = np.flatnonzero(starts)
    groups = np.abs(np.add.reduceat(weights[order].ravel(), starts))
    return np.add.reduceat(groups, np.flatnonzero(starts % keys.shape[1] == 0))


# -- Monte-Carlo mask-decomposition estimator -------------------------------------


def mc_advantage(target, y0, y1, x, model: LeakageModel, samples: int, seed: int,
                 inner: int = 256) -> AdvantageReport:
    """Sampled-mask estimator of the transcript TV.

    Masks are drawn from the secret-independent leak distribution; for each
    mask the masked-value TV is estimated from `inner` fresh tapes per
    secret, paired through common random numbers so identically distributed
    wires contribute exact zeros.  The inner empirical TV is biased upward
    by at most ~sqrt(support/inner); the reported bias bound is the mean of
    the per-mask bounds min(1, sqrt(min(3^|w|, 2*inner)/inner)), and the
    std-error is a 200-resample bootstrap over the per-mask estimates.

    Masks are evaluated _MC_CHUNK_MASKS at a time, mask j of a chunk on
    rows j*inner .. (j+1)*inner - 1.  One EventBatch.matrix call per secret
    cuts each non-empty mask's events over that mask's rows from the
    bit-planes, into one (masks, inner, max |w|) stack, and one
    _empirical_tv call tallies the chunk; an empty mask leaks nothing and
    scores 0 with bound 0.
    """
    if samples < 10 ** 3:
        raise ValueError("need at least 1000 samples")
    if inner < 1:
        raise ValueError("need at least 1 inner tape per mask")
    circuit, _, level = _unpack(target, y0, y1)
    leakable = np.array(_leakable_events(circuit), dtype=np.int64)
    rng = random.Random(seed)
    np_rng = np.random.default_rng(rng.getrandbits(64))

    tvs = np.zeros(samples)
    biases = np.zeros(samples)  # empty masks leak nothing: TV and bound stay 0
    pos = 0
    while pos < samples:
        m = min(_MC_CHUNK_MASKS, samples - pos)
        ev0, ev1 = _paired_event_batches(target, y0, y1, x, m * inner, np_rng)
        masks = np_rng.random((m, leakable.size)) < model.p
        widths = masks.sum(axis=1)
        used = np.flatnonzero(widths)
        if used.size:
            # cell j is event col[j] of the owner[j]-th used mask, which is
            # column slot[j] of that mask's stack entry and reads its rows
            owner, col = np.nonzero(masks[used])
            sizes = widths[used]
            slot = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            events, starts = leakable[col], used[owner] * inner
            # a narrower mask's spare columns hold 0 in all its rows, which
            # changes none of its row groups
            a, b = np.zeros((2, used.size, inner, int(sizes.max())), dtype=np.int8)
            a[owner, :, slot] = ev0.matrix(events, starts, inner).T
            b[owner, :, slot] = ev1.matrix(events, starts, inner).T
            tvs[pos + used] = _empirical_tv(a, b)
            # an int 3 ** w: the float 3.0 ** w overflows past 646 events
            biases[pos + used] = [min(1.0, math.sqrt(min(3 ** w, 2 * inner) / inner))
                                  for w in sizes.tolist()]
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


def _paired_event_batches(target, y0, y1, x, rows, np_rng):
    """Event batches for both secrets from one tape/seed batch (CRN)."""
    circuit, _, level = _unpack(target)
    tapes = np_rng.integers(0, 2, size=(rows, circuit.rand_count), dtype=np.int8)
    enc0 = encoded_secret_rows(target, y0, rows, np_rng)
    if level < 2:
        # same seed rows, other secret: enc(y, s) = enc(0, s) ^ enc(y, 0) at
        # every level, so y1 adds enc(y0 ^ y1, 0); level 2 draws y1's own
        # seeds only so that its seeded MC reports stay byte-identical
        diff = [(int(a) ^ int(b)) & 1 for a, b in zip(y0, y1)]
        zeros = np.zeros((1, seed_count(len(diff), level)), dtype=np.int8)
        enc1 = enc0 ^ encode_seed_rows(diff, zeros, level)
    else:
        enc1 = encoded_secret_rows(target, y1, rows, np_rng)
    return evaluate_batch(circuit, enc0, x, tapes), evaluate_batch(circuit, enc1, x, tapes)


def encoded_secret_rows(target, secret, rows: int, np_rng) -> np.ndarray:
    """Fresh per-row encodings of the secret at the target's level, ready
    to be passed to evaluate_batch as the per-row secret matrix.  A raw
    circuit (level 0) gets the secret itself and draws no seed bits, which
    leaves `np_rng` untouched."""
    level = _unpack(target)[2]
    seeds = np_rng.integers(0, 2, size=(rows, seed_count(len(secret), level)))
    return encode_seed_rows(secret, seeds, level)


def _empirical_tv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per mask of two (masks, rows, w) stacks, the TV between its two
    samples' row distributions: each row is one void key, a's weighing +1
    and b's -1, and the TV is _abs_group_sums / (2 * rows)."""
    k, n, w = a.shape
    keyed = np.zeros((k, 2 * n, max(w, 1)), dtype=np.int8)  # a void key needs a byte
    keyed[:, :n, :w], keyed[:, n:, :w] = a, b
    keys = keyed.view(np.dtype((np.void, keyed.shape[2])))[..., 0]
    return 0.5 * _abs_group_sums(keys, np.repeat([1, -1], n)) / n


# -- marginal distinguishers -------------------------------------------------------


def marginal_independence(target, y0, y1, x, order: int, samples: int,
                          seed: int) -> AdvantageReport:
    """Best single-event (order 1) or within-block pair (order 2) TV.

    Counts are exact per cell over `samples` independently drawn tapes per
    secret.  The bias bound is a union Hoeffding bound at level 1e-3 over
    all comparisons, so "max TV <= 3*std_error + bias_bound" is a calibrated
    consistency-with-zero test when the true marginals coincide.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if samples < 1:
        raise ValueError("need at least 1 sample")
    circuit, compiled, _ = _unpack(target, y0, y1)
    rng = random.Random(seed)
    rng0 = np.random.default_rng(rng.getrandbits(64))
    rng1 = np.random.default_rng(rng.getrandbits(64))

    if order == 1:
        targets = [(e,) for e in _leakable_events(circuit)]
        symbols = 3
    else:
        targets = _within_block_pairs(circuit, compiled)
        symbols = 9

    counts0 = _symbol_counts(target, y0, x, samples, rng0, targets, order)
    counts1 = _symbol_counts(target, y1, x, samples, rng1, targets, order)
    tv = 0.5 * np.abs(counts0 - counts1).sum(axis=1) / samples
    estimate, std_error, worst = 0.0, 0.0, None
    if len(targets):
        i = int(np.argmax(tv))
        estimate, worst = float(tv[i]), list(targets[i])
        # plug-in standard error of the worst comparison's empirical TV
        p_hat, q_hat = counts0[i] / samples, counts1[i] / samples
        var = (p_hat * (1 - p_hat) + q_hat * (1 - q_hat)).sum() / samples
        std_error = 0.5 * math.sqrt(var)
    # union Hoeffding bound over every cell of every comparison
    m = max(1, len(targets))
    delta = math.sqrt(math.log(4.0 * symbols * m / 1e-3) / (2.0 * samples))
    return AdvantageReport(
        estimate=estimate,
        std_error=std_error,
        bias_bound=symbols * delta,
        method="per-wire-marginal" if order == 1 else "pairwise-marginal",
        samples=samples,
        details={
            "comparisons": len(targets),
            "worst": worst,
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


def _symbol_counts(target, secret, x, samples, np_rng, targets, order) -> np.ndarray:
    """Counts per target of each symbol over all samples, evaluated in
    batches of _MARGINAL_CHUNK_ROWS rows (see `_plane_counts`)."""
    circuit = _unpack(target)[0]
    counts = np.zeros((len(targets), 3 if order == 1 else 9), dtype=np.int64)
    done = 0
    while done < samples:
        rows = min(_MARGINAL_CHUNK_ROWS, samples - done)
        tapes = np_rng.integers(0, 2, size=(rows, circuit.rand_count), dtype=np.int8)
        enc = encoded_secret_rows(target, secret, rows, np_rng)
        counts += _plane_counts(evaluate_batch(circuit, enc, x, tapes), targets, order)
        done += rows
    return counts


def _plane_counts(events: EventBatch, targets, order: int) -> np.ndarray:
    """Per target, the number of rows showing each symbol, by popcount.

    A symbol is an event value v in {-1, 0, 1} (-1 = skipped), counted in
    column v + 1; an order-2 symbol codes the pair (a, b) as (a + 1) * 3 + b,
    counted in column (a + 1) * 3 + b + 1.  An event's symbol planes are
    its skipped rows (full ^ presence), its present zeros and its ones.
    """
    full, rows = events.full, events.rows
    if order == 1:
        first = [e for (e,) in targets]

        def popcounts(planes):
            return np.fromiter(map(int.bit_count, map(planes.__getitem__, first)),
                               dtype=np.int64, count=len(first))

        ones, ran = popcounts(events.values), popcounts(events.presence)
        return np.stack([rows - ran, ran - ones, ones], axis=1)

    planes = {e: (full ^ events.presence[e], events.presence[e] ^ events.values[e],
                  events.values[e]) for e in {e for pair in targets for e in pair}}
    out = [[(sa & sb).bit_count() for sa in planes[a] for sb in planes[b]]
           for a, b in targets]
    return np.array(out, dtype=np.int64).reshape(len(targets), 9)
