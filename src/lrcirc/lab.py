"""Adversary-side laboratory: independent leakage, transcripts, advantage.

Each event in circuit.leakable leaks independently with probability p; a
round's transcript is the leaked set, the leaked values (null for events of
skipped conditioned gates) and the decoded output.  Distinguishing power
between two secrets at a fixed public input is measured three ways:

* exact_tv_tiny enumerates tapes and leak-class subsets outright (tiny
  circuits only),
* mc_advantage samples masks and estimates the per-mask value-distribution
  TV from paired tape samples, reporting an explicit upward-bias bound for
  the inner empirical TV,
* marginal_independence bounds the best single-event (or within-snapshot
  pair, CompiledCircuit.snapshot_pairs) distinguisher, which is where the
  codeword pair-uniformity does its work.

A target is a raw circuit or a CompiledCircuit, and every estimator runs
one path for both: a raw circuit is an encoding of level 0, whose secret
rows are the secret itself and which draws no seed bits.  Each estimator
checks the width of its secrets once, up front.

All randomness flows from one seed: per round/sample the generator supplies
encoding seeds (none at level 0), the circuit tape, then the leak mask, in
that order, so identical (config, seed) gives identical results.  Each
estimator seeds its NumPy Generators with random.Random(seed).getrandbits(64)
calls.  mc_advantage draws a chunk's [seed | tape] bits, then its masks;
the marginals draw bits alone, from one generator per secret.  Both draw
a chunk's bits straight into bit-planes (_draw_planes): one Generator.bytes
call of ceil(rows / 8) bytes per column, column after column, seed columns
first.  Byte b of a column holds its rows 8b .. 8b + 7, row 8b + k in bit k,
so the column's plane is the bytes read as one little-endian int, and the
bits past the chunk's last row are dropped: the draw is masked as one
(columns, bytes) array and read in one int.from_bytes pass.  run_rounds
takes one row of uniforms u per round: a seed or tape bit is u < 0.5 and a
leakable event leaks when u < p; it and exact_tv_tiny (which enumerates the
rows) pack their int8 bit rows into planes once.

Every path evaluates its [seed | tape] bit-planes with _evaluate_rows,
which encodes the secret on the seed planes (compiler.encode_seed_planes)
and passes the result and the tape planes to circuits.evaluate_batch, and
reads the resulting EventBatch bit-planes, one per value slot of the
circuit's ValueProgram; two secrets evaluated on one set of planes share
every seed and tape bit.  The marginals count symbols by popcount: each
slot the counted events read is popcounted once (_event_counts), order 1
counts one event per distinct slot (_one_event_per_slot) for all the
events that share it, and an order-2 pair of unconditioned events takes
one AND-popcount.  Every other
path unpacks only what it reads with EventBatch.matrix: run_rounds the
masked event columns, exact_tv_tiny the leakable columns, keyed into one
int per row, and mc_advantage each mask's own events over that mask's own
rows, keyed into one int64 per row with a rank fold (_empirical_tv).  Both TV
estimators tally with one grouped sum per row of int64 keys,
_abs_group_sums: the sum, over a row's distinct keys, of |count under y0 -
count under y1|, which is twice a mask's masked-value TV times the row
count.  mc_advantage runs it once per sampled mask.  exact_tv_tiny runs it
once per subset of leak classes (_leak_classes), not per mask: events
that split the distinct keys alike share a class, so a mask's grouping
depends only on the set of classes it hits, and each subset is weighed
by the closed-form probability that it is the set hit.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from itertools import compress, repeat

import numpy as np

from .circuits import (  # noqa: F401 - perfbench/run.py wraps lab.evaluate by name
    Circuit,
    EvalError,
    EventBatch,
    Planes,
    batch_outputs,
    bit_rows,
    evaluate,
    evaluate_batch,
    rows_per_batch,
)
from .compiler import CompiledCircuit, encode_seed_planes, seed_count

_METHODS = ("exact-tiny", "mask-decomposed-MC", "per-wire-marginal", "pairwise-marginal")
_MAX_EXACT_EVENTS = 24
_MAX_EXACT_TAPE = 20
_MAX_EXACT_WORK = 5 * 10 ** 7
_MASK_CHUNK_CELLS = 1 << 16
_MC_CHUNK_MASKS = 64  # masks per mc_advantage evaluation batch
_MARGINAL_CHUNK_ROWS = 1 << 14  # rows per marginal evaluation batch
_ROUNDING_SLACK = 1e-9
_DRAW_BLOCK_CELLS = 1 << 16  # uniforms per run_rounds draw block


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


def _evaluate_rows(circuit: Circuit, level: int, secret, x, bits: Planes) -> EventBatch:
    """Evaluate each row of the bit-planes `bits` under `secret` and input
    x: a row holds the secret's seed_count encoding-seed columns (none at
    level 0), then the circuit's tape columns.  The secret is encoded on
    the seed planes and the tape planes go to evaluate_batch as they are,
    so two secrets evaluated on one `bits` share every seed and tape bit."""
    enc_bits = seed_count(len(secret), level)
    words = encode_seed_planes(secret, bits.planes[:enc_bits], level, bits.rows)
    return evaluate_batch(circuit, Planes(bits.rows, words), x,
                          Planes(bits.rows, bits.planes[enc_bits:]))


def _draw_planes(np_rng, rows: int, width: int) -> Planes:
    """`width` columns of `rows` uniform bits, from one np_rng.bytes draw of
    ceil(rows / 8) bytes per column, column after column.  Byte b of a
    column holds its rows 8b .. 8b + 7, row 8b + k in bit k (a
    little-endian int).  The draw is viewed as a (width, nbytes) byte
    array; when rows is not a multiple of 8 the bits past the last row are
    cleared in its last byte column, and then one map(int.from_bytes, ..)
    pass over its rows, each one V{nbytes} item, reads every plane.  No
    columns draw nothing."""
    if not width:
        return Planes(rows, ())
    nbytes = (rows + 7) // 8
    cols = np.frombuffer(np_rng.bytes(nbytes * width), dtype=np.uint8).reshape(width, nbytes)
    if rows % 8:
        cols = cols.copy()  # the drawn buffer is read-only
        cols[:, -1] &= (1 << rows % 8) - 1
    return Planes(rows, tuple(map(int.from_bytes, cols.view(f"V{nbytes}").ravel().tolist(),
                                  repeat("little"))))


def encoded_secret_rows(target, secret, rows: int, np_rng) -> np.ndarray:
    """Fresh per-row encodings of the secret at the target's level, ready
    to be passed to evaluate_batch as the per-row secret matrix.  A raw
    circuit (level 0) gets the secret itself and draws no seed bits, which
    leaves `np_rng` untouched.  For callers outside the estimators, which
    encode their own seed columns in _evaluate_rows."""
    level = _unpack(target, secret)[2]
    seeds = Planes.pack(np_rng.integers(0, 2, size=(rows, seed_count(len(secret), level))))
    return Planes(rows, encode_seed_planes(secret, seeds.planes, level, rows)).unpack()


# -- round sampling ------------------------------------------------------------


def run_rounds(target, secret, inputs, model: LeakageModel,
               seed: int) -> list[LeakTranscript]:
    """One transcript per public input: fresh tape, evaluate, sample mask.

    Leak-free events are never eligible for the mask.  The generator is
    seeded as mc_advantage's is, and each round takes one row of uniforms
    from it: one per encoding-seed bit, then one per tape bit, then one per
    leakable event for the mask.  The rows are drawn in order, so each
    transcript is a function of (target, secret, inputs, p, seed) alone,
    whatever the draw blocks and evaluation chunks.
    """
    circuit, _, level = _unpack(target, secret)
    gen = np.random.default_rng(random.Random(seed).getrandbits(64))
    width = seed_count(len(secret), level) + circuit.rand_count
    out = []
    inputs, step = list(inputs), rows_per_batch(circuit)
    for lo in range(0, len(inputs), step):
        xs = [[int(b) & 1 for b in x] for x in inputs[lo:lo + step]]
        bits, rows, cols = _draw_rounds(gen, len(xs), width, circuit.leakable.size, model.p)
        events = _evaluate_rows(circuit, level, secret, xs, Planes.pack(bits))
        outputs = batch_outputs(circuit, events).tolist()
        # hit j leaks event circuit.leakable[cols[j]] in round rows[j]; the
        # hits come row by row, each row's in ascending event order
        used, slot = np.unique(cols, return_inverse=True)
        leaked = events.matrix(circuit.leakable[used])[rows, slot].tolist()
        hits = circuit.leakable[cols].tolist()
        ends = np.cumsum(np.bincount(rows, minlength=len(xs))).tolist()
        for i, (start, end) in enumerate(zip([0] + ends, ends)):
            mask = tuple(hits[start:end])
            values = {e: None if v < 0 else v for e, v in zip(mask, leaked[start:end])}
            output = {r.name: v for r, v in zip(circuit.output_regs, outputs[i])}
            out.append(LeakTranscript(lo + i, mask, values, output))
    return out


def _draw_rounds(gen: np.random.Generator, rows: int, nbits: int, nuni: int, p: float):
    """Per round, one row of `nbits` + `nuni` uniforms u: the first `nbits`
    are the bits u < 0.5 and the rest are hits when u < p.  Returns the
    (rows, nbits) int8 bits and the (round, uniform) index pairs of the
    hits, in row-major order.  Rounds are drawn _DRAW_BLOCK_CELLS uniforms
    at a time, or one round when a round is wider, so the draw memory does
    not grow with `rows`; gen.random fills row by row, so the blocks do not
    change the draw.
    """
    width = nbits + nuni
    per_block = max(1, _DRAW_BLOCK_CELLS // max(1, width))
    bits = np.empty((rows, nbits), dtype=np.int8)
    hit_rows, hit_cols = [], []
    for lo in range(0, rows, per_block):
        u = gen.random((min(per_block, rows - lo), width))
        bits[lo:lo + len(u)] = u[:, :nbits] < 0.5
        r, c = np.divmod(np.flatnonzero(u[:, nbits:] < p), nuni)
        hit_rows.append(r + lo)
        hit_cols.append(c)
    return bits, np.concatenate(hit_rows), np.concatenate(hit_cols)


# -- exact tiny oracle -----------------------------------------------------------


def exact_tv_tiny(target, y0, y1, x, model: LeakageModel) -> AdvantageReport:
    """Exact transcript TV between two secrets at fixed x, tiny circuits only.

    The mask distribution is secret-independent, so the transcript TV
    decomposes as the mask-weighted sum of masked-value TVs.  The seed x
    tape rows (no seeds for a raw circuit) are enumerated: each secret's
    rows are evaluated in one batch and each row is keyed by one int over
    its leakable events, each distinct key weighing its count under y0
    minus its count under y1.

    A mask's masked-value TV depends only on how it splits the distinct
    keys, so the events are sorted into leak classes (_leak_classes):
    events that split the keys alike share a class, and an event that
    splits nothing has none.  A mask's TV is then that of the subset S of
    the C classes it hits, and S is hit with probability P(S), the product
    over the classes of 1 - (1 - p)^c for each class of c events in S and
    (1 - p)^c for each one outside it.  So the TV is the sum over the 2^C
    subsets of P(S) times S's TV, from one _abs_group_sums grouping per
    subset on one event per class.  The size guards still count the 2^n x
    m work of grouping every mask on its own.  details["leak_classes"]
    gives C.
    """
    circuit, _, level = _unpack(target, y0, y1)
    n = circuit.leakable.size
    total_tape = seed_count(len(y0), level) + circuit.rand_count
    if n > _MAX_EXACT_EVENTS:
        raise EvalError(f"size guard exceeded: {n} leakable events (max {_MAX_EXACT_EVENTS})")
    if total_tape > _MAX_EXACT_TAPE:
        raise EvalError(f"size guard exceeded: {total_tape} tape bits (max {_MAX_EXACT_TAPE})")

    bits = Planes.pack(bit_rows(total_tape))  # seed columns, then tape columns
    rows = bits.rows
    # bit j of a row's key is event j's value and bit n + j says it ran
    place = np.int64(1) << np.arange(2 * n, dtype=np.int64)
    keys = []
    for s in (y0, y1):
        values = _evaluate_rows(circuit, level, s, x, bits).matrix(circuit.leakable)
        keys.append(np.concatenate([values > 0, values >= 0], axis=1) @ place)
    distinct, codes = np.unique(np.concatenate(keys), return_inverse=True)
    m = len(distinct)
    if (2 ** n) * m > _MAX_EXACT_WORK:
        raise EvalError("size guard exceeded: mask enumeration too large")
    diff = np.bincount(codes[:rows], minlength=m) - np.bincount(codes[rows:], minlength=m)

    # per class of c events, quiet = (1 - p)^c and hit = 1 - quiet, through
    # log1p and expm1 to stay accurate at small p; p = 1 takes log 0 = -inf.
    # Scalar math on the few classes: NumPy's exp, expm1 and negative loops
    # would map about 0.4 MB more of its library on first use.
    reps, sizes = _leak_classes(distinct, n)
    p = model.p
    log_1mp = math.log1p(-p) if p < 1 else -math.inf
    log_quiet = [c * log_1mp for c in sizes.tolist()]
    quiet = np.array([math.exp(v) for v in log_quiet])
    hit = np.array([-math.expm1(v) for v in log_quiet])
    rep_key = (np.int64(1) << reps) | (np.int64(1) << (reps + n))
    # One grouped sum per subset S, keyed on each class's representative
    # event: a key's projection on S is key & (inside @ rep_key), the
    # classes' key bits being disjoint.  Subsets go _MASK_CHUNK_CELLS
    # subset-key cells (a few MB) or one subset at a time.  Every projected
    # probability is a multiple of 1/rows with rows = 2^T, so each inner TV
    # is exact; fsum rounds the weighted sum once, whatever the chunks.
    terms = np.empty(1 << len(reps))
    step = max(1, _MASK_CHUNK_CELLS // m)
    for lo in range(0, len(terms), step):
        subsets = np.arange(lo, min(lo + step, len(terms)))
        inside = (subsets[:, None] >> np.arange(len(reps)) & 1).astype(bool)
        sums = _abs_group_sums(distinct & (inside @ rep_key)[:, None], diff)
        terms[subsets] = np.where(inside, hit, quiet).prod(axis=1) * (0.5 * sums / rows)
    # the subset probabilities sum to 1, so a sum past 1 is rounding
    tv = min(math.fsum(terms), 1.0)
    return AdvantageReport(
        estimate=tv, std_error=0.0, bias_bound=0.0, method="exact-tiny",
        samples=2 ** total_tape,
        details={"leakable_events": n, "tape_bits": total_tape, "p": p,
                 "leak_classes": len(reps)},
    )


def _leak_classes(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Leak classes of the n events keyed in the distinct int64 `keys` (bit
    j an event's value, bit n + j that it ran).

    Event j's column holds its symbol in each key, 0 (skipped), 1 (ran, 0)
    or 2 (ran, 1), relabelled in order of first appearance.  Events with
    equal relabelled columns split the keys alike and share a class; a
    column of one symbol splits nothing and gets none.  Returns per class
    one of its events and its event count."""
    j = np.arange(n, dtype=np.int64)
    symbols = (keys[:, None] >> j & 1) + (keys[:, None] >> (j + n) & 1)
    seen = symbols == np.arange(3)[:, None, None]
    first = np.where(seen.any(axis=1), seen.argmax(axis=1), len(keys))
    # label[s, j]: how many of column j's symbols appear before symbol s
    label = (first[None] < first[:, None]).sum(axis=1)
    columns = label[symbols, j].T
    split = np.flatnonzero(columns.any(axis=1))
    _, first_event, cls = np.unique(columns[split], axis=0, return_index=True,
                                    return_inverse=True)
    return split[first_event], np.bincount(cls.ravel())


def _abs_group_sums(keys: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per row of the (k, cells) int64 `keys`, the sum over its distinct
    keys of |sum of `weights` over the cells holding that key|; `weights`
    holds one weight per column, shared by every row.  Each row is sorted
    on its own, so keys of different rows are never compared."""
    order, starts = _sorted_runs(keys)
    starts = np.flatnonzero(starts)
    groups = np.abs(np.add.reduceat(weights[order].ravel(), starts))
    return np.add.reduceat(groups, np.flatnonzero(starts % keys.shape[1] == 0))


def _sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (k, cells) `keys`, its argsort, and a bool (k, cells)
    array that marks, in sorted order, each cell whose key differs from the
    one before it (every row's first cell included)."""
    order = np.argsort(keys, axis=1)
    sorted_keys = np.take_along_axis(keys, order, axis=1)
    starts = np.ones(keys.shape, dtype=bool)
    starts[:, 1:] = sorted_keys[:, 1:] != sorted_keys[:, :-1]
    return order, starts


# -- Monte-Carlo mask-decomposition estimator -------------------------------------


def mc_advantage(target, y0, y1, x, model: LeakageModel, samples: int, seed: int,
                 inner: int = 256) -> AdvantageReport:
    """Sampled-mask estimator of the transcript TV.

    Masks are drawn from the secret-independent leak distribution; for each
    mask the masked-value TV is estimated from `inner` fresh [seed | tape]
    rows, evaluated under both secrets (common random numbers), so
    identically distributed wires contribute exact zeros and a same-secret
    run reads exactly 0 at every level.  The inner empirical TV is biased
    upward by at most ~sqrt(support/inner); the reported bias bound is the
    mean of the per-mask bounds min(1, sqrt(min(3^|w|, 2*inner)/inner)), and
    the std-error is a 200-resample bootstrap over the per-mask estimates.

    Masks are evaluated _MC_CHUNK_MASKS at a time, mask j of a chunk on
    rows j*inner .. (j+1)*inner - 1 of the chunk's drawn bit-planes
    (_draw_planes).  One EventBatch.matrix call per secret cuts each
    non-empty mask's events over that mask's rows from the event planes,
    into one (masks, inner, max |w|) stack, and one _empirical_tv call
    tallies the chunk on one int64 key per row, with a rank fold for wide
    masks; an empty mask leaks nothing and scores 0 with bound 0.
    `details` counts the empty masks, the masks whose bound is 1 and
    the rows evaluated under both secrets, 2 * samples * inner.
    """
    if samples < 10 ** 3:
        raise ValueError("need at least 1000 samples")
    if inner < 1:
        raise ValueError("need at least 1 inner tape per mask")
    circuit, _, level = _unpack(target, y0, y1)
    leakable = circuit.leakable
    width = seed_count(len(y0), level) + circuit.rand_count
    np_rng = np.random.default_rng(random.Random(seed).getrandbits(64))

    tvs = np.zeros(samples)
    biases = np.zeros(samples)  # empty masks leak nothing: TV and bound stay 0
    pos = empty = 0
    while pos < samples:
        m = min(_MC_CHUNK_MASKS, samples - pos)
        bits = _draw_planes(np_rng, m * inner, width)
        ev0, ev1 = (_evaluate_rows(circuit, level, y, x, bits) for y in (y0, y1))
        masks = np_rng.random((m, leakable.size)) < model.p
        widths = masks.sum(axis=1)
        used = np.flatnonzero(widths)
        empty += m - used.size
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
                 "bootstrap_resamples": 200,
                 "empty_masks": empty,
                 "saturated_masks": int(np.count_nonzero(biases == 1.0)),
                 "rows_evaluated": 2 * samples * inner},
    )


def _empirical_tv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per mask of two (masks, rows, w) stacks, the TV between its two
    samples' row distributions: each row is one int64 key, a's weighing +1
    and b's -1, and the TV is _abs_group_sums / (2 * rows).

    A row's key appends each symbol v as the base-3 digit v + 1.  After
    every D digits (_digits_per_pass), each key is replaced by its dense
    rank among its mask's 2 * rows keys (_dense_ranks), which keeps the
    rows' grouping, so one key stays exact at any width."""
    k, n, w = a.shape
    digits = np.concatenate([a, b], axis=1) + np.int8(1)
    keys = np.zeros((k, 2 * n), dtype=np.int64)
    step = _digits_per_pass(n)
    for j in range(w):
        if j and j % step == 0:
            keys = _dense_ranks(keys)
        keys *= 3
        keys += digits[..., j]
    return 0.5 * _abs_group_sums(keys, np.repeat([1, -1], n)) / n


def _digits_per_pass(n: int) -> int:
    """The largest D with 2n * 3^D < 2^63: a dense rank among the 2n rows of
    two n-row samples followed by D base-3 digits fits one int64 key."""
    d = 0
    while 2 * n * 3 ** (d + 1) < 1 << 63:
        d += 1
    return d


def _dense_ranks(keys: np.ndarray) -> np.ndarray:
    """Each key's rank among the distinct keys of its row of `keys`."""
    order, starts = _sorted_runs(keys)
    ranks = np.empty_like(keys)
    np.put_along_axis(ranks, order, np.cumsum(starts, axis=1) - 1, axis=1)
    return ranks


# -- marginal distinguishers -------------------------------------------------------


def marginal_independence(target, y0, y1, x, order: int, samples: int,
                          seed: int) -> AdvantageReport:
    """Best single-event (order 1) or within-snapshot pair (order 2) TV.

    Counts are exact per cell over `samples` independently drawn tapes per
    secret.  The bias bound is a union Hoeffding bound at level 1e-3 over
    all comparisons, so "max TV <= 3*std_error + bias_bound" is a calibrated
    consistency-with-zero test when the true marginals coincide.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if samples < 1:
        raise ValueError("need at least 1 sample")
    circuit, compiled, level = _unpack(target, y0, y1)
    rng = random.Random(seed)
    rng0 = np.random.default_rng(rng.getrandbits(64))
    rng1 = np.random.default_rng(rng.getrandbits(64))

    if order == 1:
        targets = circuit.leakable
        symbols = 3
    elif compiled is None:
        raise EvalError("order-2 marginals need a compiled target with blocks")
    else:
        targets = compiled.snapshot_pairs
        symbols = 9

    # row[j] is the counts row of target j
    counted, row = targets, np.arange(len(targets))
    if order == 1:
        counted, row = _one_event_per_slot(circuit, targets)
    counts0, counts1 = (_symbol_counts(circuit, level, y, x, samples, gen, counted, order)
                        for y, gen in ((y0, rng0), (y1, rng1)))
    tv = (0.5 * np.abs(counts0 - counts1).sum(axis=1) / samples)[row]
    estimate, std_error, worst = 0.0, 0.0, None
    if len(targets):
        i = int(np.argmax(tv))
        estimate, worst = float(tv[i]), np.atleast_1d(targets[i]).tolist()
        # plug-in standard error of the worst comparison's empirical TV
        p_hat, q_hat = counts0[row[i]] / samples, counts1[row[i]] / samples
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


def _one_event_per_slot(circuit: Circuit, events: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One of `events` per distinct value slot (`ValueProgram.slot_of`), in
    slot order, and per event the index of its slot's one.  Events that
    share a slot share their counts, so order 1 counts one event per slot
    (21,909 of the level-2 one-Toffoli's 42,781) and each target reads its
    slot's row."""
    program = circuit.program
    slots = program.slot_of[events]
    seen = np.zeros(program.slots, dtype=bool)
    seen[slots] = True
    row = (np.cumsum(seen) - 1)[slots]
    counted = np.empty(int(np.count_nonzero(seen)), dtype=np.int64)
    counted[row] = events
    return counted, row


def _symbol_counts(circuit, level, secret, x, samples, np_rng, targets, order) -> np.ndarray:
    """Counts per target of each symbol over all samples, evaluated in
    batches of _MARGINAL_CHUNK_ROWS seed-and-tape rows (see `_plane_counts`)."""
    width = seed_count(len(secret), level) + circuit.rand_count
    counts = np.zeros((len(targets), 3 if order == 1 else 9), dtype=np.int64)
    done = 0
    while done < samples:
        rows = min(_MARGINAL_CHUNK_ROWS, samples - done)
        bits = _draw_planes(np_rng, rows, width)
        counts += _plane_counts(_evaluate_rows(circuit, level, secret, x, bits), targets, order)
        done += rows
    return counts


def _plane_counts(events: EventBatch, targets, order: int) -> np.ndarray:
    """Per target, the number of rows showing each symbol, by popcount.

    A target is an event id at order 1 (`targets` an int64 array) and a
    pair of them at order 2 (a (P, 2) array or a list of pairs).  A symbol
    is an event value v in {-1, 0, 1} (-1 = skipped), counted in column
    v + 1; an order-2 symbol codes the pair (a, b) as (a + 1) * 3 + b,
    counted in column (a + 1) * 3 + b + 1.  Each event's ones are
    popcounted, and the rows it ran in, its condition event's ones
    (`Circuit.cond_of`), only if it is conditioned (any other ran in all);
    events that share a value slot (`ValueProgram.slot_of`) share their
    ones, so each slot is popcounted once (_event_counts), and at order 1
    marginal_independence passes one event per slot (_one_event_per_slot).
    Order 2 derives all nine cells from the two events' own counts and
    four AND-counts, of a's ones or ran rows with b's ones or ran rows (a
    skipped event's value bit is 0, so an event's ones lie inside its ran
    rows).  Every pair
    popcounts ones & ones; an unconditioned event's ran rows are all rows,
    so a pair popcounts an AND with an event's ran rows only when that
    event is conditioned.
    """
    rows = events.rows
    if order == 1:
        ones, ran = _event_counts(events, targets)
        return np.stack([rows - ran, ran - ones, ones], axis=1)

    pairs = np.asarray(targets, dtype=np.int64).reshape(-1, 2)
    used, slot = np.unique(pairs, return_inverse=True)
    ones, ran = _event_counts(events, used)
    slot = slot.reshape(pairs.shape)
    (one_a, one_b), (ran_a, ran_b) = ones[slot].T, ran[slot].T
    planes, slot_of = events.planes, events.slot_of
    # each event's slot and, where it is conditioned, its condition
    # event's slot, the rows it ran in
    a, b = slot_of[pairs].T
    conds = events.cond_of[pairs]
    cond_a, cond_b = conds.T >= 0
    run_a, run_b = slot_of[conds].T
    oo = _and_counts(planes, a, b)
    # op = |ones_a & ran_b|, po = |ran_a & ones_b| and pp = |ran_a & ran_b|,
    # where an unconditioned event's ran rows are all rows
    op, po, pp = one_a.copy(), one_b.copy(), np.minimum(ran_a, ran_b)
    op[cond_b] = _and_counts(planes, a[cond_b], run_b[cond_b])
    po[cond_a] = _and_counts(planes, run_a[cond_a], b[cond_a])
    both = cond_a & cond_b
    pp[both] = _and_counts(planes, run_a[both], run_b[both])
    return np.stack([rows - ran_a - ran_b + pp, ran_b - one_b - pp + po, one_b - po,
                     ran_a - one_a - pp + op, pp - op - po + oo, po - oo,
                     one_a - op, op - oo, oo], axis=1)


def _event_counts(events: EventBatch, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per event of the int64 array `ids`, its ones and the rows it ran in:
    all rows, or for a conditioned event its condition event's ones.
    Events that share a value slot share their ones, so each slot read
    is popcounted once, in one pass over the slot table."""
    slot_of = events.slot_of
    slots = slot_of[ids]
    conds = events.cond_of[ids]
    skips = np.flatnonzero(conds >= 0)
    runs = slot_of[conds[skips]]
    read = np.zeros(len(events.planes), dtype=bool)
    read[slots] = read[runs] = True
    counts = np.fromiter(map(int.bit_count, compress(events.planes, read.tobytes())),
                         dtype=np.int64, count=int(np.count_nonzero(read)))
    rank = np.cumsum(read) - 1  # a read slot's index in counts
    ran = np.full(len(ids), events.rows, dtype=np.int64)
    ran[skips] = counts[rank[runs]]
    return counts[rank[slots]], ran


def _and_counts(planes: list[int], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per j, the popcount of planes[a[j]] & planes[b[j]], for the int64
    slot arrays `a` and `b`."""
    return np.fromiter(map(int.bit_count, map(operator.and_, map(planes.__getitem__, a.tolist()),
                                              map(planes.__getitem__, b.tolist()))),
                       dtype=np.int64, count=len(a))
