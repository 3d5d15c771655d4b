"""Properties on generated inputs: the level-1 compiler on reversible
circuits, the batch evaluator and truth tables against the scalar
evaluate, the array secret encoder, the row tally, the Monte-Carlo
estimator, the transcript sampler and the name allocator against their
loop references, and the size guards."""

import json
import math
import random
from collections import Counter
from datetime import timedelta
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrcirc.circuits import (
    EvalError,
    GateKind,
    RandomTape,
    batch_outputs,
    bit_rows,
    evaluate,
    evaluate_batch,
    rows_per_batch,
    truth_table,
)
from lrcirc.compiler import (
    _LEVEL2_GUARD,
    CircuitBuilder,
    CompileError,
    compile_circuit,
    encode_seed_rows,
    seed_count,
)
from lrcirc import lab
from lrcirc.lab import (
    AdvantageReport,
    LeakageModel,
    LeakTranscript,
    _abs_group_sums,
    _empirical_tv,
    _paired_event_batches,
    _plane_counts,
    _python_mt,
    _unpack,
    encoded_secret_rows,
    exact_tv_tiny,
    mc_advantage,
    run_rounds,
)
from lrcirc.faults import transversality_audit
from lrcirc.netlist import parse_netlist, serialize_netlist
from lrcirc.steane import encode_codeword

_LOGICAL = (GateKind.NOT, GateKind.CNOT, GateKind.TOF, GateKind.Z, GateKind.CZ)


@st.composite
def logical_netlists(draw):
    """Netlist text over NOT/CNOT/TOF/Z/CZ with 1-2 secret inputs, 0-2
    public inputs, 0-2 internal registers (some `init 1`) and 1-2 outputs;
    the last gates write every output."""
    secret = [f"s{i}" for i in range(draw(st.integers(1, 2)))]
    public = [f"x{i}" for i in range(draw(st.integers(0, 2)))]
    inits = draw(st.lists(st.integers(0, 1), max_size=2))
    outputs = [f"o{i}" for i in range(draw(st.integers(1, 2)))]
    internal = [f"t{i}" for i in range(len(inits))]
    names = secret + public + internal + outputs
    lines = [f"in secret {n}" for n in secret] + [f"in public {n}" for n in public]
    lines += [f"reg {n} init 1" if init else f"reg {n}" for n, init in zip(internal, inits)]
    lines += [f"out {n}" for n in outputs]
    kinds = [k for k in _LOGICAL if k.arity <= len(names)]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
        operands = draw(st.permutations(names))[:kind.arity]
        lines.append(f"gate {kind.value} {' '.join(operands)}")
    for out in outputs:
        control = draw(st.sampled_from([n for n in names if n != out]))
        lines.append(f"gate CNOT {control} {out}")
    return "\n".join(lines) + "\n"


_SETTINGS = settings(derandomize=True, max_examples=50, deadline=None, database=None)


@_SETTINGS
@given(logical_netlists())
def test_level1_decodes_to_logical_outputs(text):
    logical = parse_netlist(text)
    comp = compile_circuit(logical, level=1, ec=True)
    rng = np.random.default_rng(3)
    for sec in product((0, 1), repeat=len(logical.secret_regs)):
        for pub in product((0, 1), repeat=len(logical.public_regs)):
            trace = evaluate(logical, sec, pub, RandomTape.of([]))
            want = [trace.outputs[r.name] for r in logical.output_regs]
            tapes = rng.integers(0, 2, size=(8, comp.circuit.rand_count), dtype=np.int8)
            enc = encoded_secret_rows(comp, list(sec), 8, rng)
            events = evaluate_batch(comp.circuit, enc, list(pub), tapes)
            assert (batch_outputs(comp.circuit, events) == want).all()


@_SETTINGS
@given(logical_netlists(), st.booleans())
def test_level1_netlist_round_trips_and_is_deterministic(text, ec):
    first = compile_circuit(parse_netlist(text), level=1, ec=ec)
    second = compile_circuit(parse_netlist(text), level=1, ec=ec)
    net = serialize_netlist(first.circuit)
    assert serialize_netlist(parse_netlist(net)) == net
    assert serialize_netlist(second.circuit) == net
    assert second.to_json_dict() == first.to_json_dict()
    assert second.circuit.event_listing() == first.circuit.event_listing()
    assert transversality_audit(first.circuit, first.blocks,
                                frozenset(first.readout_gates))["clean"]


# -- the batch evaluator against the scalar reference ----------------------------


@st.composite
def raw_netlists(draw, any_condition=False):
    """Netlist text over every gate kind with 1-2 secret inputs, 0-2 public
    inputs, 0-2 internal registers (some `init 1`) and 1-2 outputs.  Any
    gate, including each output's final write, may be conditioned on an
    earlier event that always runs (an input or an unconditioned gate's
    port), or with `any_condition` on any earlier event, so a condition
    may read an event its own gate's condition skipped."""
    secret = [f"s{i}" for i in range(draw(st.integers(1, 2)))]
    public = [f"x{i}" for i in range(draw(st.integers(0, 2)))]
    inits = draw(st.lists(st.integers(0, 1), max_size=2))
    outputs = [f"o{i}" for i in range(draw(st.integers(1, 2)))]
    internal = [f"t{i}" for i in range(len(inits))]
    names = secret + public + internal + outputs
    lines = [f"in secret {n}" for n in secret] + [f"in public {n}" for n in public]
    lines += [f"reg {n} init 1" if init else f"reg {n}" for n, init in zip(internal, inits)]
    lines += [f"out {n}" for n in outputs]
    always = list(range(len(secret) + len(public)))
    events = len(always)

    def add(kind, operands):
        nonlocal events
        earlier = range(events) if any_condition else always
        cond = draw(st.one_of(st.none(), st.sampled_from(earlier)))
        if cond is None:
            lines.append(f"gate {kind.value} {' '.join(operands)}")
            always.extend(range(events, events + kind.arity))
        else:
            lines.append(f"cgate {cond} {kind.value} {' '.join(operands)}")
        events += kind.arity

    kinds = [k for k in GateKind if k.arity <= len(names)]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=6)):
        add(kind, draw(st.permutations(names))[:kind.arity])
    for out in outputs:
        add(GateKind.CNOT, [draw(st.sampled_from([n for n in names if n != out])), out])
    return "\n".join(lines) + "\n"


def _inputs(circ):
    return product(product((0, 1), repeat=len(circ.secret_regs)),
                   product((0, 1), repeat=len(circ.public_regs)))


# batch sizes around the byte and 64-bit word boundaries of the bit planes
_ROW_COUNTS = (0, 1, 7, 8, 9, 63, 64, 65, 130)


def _row_batches(circ):
    """Per-row (secret, public, tapes) matrices at each of _ROW_COUNTS rows,
    drawn from every input and tape combination."""
    ns, npub = len(circ.secret_regs), len(circ.public_regs)
    combos = bit_rows(ns + npub + circ.rand_count)
    rng = np.random.default_rng(len(combos))
    for n in _ROW_COUNTS:
        rows = combos[rng.integers(0, len(combos), n)]
        yield rows[:, :ns], rows[:, ns:ns + npub], rows[:, ns + npub:]


def _shared_row_batches(circ):
    """Each input as one row shared by every tape, with its per-row form."""
    tapes = bit_rows(circ.rand_count)
    for sec, pub in _inputs(circ):
        rows = [np.broadcast_to(np.array(v, dtype=np.int8), (len(tapes), len(v)))
                for v in (sec, pub)]
        yield (sec, pub, tapes), (*rows, tapes)


@_SETTINGS
@given(raw_netlists())
def test_batch_evaluator_matches_scalar_evaluate(text):
    circ = parse_netlist(text)
    cases = [(b, b) for b in _row_batches(circ)] + list(_shared_row_batches(circ))
    for args, (secs, pubs, tapes) in cases:
        events = evaluate_batch(circ, *args)
        matrix = events.matrix()
        assert matrix.dtype == np.int8 and matrix.flags.c_contiguous
        assert matrix.shape == (len(tapes), circ.num_events)
        outputs = batch_outputs(circ, events)
        for row, out, sec, pub, tape in zip(matrix.tolist(), outputs.tolist(), secs, pubs, tapes):
            ref = evaluate(circ, sec, pub, RandomTape.of(tape))
            assert row == [-1 if v is None else v for v in ref.values]
            assert out == [ref.outputs[r.name] for r in circ.output_regs]


def counts_by_matrix(matrix, targets, order):
    """Symbol counts per target from count_nonzero on the int8 matrix."""
    codes = matrix[:, [t[0] for t in targets]]
    if order == 2:
        codes = (codes + 1) * 3 + matrix[:, [t[1] for t in targets]]
    symbols = range(-1, 2) if order == 1 else range(-1, 8)
    return np.stack([np.count_nonzero(codes == v, axis=0) for v in symbols], axis=1)


@_SETTINGS
@given(raw_netlists())
def test_popcount_symbol_counts_equal_matrix_counts(text):
    circ = parse_netlist(text)
    events = range(circ.num_events)
    singles = [(e,) for e in events]
    pairs = [(a, b) for a in events for b in events if a < b]
    for args in _row_batches(circ):
        batch = evaluate_batch(circ, *args)
        matrix = batch.matrix()
        for targets, order in ((singles, 1), (pairs, 2)):
            got = _plane_counts(batch, targets, order)
            assert got.tolist() == counts_by_matrix(matrix, targets, order).tolist()


def _eval_error(fn, *args):
    try:
        fn(*args)
    except EvalError as exc:
        return str(exc)
    return None


@_SETTINGS
@given(raw_netlists(any_condition=True))
def test_condition_on_a_skipped_event_raises_like_evaluate(text):
    circ = parse_netlist(text)
    ns, npub = len(circ.secret_regs), len(circ.public_regs)
    rows = bit_rows(ns + npub + circ.rand_count)
    secs, pubs, tapes = rows[:, :ns], rows[:, ns:ns + npub], rows[:, ns + npub:]
    errors = []
    for i in range(len(rows)):
        want = _eval_error(evaluate, circ, secs[i], pubs[i], RandomTape.of(tapes[i]))
        # a one-row batch fails exactly when, and with the message, evaluate does
        got = _eval_error(evaluate_batch, circ, secs[i:i + 1], pubs[i:i + 1], tapes[i:i + 1])
        assert got == want
        errors.append(want)
    # the whole batch fails when any row does, with one of the rows' errors
    got = _eval_error(evaluate_batch, circ, secs, pubs, tapes)
    if any(errors):
        assert got is not None and got in errors
        assert got.startswith("condition references skipped event")
    else:
        assert got is None


@_SETTINGS
@given(raw_netlists())
def test_truth_table_matches_scalar_enumeration(text):
    circ = parse_netlist(text)
    want = {}
    for sec, pub in _inputs(circ):
        counts = Counter(
            tuple(evaluate(circ, sec, pub, RandomTape.of(t)).outputs[r.name]
                  for r in circ.output_regs)
            for t in product((0, 1), repeat=circ.rand_count)
        )
        want[(sec, pub)] = {k: v / 2 ** circ.rand_count for k, v in counts.items()}
    assert repr(truth_table(circ)) == repr(want)


# -- array code against its loop references ------------------------------------


def encode_by_rows(bits, seeds, level):
    """Row-by-row composition of encode_codeword, reading three seeds per bit."""
    out = []
    for row in seeds:
        it = iter(row)
        words = list(bits)
        for _ in range(level):
            words = [b for bit in words for b in encode_codeword(bit, (next(it), next(it), next(it)))]
        out.append(words)
    return out


@st.composite
def secrets_and_seeds(draw):
    level = draw(st.sampled_from([0, 1, 2]))
    bits = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    width = len(bits) * {0: 0, 1: 3, 2: 24}[level]
    seeds = draw(arrays(np.int8, (draw(st.integers(1, 6)), width), elements=st.integers(0, 1)))
    return bits, seeds, level


@_SETTINGS
@given(secrets_and_seeds())
def test_array_encoder_equals_codeword_loop(case):
    bits, seeds, level = case
    assert encode_seed_rows(bits, seeds, level).tolist() == encode_by_rows(bits, seeds.tolist(), level)


@_SETTINGS
@given(st.lists(st.integers(0, 1), max_size=4), st.integers(0, 2 ** 32), st.integers(0, 5))
def test_encode_secret_draws_three_seeds_per_bit(bits, seed, rows):
    # a level-1 target reads one (rows, 3k) seed draw from the generator
    comp = compile_circuit(parse_netlist("".join(f"in secret s{i}\n" for i in range(len(bits)))))
    ref = np.random.default_rng(seed)
    want = encode_by_rows(bits, ref.integers(0, 2, size=(rows, 3 * len(bits))).tolist(), 1)
    rng = np.random.default_rng(seed)
    enc = encoded_secret_rows(comp, bits, rows, rng)
    assert enc.shape == (rows, 7 * len(bits))
    assert enc.tolist() == want
    assert rng.bit_generator.state == ref.bit_generator.state


def abs_group_sums_by_dict(keys, weights):
    out = []
    for row in keys:
        sums = {}
        for key, weight in zip(row.tolist(), weights.tolist()):
            sums[key] = sums.get(key, 0) + weight
        out.append(sum(map(abs, sums.values())))
    return out


def _void_keys(keys, width):
    """Each int64 key's first `width` bytes, as one void key."""
    cut = np.ascontiguousarray(keys[..., None].view(np.uint8)[..., :width])
    return cut.view(np.dtype((np.void, width)))[..., 0]


@st.composite
def keyed_weights(draw):
    """A (rows, cells) array of keys from a small pool, so keys repeat
    within and across rows, as int64 or void keys, and one integer
    weight per cell column."""
    rows, cells = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    pool = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=5))
    keys = np.array(draw(st.lists(st.lists(st.sampled_from(pool), min_size=cells,
                                           max_size=cells), min_size=rows, max_size=rows)),
                    dtype=np.int64)
    if draw(st.booleans()):
        keys = _void_keys(keys, draw(st.integers(1, 8)))
    weights = np.array(draw(st.lists(st.integers(-5, 5), min_size=cells, max_size=cells)))
    return keys, weights


@_SETTINGS
@given(keyed_weights())
@example((np.arange(3, dtype=np.int64)[:, None], np.array([-4])))  # one-cell rows
@example((_void_keys(np.zeros((1, 1), dtype=np.int64), 3), np.array([2])))
@example((np.full((2, 5), 7, dtype=np.int64), np.arange(5) - 1))  # all keys equal
@example((_void_keys(np.full((3, 4), -1, dtype=np.int64), 5), np.array([1, 1, -1, 3])))
def test_abs_group_sums_equals_dict_reference(case):
    keys, weights = case
    got = _abs_group_sums(keys, weights)
    assert got.shape == (len(keys),)
    assert got.tolist() == abs_group_sums_by_dict(keys, weights)


def tv_by_counter(a, b):
    ca = Counter(map(bytes, a))
    cb = Counter(map(bytes, b))
    return 0.5 * sum(abs(ca.get(k, 0) - cb.get(k, 0)) for k in set(ca) | set(cb)) / a.shape[0]


@st.composite
def sample_pairs(draw):
    """Two equally sized {-1, 0, 1} samples whose rows come from a small pool,
    so rows repeat within and across the samples at every width."""
    width = draw(st.integers(1, 64))
    pool = draw(arrays(np.int8, (draw(st.integers(1, 6)), width), elements=st.integers(-1, 1)))
    n = draw(st.integers(1, 40))
    idx = st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n)
    return pool[draw(idx)], pool[draw(idx)]


@_SETTINGS
@given(sample_pairs())
def test_empirical_tv_equals_counter_reference(pair):
    a, b = pair
    assert _empirical_tv(a[None], b[None]).tolist() == [tv_by_counter(a, b)]


# inner sizes around the byte and 64-bit word boundaries of the planes
_INNER = (1, 7, 8, 9, 63, 64, 65)


@st.composite
def mask_stacks(draw):
    """Per mask, two {-1, 0, 1} samples of one inner size whose rows come
    from a small pool; widths run from 0 (an empty mask) to 64, past the
    39 columns where base-3 int64 row keys overflow."""
    inner = draw(st.sampled_from(_INNER))
    pairs = []
    for width in draw(st.lists(st.integers(0, 64), min_size=1, max_size=5)):
        pool = draw(arrays(np.int8, (draw(st.integers(1, 6)), width),
                           elements=st.integers(-1, 1)))
        idx = st.lists(st.integers(0, len(pool) - 1), min_size=inner, max_size=inner)
        pairs.append((pool[draw(idx)], pool[draw(idx)]))
    return pairs


@_SETTINGS
@given(mask_stacks())
def test_stacked_empirical_tv_equals_one_mask_calls(pairs):
    # each mask's unused columns hold 0, as mc_advantage pads them
    inner, width = len(pairs[0][0]), max(a.shape[1] for a, _ in pairs)
    stacks = np.zeros((2, len(pairs), inner, width), dtype=np.int8)
    for j, (a, b) in enumerate(pairs):
        stacks[0, j, :, :a.shape[1]], stacks[1, j, :, :b.shape[1]] = a, b
    got = _empirical_tv(*stacks)
    assert got.shape == (len(pairs),)
    for tv, (a, b) in zip(got.tolist(), pairs):
        assert tv == tv_by_counter(a, b)


def mc_by_mask_loop(circ, y0, y1, x, model, samples, seed, inner):
    """mc_advantage on a raw circuit as it was before its tally read the
    bit-planes: same draws, the chunk's masked-column union unpacked with
    EventBatch.matrix, then each mask tallied on its own rows by Counter."""
    leakable = np.array([e for e in range(circ.num_events) if e not in circ.leak_free],
                        dtype=np.int64)
    np_rng = np.random.default_rng(random.Random(seed).getrandbits(64))
    tvs, biases = np.zeros(samples), np.zeros(samples)
    for pos in range(0, samples, 64):
        m = min(64, samples - pos)
        ev0, ev1 = _paired_event_batches(circ, y0, y1, x, m * inner, np_rng)
        masks = np_rng.random((m, leakable.size)) < model.p
        leaked = masks.any(axis=0)
        masks = masks[:, leaked]
        m0, m1 = ev0.matrix(leakable[leaked]), ev1.matrix(leakable[leaked])
        for i in range(m):
            cols = np.flatnonzero(masks[i])
            if cols.size:
                lo, hi = i * inner, (i + 1) * inner
                tvs[pos + i] = tv_by_counter(m0[lo:hi, cols], m1[lo:hi, cols])
                biases[pos + i] = min(1.0, math.sqrt(min(3.0 ** cols.size, 2.0 * inner) / inner))
    boot = np_rng.choice(tvs, size=(200, samples), replace=True).mean(axis=1)
    return AdvantageReport(
        estimate=float(tvs.mean()), std_error=float(boot.std(ddof=1)),
        bias_bound=float(biases.mean()), method="mask-decomposed-MC", samples=samples,
        details={"inner_tapes": inner, "p": model.p, "leakable_events": int(leakable.size),
                 "mean_mask_size": model.p * leakable.size, "bootstrap_resamples": 200},
    )


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(raw_netlists(), st.sampled_from(_INNER), st.sampled_from([0.05, 0.3, 0.9]),
       st.integers(0, 2 ** 32), st.data())
def test_mc_advantage_equals_per_mask_loop(text, inner, p, seed, data):
    circ = parse_netlist(text)
    y0, y1, x = (data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
                 for n in (len(circ.secret_regs),) * 2 + (len(circ.public_regs),))
    args = (circ, y0, y1, x, LeakageModel(p), 1000, seed, inner)
    got, want = mc_advantage(*args), mc_by_mask_loop(*args)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


# -- the transcript sampler against its random.Random loop ----------------------


def rounds_by_random_loop(target, secret, inputs, model, seed):
    """run_rounds as it was before it drew from NumPy: per round one
    random.Random call per seed bit, tape bit and leakable event, and each
    round's mask cut from the chunk's masked-column union by searchsorted."""
    circuit, _, level = _unpack(target, secret)
    rng = random.Random(seed)
    leakable = [e for e in range(circuit.num_events) if e not in circuit.leak_free]
    enc_bits = seed_count(len(secret), level)
    out = []
    inputs, step = list(inputs), rows_per_batch(circuit)
    for lo in range(0, len(inputs), step):
        xs = [[int(b) & 1 for b in x] for x in inputs[lo:lo + step]]
        seeds = np.empty((len(xs), enc_bits), dtype=np.int8)
        tapes = np.empty((len(xs), circuit.rand_count), dtype=np.int8)
        masks = []
        for i in range(len(xs)):
            seeds[i] = [rng.getrandbits(1) for _ in range(enc_bits)]
            tapes[i] = [rng.getrandbits(1) for _ in range(circuit.rand_count)]
            masks.append(tuple(e for e in leakable if rng.random() < model.p))
        events = evaluate_batch(circuit, encode_seed_rows(secret, seeds, level), xs, tapes)
        outputs = batch_outputs(circuit, events).tolist()
        cols = np.array(sorted(set().union(*masks)), dtype=np.int64)
        masked = events.matrix(cols)
        for i, mask in enumerate(masks):
            leaked = masked[i, cols.searchsorted(mask)].tolist()
            values = {e: None if v < 0 else v for e, v in zip(mask, leaked)}
            output = {r.name: v for r, v in zip(circuit.output_regs, outputs[i])}
            out.append(LeakTranscript(lo + i, mask, values, output))
    return out


def _transcript_json(ts) -> str:
    return json.dumps([t.to_json_dict() for t in ts])


# seeds random.Random takes by other routes than a small int: the absolute
# value of a negative int, all of an int past 64 bits, a str's sha512
_ODD_SEEDS = (-3, 2 ** 64 + 5, -(2 ** 70) - 1, "abc", "")


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(raw_netlists(), st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2 ** 32),
       st.integers(0, 9), st.data())
def test_run_rounds_equals_random_loop(text, p, seed, rounds, data):
    circ = parse_netlist(text)
    secret = data.draw(st.lists(st.integers(0, 1), min_size=len(circ.secret_regs),
                                max_size=len(circ.secret_regs)))
    width = len(circ.public_regs)
    inputs = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=width, max_size=width),
                                min_size=rounds, max_size=rounds))
    # the words one round draws: a tape bit each, two per leakable event
    words = circ.rand_count + 2 * (circ.num_events - len(circ.leak_free))
    for s in (seed, *_ODD_SEEDS):
        want = _transcript_json(rounds_by_random_loop(circ, secret, inputs, LeakageModel(p), s))
        for block in (lab._DRAW_BLOCK_WORDS, 1, words - 1, words, words + 1, 3 * words):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lab, "_DRAW_BLOCK_WORDS", block)
                got = run_rounds(circ, secret, inputs, LeakageModel(p), s)
            assert _transcript_json(got) == want, (s, block)


def test_compiled_run_rounds_equals_random_loop():
    # each round's seed bits come before its tape
    comp = compile_circuit(parse_netlist("in secret a\nin secret b\nout c\ngate TOF a b c\n"))
    for seed in (7, "abc"):
        args = (comp, [0, 1], [[]] * 5, LeakageModel(0.05), seed)
        assert _transcript_json(run_rounds(*args)) == _transcript_json(rounds_by_random_loop(*args))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.one_of(st.integers(-(2 ** 80), 2 ** 80), st.text(max_size=5),
                 st.sampled_from(_ODD_SEEDS)),
       st.lists(st.tuples(st.booleans(), st.integers(1, 400)), max_size=8))
def test_python_mt_replays_random_random(seed, runs):
    # runs of getrandbits(1) (True) and random() (False) calls, up to 3,200
    # in all, so the interleaving crosses the twister's 624-word refills;
    # this relies on CPython's random internals and must fail, not drift,
    # on an interpreter where they differ
    rng, gen = random.Random(seed), _python_mt(seed)
    for bit, count in runs:
        if bit:
            want = [rng.getrandbits(1) for _ in range(count)]
            got = (gen.random_raw(count) >> 31).tolist()
        else:
            want = [rng.random() for _ in range(count)]
            pairs = gen.random_raw((count, 2)).tolist()
            got = [((a >> 5) * 67108864 + (b >> 6)) / 9007199254740992 for a, b in pairs]
        assert got == want


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(-(2 ** 40), 2 ** 40), st.integers(0, 3), st.integers(1, 40),
       st.integers(0, 10 ** 6), st.sampled_from([-1.0, 2.0, None]))
def test_draw_rounds_equals_random_calls(seed, nbits, nuni, pick, toward):
    # p is one of the stream's own uniforms or a float next to it, so that
    # uniform's first word ties with p's top 27 bits and its second decides
    rows, ref = 3, random.Random(seed)
    draws = [([ref.getrandbits(1) for _ in range(nbits)], [ref.random() for _ in range(nuni)])
             for _ in range(rows)]
    u = draws[pick % rows][1][pick % nuni]
    p = u if toward is None else math.nextafter(u, toward)
    bits, hit_rows, hit_cols = lab._draw_rounds(_python_mt(seed), rows, nbits, nuni, p)
    assert bits.tolist() == [b for b, _ in draws]
    hits = [(r, c) for r, (_, us) in enumerate(draws) for c, v in enumerate(us) if v < p]
    assert list(zip(hit_rows.tolist(), hit_cols.tolist())) == hits


def probe(names, prefix):
    name, k = prefix, 2
    while name in names:
        name = f"{prefix}.{k}"
        k += 1
    return name


_PREFIXES = ["x", "x.2", "xm.r", "y"]


@_SETTINGS
@given(st.lists(st.one_of(
    st.tuples(st.just("fresh"), st.sampled_from(_PREFIXES), st.booleans()),
    st.tuples(st.just("direct"), st.sampled_from(_PREFIXES), st.integers(1, 5)),
), max_size=60))
def test_fresh_equals_probing_loop(ops):
    builder = CircuitBuilder()
    names: set[str] = set()
    for op, prefix, arg in ops:
        if op == "fresh":
            name = builder.fresh(prefix)
            assert name == probe(names, prefix)
            register = arg
        else:
            name = prefix if arg == 1 else f"{prefix}.{arg}"
            register = name not in names
        if register:
            builder.new_reg(name)
            names.add(name)


# -- size guards -----------------------------------------------------------------

_GUARD_SETTINGS = settings(derandomize=True, max_examples=15, deadline=timedelta(seconds=5),
                           database=None)


@_GUARD_SETTINGS
@given(st.lists(st.sampled_from([GateKind.NOT, GateKind.CNOT, GateKind.TOF]),
                min_size=33, max_size=40), st.randoms(use_true_random=False))
def test_level2_guard_refuses_before_expanding(kinds, rnd):
    # an EC'd logical gate costs at least 57 level-1 gates, so 33 of them
    # plus the output's preparation exceed the guard
    names = ["a", "b", "t", "o"]
    lines = ["in secret a", "in secret b", "reg t", "out o"]
    for kind in kinds:
        lines.append(f"gate {kind.value} {' '.join(rnd.sample(names, kind.arity))}")
    lines.append("gate CNOT a o")
    logical = parse_netlist("\n".join(lines) + "\n")
    with pytest.raises(CompileError, match="level-2 expansion refused") as err:
        compile_circuit(logical, level=2)
    assert int(str(err.value).split(" has ")[1].split()[0]) > _LEVEL2_GUARD


def rand_cnot_netlist(inputs, tape_bits, cnots):
    """`inputs` secret bits, `tape_bits` RAND registers and `cnots` CNOTs
    from the first secret into the output: inputs + 2 * cnots leakable
    events."""
    lines = [f"in secret s{i}" for i in range(inputs)]
    lines += [f"reg r{i}" for i in range(tape_bits)] + ["out o"]
    lines += [f"gate RAND r{i}" for i in range(tape_bits)]
    lines += ["gate CNOT s0 o"] * cnots
    return parse_netlist("\n".join(lines) + "\n")


@_GUARD_SETTINGS
@given(st.tuples(st.integers(1, 4), st.integers(0, 30), st.integers(1, 20)).filter(
    lambda t: t[1] > 20 or t[0] + 2 * t[2] > 24))
def test_exact_tv_refuses_oversized_circuits(shape):
    inputs, tape_bits, cnots = shape
    circ = rand_cnot_netlist(inputs, tape_bits, cnots)
    with pytest.raises(EvalError, match="size guard"):
        exact_tv_tiny(circ, [0] * inputs, [1] * inputs, [], LeakageModel(0.1))


@_GUARD_SETTINGS
@given(st.integers(8, 11).flatmap(lambda c: st.tuples(st.just(c), st.integers(c, 20))))
@example((11, 20))
def test_exact_tv_refuses_large_mask_enumeration_early(shape):
    # `cnots` CNOTs from tape registers into the output: 1 + 2 * cnots
    # leakable events and 2^(cnots + 1) distinct value rows over both
    # secrets, so the mask work 2^(3 * cnots + 2) exceeds 5e7 from 8 on
    cnots, tape_bits = shape
    lines = ["in secret s"] + [f"reg r{i}" for i in range(tape_bits)] + ["out o"]
    lines += [f"gate RAND r{i}" for i in range(tape_bits)]
    lines += [f"gate CNOT r{i} o" for i in range(cnots)]
    circ = parse_netlist("\n".join(lines) + "\n")
    with pytest.raises(EvalError, match="mask enumeration too large"):
        exact_tv_tiny(circ, [0], [1], [], LeakageModel(0.1))


@_GUARD_SETTINGS
@given(st.tuples(st.integers(1, 26), st.integers(0, 26)).filter(lambda t: sum(t) > 20))
def test_truth_table_refuses_over_2_to_the_20_evaluations(shape):
    inputs, tape_bits = shape
    with pytest.raises(EvalError, match="truth_table limited to 20"):
        truth_table(rand_cnot_netlist(inputs, tape_bits, 1))
