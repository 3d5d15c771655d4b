"""Properties on generated inputs: the level-1 compiler on reversible
circuits, the batch evaluator and truth tables against the scalar
evaluate, the value program's slot map against the plane-sharing rule
written out gate by gate, the array secret encoder, the row tally, the Monte-Carlo
estimator, the transcript sampler, the name allocator and the snapshot
pairs against their loop references, netlist errors on generated circuits
with one injected fault, refusals of skippable conditions, the netlist
round trip of directly built circuits, and the size guards."""

import json
import math
import random
import re
from collections import Counter
from datetime import timedelta
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrcirc.circuits import (
    Circuit,
    CircuitError,
    EvalError,
    Gate,
    GateKind,
    Planes,
    RandomTape,
    Register,
    Role,
    batch_outputs,
    bit_rows,
    evaluate,
    evaluate_batch,
    register_file,
    rows_per_batch,
    truth_table,
)
from lrcirc.compiler import (
    _LEVEL2_GUARD,
    CircuitBuilder,
    CompileError,
    compile_circuit,
    encode_seed_planes,
    seed_count,
)
from lrcirc import lab
from lrcirc.lab import (
    AdvantageReport,
    LeakageModel,
    LeakTranscript,
    _abs_group_sums,
    _digits_per_pass,
    _draw_planes,
    _empirical_tv,
    _evaluate_rows,
    _plane_counts,
    _unpack,
    encoded_secret_rows,
    exact_tv_tiny,
    marginal_independence,
    mc_advantage,
    run_rounds,
)
from lrcirc.faults import transversality_audit
from lrcirc.netlist import NetlistError, parse_netlist, serialize_netlist
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
    may be an event of a conditioned gate, which Circuit refuses."""
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


def reference_depth(circuit):
    """Circuit.depth's rule as a plain loop: each gate sits one level above
    the deepest of its operands, and so do its operands afterwards."""
    level = [0] * len(circuit.registers)
    for g in circuit.gates:
        d = 1 + max(level[a] for a in g.args)
        for a in g.args:
            level[a] = d
    return max(level, default=0)


@given(raw_netlists())
def test_depth_equals_the_reference_loop(text):
    circ = parse_netlist(text)
    assert circ.depth() == reference_depth(circ)


@pytest.mark.parametrize("ec", [True, False])
def test_depth_of_the_compiled_toffoli_equals_the_reference_loop(ec):
    circ = compile_circuit(parse_netlist("in secret a\nin secret b\nout c\ngate TOF a b c\n"),
                           level=1, ec=ec).circuit
    assert circ.depth() == reference_depth(circ) > 1


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
    """Symbol counts per target (an event id at order 1, a pair of them at
    order 2) from count_nonzero on the int8 matrix."""
    if order == 1:
        codes = matrix[:, targets]
    else:
        codes = (matrix[:, [a for a, _ in targets]] + 1) * 3 + matrix[:, [b for _, b in targets]]
    symbols = range(-1, 2) if order == 1 else range(-1, 8)
    return np.stack([np.count_nonzero(codes == v, axis=0) for v in symbols], axis=1)


@_SETTINGS
@given(raw_netlists())
def test_popcount_symbol_counts_equal_matrix_counts(text):
    circ = parse_netlist(text)
    events = range(circ.num_events)
    singles = np.arange(circ.num_events)
    pairs = [(a, b) for a in events for b in events if a < b]
    for args in _row_batches(circ):
        batch = evaluate_batch(circ, *args)
        matrix = batch.matrix()
        for targets, order in ((singles, 1), (pairs, 2)):
            got = _plane_counts(batch, targets, order)
            assert got.tolist() == counts_by_matrix(matrix, targets, order).tolist()


def event_conds(circ):
    """Per event, its gate's `Gate.cond`, or -1 for an input's or an
    unconditioned gate's event.  The ids are counted here in program order,
    inputs first, not read from the circuit's own tables."""
    conds = [-1] * len(circ.input_events)
    for g in circ.gates:
        conds += [-1 if g.cond is None else g.cond] * len(g.args)
    return conds


def event_planes(batch):
    """Per event, its value plane, read through the program's slot map."""
    return [batch.planes[s] for s in batch.slot_of.tolist()]


def register_planes(batch):
    """Per register, its final plane."""
    return [batch.planes[s] for s in batch.register_slot.tolist()]


def ran_planes(circ, batch):
    """Per event, the rows it ran in: its condition event's value plane, or
    every row (see `event_conds`)."""
    planes = event_planes(batch)
    return [batch.full if c < 0 else planes[c] for c in event_conds(circ)]


def reference_planes(circ):
    """Per event, the first event that holds its value plane and ran rows
    in every row of every batch, by the sharing rule written out gate by
    gate, apart from the value program that evaluate_batch runs.

    A port that reads a register without writing it shares the plane of
    that register's input or last unconditioned write; before any write,
    the non-input registers of one `init` hold one constant plane, that of
    the first event to read any of them.  A COPY target shares its
    source's plane; every other write starts a new plane.  Every port of a
    conditioned gate holds `value & run` and starts a new plane, and so
    does the register that gate writes, whose next reader starts one.  The
    event ids are counted here, inputs first, then each gate's operands."""
    # register id -> event of its plane; -1 - init before any write, None
    # after a conditioned write
    held = [-1 - reg.init for reg in circ.registers]
    constant = {}  # -1 - init -> the first event to read that constant plane
    plane = []
    for reg in circ.registers:
        if reg.role in (Role.SECRET, Role.PUBLIC):
            held[reg.id] = len(plane)
            plane.append(len(plane))
    for g in circ.gates:
        start, port = len(plane), g.kind.write_port
        plane.extend(range(start, start + len(g.args)))
        if g.cond is not None:
            if port is not None:
                held[g.args[port]] = None
            continue
        for e, rid in enumerate(g.args, start):
            if e - start == port:
                if g.kind is GateKind.COPY:
                    plane[e] = plane[start]
                held[rid] = plane[e]
            elif held[rid] is None:
                held[rid] = e
            elif held[rid] < 0:
                plane[e] = held[rid] = constant.setdefault(held[rid], e)
            else:
                plane[e] = held[rid]
    return plane


def assert_planes_shared(circ, batch):
    """The slot map against one evaluated batch and the reference: events
    share a slot exactly when reference_planes puts them in one plane, and
    each event's value and ran-rows planes equal those of its reference
    plane's event, which is no later."""
    slot_of, ref = circ.program.slot_of, reference_planes(circ)
    assert batch.slot_of is slot_of
    assert all(p <= e for e, p in enumerate(ref))
    assert slot_of[ref].tolist() == slot_of.tolist()  # a plane in one slot ...
    assert len(set(ref)) == len(set(slot_of.tolist()))  # ... and one plane per slot
    values, ran = event_planes(batch), ran_planes(circ, batch)
    for e, p in enumerate(ref):
        assert values[e] == values[p]
        assert ran[e] == ran[p]


@_SETTINGS
@given(raw_netlists())
def test_events_share_a_slot_iff_the_reference_shares_their_plane(text):
    # every kind, conditions on inputs and on unconditioned gates' events,
    # `init 1` registers and public inputs; no evaluation
    circ = parse_netlist(text)
    slot_of, ref = circ.program.slot_of.tolist(), reference_planes(circ)
    for a in range(circ.num_events):
        for b in range(a):
            assert (slot_of[a] == slot_of[b]) == (ref[a] == ref[b])


@_SETTINGS
@given(raw_netlists())
def test_events_share_the_planes_of_their_plane_events(text):
    circ = parse_netlist(text)
    for args in _row_batches(circ):
        assert_planes_shared(circ, evaluate_batch(circ, *args))


@_SETTINGS
@given(raw_netlists())
def test_each_event_runs_in_its_conditions_value_slot(text):
    # ran_of against the gates' own conditions, and the head's constant
    # slots and each event's ran slot against an evaluated batch
    circ = parse_netlist(text)
    program = circ.program
    assert program.ran_of.tolist() == [program.ones if c < 0 else program.slot_of[c]
                                       for c in event_conds(circ)]
    for args in _row_batches(circ):
        batch = evaluate_batch(circ, *args)
        assert batch.planes[program.ones - 1:program.ones + 1] == [0, batch.full]
        assert [batch.planes[s] for s in program.ran_of.tolist()] == ran_planes(circ, batch)


def per_event_counts(circ, events, ids):
    """lab._event_counts without its slot dedup and the program's ran
    slots: each event's own plane and the rows it ran in (`ran_planes`)
    are popcounted, event by event."""
    planes, ran = event_planes(events), ran_planes(circ, events)
    return tuple(np.array([p[e].bit_count() for e in ids.tolist()], dtype=np.int64)
                 for p in (planes, ran))


@_SETTINGS
@given(raw_netlists(), st.sampled_from([1, 9, 64]), st.integers(0, 2 ** 32 - 1))
def test_order1_marginals_equal_counting_every_event_alone(text, samples, seed):
    circ = parse_netlist(text)
    rng = random.Random(seed)
    y0, y1 = ([rng.getrandbits(1) for _ in circ.secret_regs] for _ in range(2))
    x = [rng.getrandbits(1) for _ in circ.public_regs]
    shared = marginal_independence(circ, y0, y1, x, order=1, samples=samples, seed=seed)
    with mock.patch.object(lab, "_one_event_per_slot",
                           lambda circuit, events: (events, np.arange(len(events)))), \
            mock.patch.object(lab, "_event_counts",
                              lambda events, ids: per_event_counts(circ, events, ids)):
        alone = marginal_independence(circ, y0, y1, x, order=1, samples=samples, seed=seed)
    assert shared == alone


# distinct planes among the leakable events of the compiled one-Toffoli
_COMPILED_PLANES = {(1, True): 512, (1, False): 365, (2, True): 21_909}


@pytest.mark.parametrize("level,ec", sorted(_COMPILED_PLANES))
def test_compiled_events_share_the_planes_of_their_plane_events(level, ec):
    comp = compile_circuit(parse_netlist(_SKIPPING["toffoli_l1"][0]), level=level, ec=ec)
    circ = comp.circuit
    width = seed_count(2, level) + circ.rand_count
    for rows, secret in ((64, [0, 1]), (9, [1, 1])):
        batch = _evaluate_rows(circ, level, secret, [], _draw_planes(
            np.random.default_rng(rows), rows, width))
        assert_planes_shared(circ, batch)
    assert any(r != batch.full for r in ran_planes(circ, batch))  # some rows skip a gate
    assert len(np.unique(circ.program.slot_of[circ.leakable])) == _COMPILED_PLANES[(level, ec)]


def nine_cell_counts(events, ran, pairs):
    """Order-2 counts by nine AND-popcounts per pair: each event's symbol
    planes are its skipped rows, its present zeros and its ones, with `ran`
    the rows each event ran in (`ran_planes`)."""
    values = event_planes(events)
    planes = {e: (events.full ^ ran[e], ran[e] ^ values[e], values[e])
              for pair in pairs for e in pair}
    return [[(sa & sb).bit_count() for sa in planes[a] for sb in planes[b]] for a, b in pairs]


# fixtures with events that some rows skip: conditioned gates of raw
# circuits, and the readout corrections of a compiled one-Toffoli
_SKIPPING = {
    "cgate_mixed": ("in secret s\nin public x\nreg a\nreg b\nout o\n"
                    "gate RAND a\ngate CNOT a s\ngate RAND b\n"
                    "gate TOF s x o\ncgate 2 NOT o\ngate COPY o b\n", 0),
    "cgate_last": ("in secret s\nin secret t\nin public x\nreg r\nout o\nout q\n"
                   "gate RAND r\ngate CNOT s o\ngate TOF t x q\n"
                   "cgate 2 NOT o\ncgate 1 CNOT r q\n", 0),
    # conditions on a never-written register's event (the zero slot: no
    # row runs events 6, 7, 11 and 12) and on an `init 1` one's (the ones
    # slot: every row runs events 8 to 10 and 13)
    "cgate_constant": ("in secret s\nin public x\nreg r\nreg z\nreg u init 1\nout o\n"
                       "gate RAND r\ngate Z z\ngate CZ u r\ncgate 3 CNOT s o\n"
                       "cgate 4 TOF s r o\ncgate 3 COPY x u\ncgate 4 NOT z\n"
                       "gate CNOT z o\n", 0),
    "toffoli_l1": ("in secret a\nin secret b\nout c\ngate TOF a b c\n", 1),
}


def test_conditions_on_constant_slots_read_as_the_scalar_evaluate():
    # every row skips the events of the gates conditioned on the zero slot
    # and runs those conditioned on the ones slot; the matrix reads as the
    # scalar evaluate, and the order-1 counts as the diagonal of the nine
    # AND-counts of (e, e) (the order-2 counts are checked with the other
    # _SKIPPING fixtures)
    circ = parse_netlist(_SKIPPING["cgate_constant"][0])
    program = circ.program
    zero, ones = program.ones - 1, program.ones
    assert program.slot_of[[3, 4]].tolist() == [zero, ones]
    assert program.ran_of.tolist() == ([ones] * 6 + [zero] * 2 + [ones] * 3
                                       + [zero] * 2 + [ones] * 3)
    events = range(circ.num_events)
    for secs, pubs, tapes in _row_batches(circ):
        batch = evaluate_batch(circ, secs, pubs, tapes)
        for row, sec, pub, tape in zip(batch.matrix().tolist(), secs, pubs, tapes):
            ref = evaluate(circ, sec, pub, RandomTape.of(tape))
            assert row == [-1 if v is None else v for v in ref.values]
        singles = nine_cell_counts(batch, ran_planes(circ, batch), [(e, e) for e in events])
        assert _plane_counts(batch, np.arange(circ.num_events), 1).tolist() == [
            cells[::4] for cells in singles]


@pytest.mark.parametrize("name", sorted(_SKIPPING))
def test_four_and_pair_counts_equal_nine_cell_counts(name):
    text, level = _SKIPPING[name]
    circ = parse_netlist(text)
    target = compile_circuit(circ, level=1) if level else circ
    circ, compiled, _ = _unpack(target)
    secret = [0] * (len(circ.secret_regs) // 7 ** level)
    x = [0] * len(circ.public_regs)
    if compiled is None:
        events = range(circ.num_events)
        pairs = [(a, b) for a in events for b in events if a < b]
    else:
        pairs = compiled.snapshot_pairs
    width = seed_count(len(secret), level) + circ.rand_count
    skipped = False
    for rows in (1, 9, 64, 4097):
        batch = _evaluate_rows(circ, level, secret, x, _draw_planes(
            np.random.default_rng(rows), rows, width))
        ran = ran_planes(circ, batch)
        skipped |= any(r != batch.full for r in ran)
        got = _plane_counts(batch, pairs, 2)
        assert got.tolist() == nine_cell_counts(batch, ran, pairs)
        assert (got.sum(axis=1) == rows).all()
    assert skipped



@pytest.fixture(scope="module")
def toffoli_l2():
    return compile_circuit(parse_netlist(_SKIPPING["toffoli_l1"][0]), level=2)


@pytest.mark.parametrize("rows", [9, 64])
def test_presence_aware_pair_counts_equal_nine_cell_counts_at_level_2(toffoli_l2, rows):
    # every snapshot pair that touches a conditioned event, and a seeded
    # sample of 2,000 of the others, read off one count over all 72,226
    circ, pairs = toffoli_l2.circuit, toffoli_l2.snapshot_pairs
    conditioned = np.array(event_conds(circ)) >= 0
    cond = conditioned[pairs]
    touched = np.flatnonzero(cond.any(axis=1))
    others = np.random.default_rng(22).choice(
        np.flatnonzero(~cond.any(axis=1)), size=2000, replace=False)
    chosen = np.sort(np.concatenate([touched, others]))
    assert touched.size and cond.all(axis=1).any()
    width = seed_count(2, 2) + circ.rand_count
    batch = _evaluate_rows(circ, 2, [0, 1], [], _draw_planes(
        np.random.default_rng(rows), rows, width))
    ran = ran_planes(circ, batch)
    assert any(ran[e] != batch.full for e in np.flatnonzero(conditioned))
    got = _plane_counts(batch, pairs, 2)
    assert (got.sum(axis=1) == rows).all()
    assert got[chosen].tolist() == nine_cell_counts(batch, ran, pairs[chosen].tolist())


def _reference_snapshot_pairs(compiled):
    """The pair list rebuilt gate by gate: each block's events, leak-free
    ones excepted, grouped by how many writes to the block precede them.
    The event ids are counted here, inputs first, then each gate's operands."""
    reg_block = {}
    for bi, (_name, regs) in enumerate(compiled.blocks):
        for r in regs:
            reg_block[r] = bi
    circuit = compiled.circuit
    window = [0] * len(compiled.blocks)
    snapshot_events = {}
    for rid, eid in circuit.input_events.items():
        bi = reg_block.get(rid)
        if bi is not None:
            snapshot_events.setdefault((bi, 0), []).append(eid)
    ev = len(circuit.input_events) - 1
    for g in circuit.gates:
        for port, rid in enumerate(g.args):
            ev += 1
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


@pytest.mark.parametrize("level,count", [(1, 1148), (2, 72226)])
def test_snapshot_pairs_are_decided_once(toffoli_l2, level, count):
    comp = (toffoli_l2 if level == 2 else
            compile_circuit(parse_netlist(_SKIPPING["toffoli_l1"][0]), level=1))
    pairs = comp.snapshot_pairs
    assert comp.snapshot_pairs is pairs
    assert pairs.dtype == np.int64 and pairs.shape == (count, 2)
    with pytest.raises(ValueError):
        pairs[0, 0] = 0
    assert list(map(tuple, pairs.tolist())) == _reference_snapshot_pairs(comp)


def raw_records(text):
    """The Register and Gate records of a `raw_netlists` text, built
    without parse_netlist."""
    registers, gates, ids = [], [], {}
    for tok in map(str.split, text.splitlines()):
        if tok[0] in ("gate", "cgate"):
            cond = int(tok.pop(1)) if tok[0] == "cgate" else None
            gates.append(Gate(GateKind(tok[1]), tuple(ids[n] for n in tok[2:]), cond))
            continue
        if tok[0] == "in":
            name, role = tok[2], Role.SECRET if tok[1] == "secret" else Role.PUBLIC
        else:
            name, role = tok[1], Role.OUTPUT if tok[0] == "out" else Role.INTERNAL
        ids[name] = len(registers)
        registers.append(Register(len(registers), name, role, int(tok[-2:] == ["init", "1"])))
    return registers, gates


def skippable_condition(registers, gates):
    """Index of the first gate whose condition is an event of an earlier
    conditioned gate, or None."""
    events = sum(r.role in (Role.SECRET, Role.PUBLIC) for r in registers)
    skippable = set()
    for gi, g in enumerate(gates):
        if g.cond is not None:
            if g.cond in skippable:
                return gi
            skippable.update(range(events, events + len(g.args)))
        events += len(g.args)
    return None


# event 2 is the port of `cgate 1 NOT a`, which the rows with r = 0 skip
_SKIPPABLE = ("in secret s\nreg r\nreg a\nout o\ngate RAND r\n"
              "cgate 1 NOT a\ncgate 2 CNOT a o\ngate CNOT s o\n")


@_SETTINGS
@given(raw_netlists(any_condition=True))
@example(_SKIPPABLE)
def test_a_skippable_condition_is_refused_when_built(text):
    registers, gates = raw_records(text)
    at = skippable_condition(registers, gates)
    if at is not None:
        # the k-th gate is on line k after the declarations
        line_no = len(registers) + at + 1
        with pytest.raises(NetlistError) as parsed:
            parse_netlist(text)
        assert parsed.value.line_no == line_no
        with pytest.raises(CircuitError, match="is an event of a conditioned gate") as built:
            Circuit(registers, gates)
        assert built.value.gate == at
        assert str(parsed.value) == f"line {line_no}: {built.value}"
        return
    circ = parse_netlist(text)
    assert (circ.registers, circ.gates) == (tuple(registers), tuple(gates))
    # every condition is a plain bit: each row runs under both evaluators
    ns, npub = len(circ.secret_regs), len(circ.public_regs)
    rows = bit_rows(ns + npub + circ.rand_count)
    secs, pubs, tapes = rows[:, :ns], rows[:, ns:ns + npub], rows[:, ns + npub:]
    evaluate_batch(circ, secs, pubs, tapes)
    for sec, pub, tape in zip(secs, pubs, tapes):
        trace = evaluate(circ, sec, pub, RandomTape.of(tape))
        assert all(trace.values[g.cond] is not None for g in gates if g.cond is not None)


@_SETTINGS
@given(raw_netlists(any_condition=True), logical_netlists(), st.booleans())
def test_circuit_owns_its_leakable_and_conditioned_events(raw, logical, ec):
    compiled = compile_circuit(parse_netlist(logical), level=1, ec=ec).circuit
    built = [(compiled, serialize_netlist(compiled))]
    if skippable_condition(*raw_records(raw)) is None:  # the others are refused
        built.insert(0, (parse_netlist(raw), raw))
    for circ, text in built:
        assert circ.leakable.dtype == np.int64
        assert circ.leakable.tolist() == [e for e in range(circ.num_events)
                                          if e not in circ.leak_free]
        # the netlist lists the inputs first, then the gates in order, a
        # conditioned one as `cgate <condition event>`
        lines = [line.split() for line in text.splitlines()]
        starts, cond_of = [], [-1] * sum(tok[0] == "in" for tok in lines)
        for tok in lines:
            if tok[0] in ("gate", "cgate"):
                cond = int(tok.pop(1)) if tok[0] == "cgate" else -1
                starts.append(len(cond_of))
                cond_of += [cond] * (len(tok) - 2)
        assert circ.gate_start == tuple(starts)
        assert len(cond_of) == circ.num_events
        # a conditioned event runs in its condition's value slot
        program = circ.program
        ran_of, ones = program.ran_of, program.ones
        assert ran_of.dtype == np.int64 and ran_of.shape == (circ.num_events,)
        assert ran_of.tolist() == [ones if c < 0 else program.slot_of[c] for c in cond_of]
        # the ones slot on every input and on every event of an unconditioned gate
        assert (ran_of[list(circ.input_events.values())] == ones).all()
        assert all(ran_of[e] == ones
                   for g, start in zip(circ.gates, circ.gate_start) if g.cond is None
                   for e in range(start, start + len(g.args)))
        for facts in (circ.leakable, ran_of):
            with pytest.raises(ValueError, match="read-only"):
                facts[...] = 0
        ns, npub = len(circ.secret_regs), len(circ.public_regs)
        empty = np.zeros((0, ns + npub + circ.rand_count), dtype=np.int8)
        batch = evaluate_batch(circ, empty[:, :ns], empty[:, ns:ns + npub], empty[:, ns + npub:])
        assert batch.ran_of is ran_of and batch.ones == ones


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


# -- structural faults on generated circuits ------------------------------------


_FAULTS = ("repeated-operand", "operand-count", "undeclared-operand", "late-condition",
           "repeated-name", "unwritten-output")


@st.composite
def netlists_with_one_fault(draw):
    """(text, line number, message): a `raw_netlists()` text with one new
    line that holds exactly one structural fault, and the start of the
    message that names it."""
    lines = draw(raw_netlists()).splitlines()
    decls = [line.split() for line in lines if line.split()[0] in ("in", "reg", "out")]
    names = [tok[2] if tok[0] == "in" else tok[1] for tok in decls]
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "repeated-name":
        at = draw(st.integers(1, len(decls)))
        name = draw(st.sampled_from(names[:at]))
        line = draw(st.sampled_from([f"in public {name}", f"reg {name}", f"out {name}"]))
        message = f"duplicate register name {name!r}"
    elif fault == "unwritten-output":
        at = draw(st.integers(0, len(decls)))
        line, message = "out spare", "output register 'spare' is never written"
    else:
        at = draw(st.integers(len(decls), len(lines)))
        events = sum(tok[0] == "in" for tok in decls)
        events += sum(len(tok) - (3 if tok[0] == "cgate" else 2)
                      for tok in map(str.split, lines[len(decls):at]))
        least = 2 if fault == "repeated-operand" else 1
        kind = draw(st.sampled_from([k for k in GateKind if least <= k.arity <= len(names)]))
        ops = draw(st.permutations(names))[:kind.arity]
        cond = draw(st.none() | st.integers(0, events - 1))
        if fault == "repeated-operand":
            i, j = sorted(draw(st.permutations(range(kind.arity)))[:2])
            ops[j] = ops[i]
            message = f"duplicate operand in {kind.value} gate"
        elif fault == "operand-count":
            count = draw(st.sampled_from([c for c in range(min(3, len(names)) + 1)
                                          if c != kind.arity]))
            ops = draw(st.permutations(names))[:count]
            message = f"{kind.value} takes {kind.arity} operand(s), got {count}"
        elif fault == "undeclared-operand":
            ops[draw(st.integers(0, kind.arity - 1))] = "ghost"
            message = "reference to undeclared register 'ghost'"
        else:
            cond = events + draw(st.integers(0, 3))
            message = f"condition event {cond} does not precede the gate"
        head = "gate" if cond is None else f"cgate {cond}"
        line = " ".join([head, kind.value, *ops])
    lines.insert(at, line)
    return "\n".join(lines) + "\n", at + 1, message


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(netlists_with_one_fault())
def test_one_injected_fault_is_reported_at_its_line(case):
    text, line_no, message = case
    with pytest.raises(NetlistError, match=re.escape(f"line {line_no}: {message}")) as info:
        parse_netlist(text)
    assert info.value.line_no == line_no


@st.composite
def built_circuits(draw):
    """(registers, gates) for direct construction: 1-5 registers of any
    role, internal ones with init 0 or 1 and one register of any role maybe
    with init 1 or 2, and up to 6 gates of any kind, each maybe conditioned
    on an earlier event that every row runs, then a NOT on each output."""
    roles = draw(st.lists(st.sampled_from(list(Role)), min_size=1, max_size=5))
    inits = [draw(st.integers(0, 1)) if role is Role.INTERNAL else 0 for role in roles]
    odd = draw(st.none() | st.integers(0, len(roles) - 1))
    if odd is not None:
        inits[odd] = draw(st.integers(1, 2))
    registers = [Register(i, f"r{i}", role, init)
                 for i, (role, init) in enumerate(zip(roles, inits))]
    always = list(range(sum(role in (Role.SECRET, Role.PUBLIC) for role in roles)))
    events = len(always)
    kinds = [k for k in GateKind if k.arity <= len(roles)]
    drawn = [(kind, draw(st.permutations(range(len(roles))))[:kind.arity])
             for kind in draw(st.lists(st.sampled_from(kinds), max_size=6))]
    drawn += [(GateKind.NOT, [i]) for i, role in enumerate(roles) if role is Role.OUTPUT]
    gates = []
    for kind, args in drawn:
        cond = draw(st.none() | st.sampled_from(always)) if always else None
        if cond is None:
            always.extend(range(events, events + kind.arity))
        gates.append(Gate(kind, tuple(args), cond))
        events += kind.arity
    return registers, gates


_S, _O = Register(0, "s", Role.SECRET), Register(1, "o", Role.OUTPUT)


@_SETTINGS
@given(built_circuits())
@example(([_S, Register(1, "o", Role.OUTPUT, init=1)], [Gate(GateKind.CNOT, (0, 1))]))
@example(([_S, _O, Register(2, "t", Role.INTERNAL, init=2)], [Gate(GateKind.CNOT, (2, 1))]))
def test_a_built_circuit_round_trips_to_the_same_evaluation(case):
    try:
        circ = Circuit(*case)
    except CircuitError:
        return
    parsed = parse_netlist(serialize_netlist(circ))
    ns, npub = len(circ.secret_regs), len(circ.public_regs)
    rows = bit_rows(ns + npub + circ.rand_count)
    for row in rows.tolist():
        args = row[:ns], row[ns:ns + npub], RandomTape.of(row[ns + npub:])
        assert evaluate(parsed, *args) == evaluate(circ, *args)
        assert register_file(parsed, *args) == register_file(circ, *args)
    args = rows[:, :ns], rows[:, ns:ns + npub], rows[:, ns + npub:]
    want, got = evaluate_batch(circ, *args), evaluate_batch(parsed, *args)
    assert (event_planes(got), ran_planes(parsed, got), register_planes(got)) == (
        event_planes(want), ran_planes(circ, want), register_planes(want))


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
    rows = len(seeds)
    got = Planes(rows, encode_seed_planes(bits, Planes.pack(seeds).planes, level, rows)).unpack()
    assert got.tolist() == encode_by_rows(bits, seeds.tolist(), level)


def planes_of(matrix) -> list[int]:
    """One int per column of a 0/1 matrix, bit r holding row r, built from
    the column's binary digits."""
    return [int("".join(map(str, col[::-1])) or "0", 2) for col in matrix.T.tolist()]


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("rows", [1, 7, 9, 64, 4097])
def test_plane_encoder_equals_codeword_loop(level, rows):
    seeds = np.random.default_rng(rows).integers(0, 2, size=(rows, seed_count(2, level)))
    for bits in ([0, 1], [1, 1]):
        planes = encode_seed_planes(bits, planes_of(seeds), level, rows)
        assert len(planes) == 2 * 7 ** level
        assert all(0 <= p < 1 << rows for p in planes)
        got = [[(p >> r) & 1 for p in planes] for r in range(rows)]
        assert got == encode_by_rows(bits, seeds.tolist(), level)


@_SETTINGS
@given(st.booleans(), st.sampled_from((1, 7, 9, 64, 65)), st.data())
def test_evaluating_drawn_planes_equals_evaluate_batch_on_their_rows(compiled, rows, data):
    # a raw circuit may hold RAND and conditioned gates of every kind; a
    # compiled one adds RAND gates and conditioned readout corrections
    if compiled:
        logical = parse_netlist(data.draw(logical_netlists()))
        target = compile_circuit(logical, level=1, ec=data.draw(st.booleans()))
    else:
        logical = target = parse_netlist(data.draw(raw_netlists()))
    circ, _, level = _unpack(target)
    secret, x = (data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
                 for n in (len(logical.secret_regs), len(logical.public_regs)))
    enc_bits = seed_count(len(secret), level)
    width = enc_bits + circ.rand_count
    got = _evaluate_rows(circ, level, secret, x, _draw_planes(np.random.default_rng(rows),
                                                               rows, width))
    bits = drawn_rows(np.random.default_rng(rows), rows, width)
    enc = encode_seed_planes(secret, Planes.pack(bits[:, :enc_bits]).planes, level, rows)
    want = evaluate_batch(circ, Planes(rows, enc), x, bits[:, enc_bits:])
    assert (event_planes(got), ran_planes(circ, got), register_planes(got)) == (
        event_planes(want), ran_planes(circ, want), register_planes(want))


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
    35 to 39 base-3 digits that one int64 key pass holds at these sizes."""
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


def test_digits_per_pass_is_the_largest_that_fits_an_int64():
    # 2n * 3^D < 2^63: a rank among the 2n rows of two samples, then D digits
    for n, want in ((1, 39), (64, 35), (4097, 31), (10 ** 6, 26)):
        d = _digits_per_pass(n)
        assert 2 * n * 3 ** d < 2 ** 63 <= 2 * n * 3 ** (d + 1)
        assert d == want


@pytest.mark.parametrize("inner", [1025, 4097])
def test_rank_fold_is_exact_at_large_row_counts(inner):
    # mask 0 takes three key passes and mask 1 two (its spare columns hold
    # 0).  The first pass's digits are nearly distinct per row, so the ranks
    # carried into the next pass exceed 2^10; the last three digits come
    # from one of two rows, so two ranks confused by the fold would merge
    # row groups and change the TV.
    rng = np.random.default_rng(inner)
    step = _digits_per_pass(inner)
    widths, width = (2 * step + 3, step + 3), 2 * step + 3
    stacks = np.zeros((2, 2, inner, width), dtype=np.int8)
    for j, w in enumerate(widths):
        heads = rng.integers(-1, 2, size=(2 * inner, w - 3), dtype=np.int8)
        tails = rng.integers(-1, 2, size=(2, 3), dtype=np.int8)
        for side in (0, 1):
            rows = np.concatenate([heads[rng.integers(0, 2 * inner, inner)],
                                   tails[rng.integers(0, 2, inner)]], axis=1)
            stacks[side, j, :, :w] = rows
        firsts = np.concatenate(stacks[:, j, :, :step])
        assert len(np.unique(firsts, axis=0)) > 2 ** 10
    got = _empirical_tv(*stacks)
    want = [tv_by_counter(stacks[0, j, :, :w], stacks[1, j, :, :w])
            for j, w in enumerate(widths)]
    assert got.tolist() == want
    assert 0 < min(want) and max(want) < 1


def drawn_rows(np_rng, rows, width):
    """The int8 (rows, width) bit matrix of one _draw_planes draw: ceil(rows
    / 8) bytes per column, column after column, unpacked least significant
    bit first by np.unpackbits, past-the-end bits cut off."""
    nbytes = (rows + 7) // 8
    buf = np_rng.bytes(nbytes * width) if width else b""
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(width, nbytes)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :rows].T.astype(np.int8)


def mc_by_mask_loop(target, y0, y1, x, model, samples, seed, inner):
    """mc_advantage as it was before its tally read the bit-planes and
    before it drew bit-planes: per chunk one [seed | tape] int8 bit matrix
    (drawn_rows), each secret encoded on its seed planes and
    evaluated by evaluate_batch, the chunk's masked-column union unpacked
    with EventBatch.matrix, then each mask tallied on its own rows by
    Counter."""
    circ, _, level = _unpack(target, y0, y1)
    leakable = np.array([e for e in range(circ.num_events) if e not in circ.leak_free],
                        dtype=np.int64)
    enc_bits = seed_count(len(y0), level)
    width = enc_bits + circ.rand_count
    np_rng = np.random.default_rng(random.Random(seed).getrandbits(64))
    tvs, biases = np.zeros(samples), np.zeros(samples)
    empty = 0
    for pos in range(0, samples, 64):
        m = min(64, samples - pos)
        bits = drawn_rows(np_rng, m * inner, width)
        seeds = Planes.pack(bits[:, :enc_bits])
        ev0, ev1 = (evaluate_batch(circ, Planes(seeds.rows, encode_seed_planes(
            y, seeds.planes, level, seeds.rows)), x, bits[:, enc_bits:]) for y in (y0, y1))
        masks = np_rng.random((m, leakable.size)) < model.p
        leaked = masks.any(axis=0)
        masks = masks[:, leaked]
        m0, m1 = ev0.matrix(leakable[leaked]), ev1.matrix(leakable[leaked])
        for i in range(m):
            cols = np.flatnonzero(masks[i])
            if cols.size:
                lo, hi = i * inner, (i + 1) * inner
                tvs[pos + i] = tv_by_counter(m0[lo:hi, cols], m1[lo:hi, cols])
                biases[pos + i] = min(1.0, math.sqrt(min(3 ** cols.size, 2 * inner) / inner))
            else:
                empty += 1
    boot = np_rng.choice(tvs, size=(200, samples), replace=True).mean(axis=1)
    return AdvantageReport(
        estimate=float(tvs.mean()), std_error=float(boot.std(ddof=1)),
        bias_bound=float(biases.mean()), method="mask-decomposed-MC", samples=samples,
        details={"inner_tapes": inner, "p": model.p, "leakable_events": int(leakable.size),
                 "mean_mask_size": model.p * leakable.size, "bootstrap_resamples": 200,
                 "empty_masks": empty, "saturated_masks": int(sum(biases == 1.0)),
                 "rows_evaluated": 2 * samples * inner},
    )


@st.composite
def mc_cases(draw):
    """A raw circuit, or a logical one compiled at level 1, with two secrets
    and a public input of its logical widths, and a leakage model; compiled
    masks stay narrow, as at the leak rates the lab runs them."""
    if draw(st.booleans()):
        logical = parse_netlist(draw(logical_netlists()))
        target = compile_circuit(logical, level=1, ec=draw(st.booleans()))
        rates = [0.01, 0.05]
    else:
        logical = target = parse_netlist(draw(raw_netlists()))
        rates = [0.05, 0.3, 0.9]
    y0, y1, x = (draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
                 for n in (len(logical.secret_regs),) * 2 + (len(logical.public_regs),))
    return target, y0, y1, x, LeakageModel(draw(st.sampled_from(rates)))


_TOFFOLI_L1 = compile_circuit(
    parse_netlist("in secret a\nin secret b\nout c\ngate TOF a b c\n"), level=1, ec=True)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(mc_cases(), st.sampled_from(_INNER), st.integers(0, 2 ** 32))
@example((_TOFFOLI_L1, [0, 1], [1, 0], [], LeakageModel(0.01)), 64, 11)  # the mc_l1 golden
def test_mc_advantage_equals_per_mask_loop(case, inner, seed):
    args = (*case, 1000, seed, inner)
    got, want = mc_advantage(*args), mc_by_mask_loop(*args)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


# -- the transcript sampler against its per-round loop ---------------------------


def rounds_by_round_loop(target, secret, inputs, model, seed):
    """run_rounds one round at a time: per round one gen.random row of a
    uniform per seed bit, tape bit and leakable event, and each round's
    mask cut from the chunk's masked-column union by searchsorted."""
    circuit, _, level = _unpack(target, secret)
    gen = np.random.default_rng(random.Random(seed).getrandbits(64))
    leakable = [e for e in range(circuit.num_events) if e not in circuit.leak_free]
    enc_bits = seed_count(len(secret), level)
    nbits = enc_bits + circuit.rand_count
    out = []
    inputs, step = list(inputs), rows_per_batch(circuit)
    for lo in range(0, len(inputs), step):
        xs = [[int(b) & 1 for b in x] for x in inputs[lo:lo + step]]
        seeds = np.empty((len(xs), enc_bits), dtype=np.int8)
        tapes = np.empty((len(xs), circuit.rand_count), dtype=np.int8)
        masks = []
        for i in range(len(xs)):
            row = gen.random(nbits + len(leakable)).tolist()
            seeds[i] = [int(u < 0.5) for u in row[:enc_bits]]
            tapes[i] = [int(u < 0.5) for u in row[enc_bits:nbits]]
            masks.append(tuple(e for e, u in zip(leakable, row[nbits:]) if u < model.p))
        enc = encode_seed_planes(secret, Planes.pack(seeds).planes, level, len(xs))
        events = evaluate_batch(circuit, Planes(len(xs), enc), xs, tapes)
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
    # the uniforms one round draws: one per tape bit and per leakable event
    cells = circ.rand_count + circ.num_events - len(circ.leak_free)
    for s in (seed, *_ODD_SEEDS):
        want = _transcript_json(rounds_by_round_loop(circ, secret, inputs, LeakageModel(p), s))
        for block in (lab._DRAW_BLOCK_CELLS, 1, cells - 1, cells, cells + 1, 3 * cells):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lab, "_DRAW_BLOCK_CELLS", block)
                got = run_rounds(circ, secret, inputs, LeakageModel(p), s)
            assert _transcript_json(got) == want, (s, block)


def test_compiled_run_rounds_equals_random_loop():
    # each round's seed bits come before its tape
    comp = compile_circuit(parse_netlist("in secret a\nin secret b\nout c\ngate TOF a b c\n"))
    for seed in (7, "abc"):
        args = (comp, [0, 1], [[]] * 5, LeakageModel(0.05), seed)
        assert _transcript_json(run_rounds(*args)) == _transcript_json(rounds_by_round_loop(*args))


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
