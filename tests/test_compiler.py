"""Gadget-by-gadget checks and whole-circuit compilation."""

import json
from itertools import product

import numpy as np
import pytest

from lrcirc.circuits import (
    GateKind,
    RandomTape,
    Role,
    evaluate,
    evaluate_batch,
    batch_outputs,
    register_file,
    truth_table,
)
from lrcirc.compiler import (
    TAPE_COST,
    CircuitBuilder,
    CompiledCircuit,
    CompileError,
    compile_circuit,
    emit_measure_x,
    encode_seed_planes,
    location_report,
    prep_plus_gadget,
    prep_zero_gadget,
    shor_prep_gadget,
    shor_verify_gadget,
    steane_ec_gadget,
    toffoli_ancilla_gadget,
    toffoli_gadget,
)
from lrcirc.faults import SHOR_DECODE, SHOR_PREP, transversality_audit
from lrcirc.lab import encoded_secret_rows
from lrcirc.netlist import parse_netlist, serialize_netlist
from lrcirc import steane
from lrcirc.steane import logical_value, word_str

import random

EVEN = {word_str(w) for w in steane.EVEN}
ODD = {word_str(w) for w in steane.ODD}
ALL_CODEWORDS = EVEN | ODD


def run_gadget(build_fn, tape_bits, secret=()):
    b = CircuitBuilder()
    result = build_fn(b)
    circ = b.build()
    vals = register_file(circ, secret, [], RandomTape.of(tape_bits))
    return circ, vals, result


def block_word(vals, block):
    return "".join(str(vals[r]) for r in block)


# -- measurement translation ---------------------------------------------------


def test_translate_measure_x_readout_uniform_and_independent():
    # enumerate the 4 tape values for both data values
    outcomes = {0: [], 1: []}
    for data, t1, t2 in product((0, 1), repeat=3):
        b = CircuitBuilder()
        wire = b.new_reg("w", Role.SECRET)
        readout = emit_measure_x(b, wire)
        circ = b.build()
        vals = register_file(circ, [data], [], RandomTape.of([t1, t2]))
        outcomes[data].append(vals[readout])
    # readout marginal uniform and identical for both data values
    for data in (0, 1):
        assert sorted(outcomes[data]) == [0, 0, 1, 1]
    assert TAPE_COST["measure-x"] == 2


# -- preparation gadgets --------------------------------------------------------


def zero_gadget_tape(seeds, verification=(0,) * 14):
    return list(seeds) + list(verification)


def test_prep_zero_seed_examples():
    for seeds, want in [((0, 0, 0), "0000000"), ((1, 0, 0), "1010101")]:
        _, vals, block = run_gadget(
            lambda b: prep_zero_gadget(b, "d"), zero_gadget_tape(seeds)
        )
        assert block_word(vals, block) == want


def test_prep_zero_uniform_over_even_class():
    seen = []
    for seeds in product((0, 1), repeat=3):
        _, vals, block = run_gadget(
            lambda b: prep_zero_gadget(b, "d"), zero_gadget_tape(seeds)
        )
        seen.append(block_word(vals, block))
    assert len(set(seen)) == 8
    assert set(seen) == EVEN


def test_prep_zero_block_ignores_verification_bits():
    rng = random.Random(5)
    for _ in range(10):
        ver = [rng.getrandbits(1) for _ in range(14)]
        _, vals, block = run_gadget(
            lambda b: prep_zero_gadget(b, "d"), zero_gadget_tape((1, 1, 0), ver)
        )
        assert block_word(vals, block) == block_word(
            run_gadget(lambda b: prep_zero_gadget(b, "d"),
                       zero_gadget_tape((1, 1, 0)))[1], block
        )


def test_prep_zero_tape_cost():
    circ, _, _ = run_gadget(lambda b: prep_zero_gadget(b, "d"),
                            zero_gadget_tape((0, 0, 0)))
    assert circ.rand_count == TAPE_COST["prep-zero"] == 17


def plus_gadget_tape(seeds, flip, verification=(0,) * 14):
    return list(seeds) + list(verification) + [flip]


def test_prep_plus_examples():
    _, vals, (block, _) = run_gadget(
        lambda b: prep_plus_gadget(b, "d"), plus_gadget_tape((0, 0, 0), 1)
    )
    assert block_word(vals, block) == "1110000"
    _, vals0, (block0, _) = run_gadget(
        lambda b: prep_plus_gadget(b, "d"), plus_gadget_tape((1, 0, 1), 0)
    )
    assert logical_value(tuple(vals0[r] for r in block0)) == 0


def test_prep_plus_uniform_over_code():
    seen = set()
    for seeds in product((0, 1), repeat=3):
        for flip in (0, 1):
            _, vals, (block, _) = run_gadget(
                lambda b: prep_plus_gadget(b, "d"), plus_gadget_tape(seeds, flip)
            )
            w = block_word(vals, block)
            assert logical_value(tuple(int(c) for c in w)) == flip
            seen.add(w)
    assert seen == ALL_CODEWORDS
    assert TAPE_COST["prep-plus"] == 18


def test_flip_touches_exactly_logical_support():
    base = run_gadget(lambda b: prep_plus_gadget(b, "d"),
                      plus_gadget_tape((1, 1, 1), 0))
    flipped = run_gadget(lambda b: prep_plus_gadget(b, "d"),
                         plus_gadget_tape((1, 1, 1), 1))
    w0 = block_word(base[1], base[2][0])
    w1 = block_word(flipped[1], flipped[2][0])
    diff = [i + 1 for i, (a, c) in enumerate(zip(w0, w1)) if a != c]
    assert diff == [1, 2, 3]


# -- Shor-state gadgets -----------------------------------------------------------


def test_shor_prep_zero_tape():
    _, vals, block = run_gadget(lambda b: shor_prep_gadget(b, "s"), [0] * 6)
    assert block_word(vals, block) == "0000000"


def test_shor_prep_r1_only():
    # tape order: wires 1,2,3,5,6,7
    _, vals, block = run_gadget(lambda b: shor_prep_gadget(b, "s"), [1, 0, 0, 0, 0, 0])
    assert block_word(vals, block) == "1100000"


def test_shor_prep_word_formula_and_bijection():
    # independent oracle: the documented linear form of the output word
    seen = set()
    for r1, r2, r3, r5, r6, r7 in product((0, 1), repeat=6):
        _, vals, block = run_gadget(
            lambda b: shor_prep_gadget(b, "s"), [r1, r2, r3, r5, r6, r7]
        )
        got = block_word(vals, block)
        want = (r1, r1 ^ r2, r2 ^ r3, r3 ^ r5, r5 ^ r6, r6 ^ r7, r7)
        assert got == "".join(map(str, want))
        assert sum(want) % 2 == 0
        seen.add(got)
    assert len(seen) == 64
    assert seen == {
        "".join(map(str, w))
        for w in product((0, 1), repeat=7) if sum(w) % 2 == 0
    }


def test_shor_verify_z_readout_and_tape():
    def build(b):
        block = shor_prep_gadget(b, "s")
        ros = shor_verify_gadget(b, block, "s")
        return block, ros

    rng = random.Random(2)
    for _ in range(10):
        tape = [rng.getrandbits(1) for _ in range(18)]
        circ, vals, (block, ros) = run_gadget(build, tape)
        # wire 5 is untouched after its readout COPY, so the Z readout must
        # equal its value at measurement time (post decode schedule)
        assert vals[ros[5]] == vals[block[4]]
    assert circ.rand_count == 6 + TAPE_COST["shor-verify"]


def test_shor_gadgets_emit_the_audited_schedules():
    # the compiler emits the very schedules the fault audit checks
    b = CircuitBuilder()
    block = shor_prep_gadget(b, "s")
    shor_verify_gadget(b, block, "s")
    pos = {rid: j for j, rid in enumerate(block, start=1)}

    def on_block(kind):
        return [tuple(pos[a] for a in g.args) for g in b.gates
                if g.kind is kind and all(a in pos for a in g.args)]

    assert on_block(GateKind.CNOT) == list(SHOR_PREP.cnots + SHOR_DECODE.cnots)
    assert on_block(GateKind.RAND) == [(w,) for w, s in SHOR_PREP.prep.items() if s == "plus"]
    # X-measured wires are randomized from a scratch register, Z-read ones copied out
    randomized = [pos[g.args[1]] for g in b.gates if g.kind is GateKind.CNOT
                  and g.args[0] not in pos and g.args[1] in pos]
    copied = [pos[g.args[0]] for g in b.gates if g.kind is GateKind.COPY and g.args[0] in pos]
    assert randomized == [w for w, m in SHOR_DECODE.measure.items() if m == "X"]
    assert copied == [w for w, m in SHOR_DECODE.measure.items() if m == "Z"]


# -- Toffoli machinery ---------------------------------------------------------------


def theta_tape(flips=(0, 0, 0)):
    """Tape for the three-block ancilla: three plus-preps, then the
    even-weight block and its decoder; non-flip bits default to zero."""
    bits = []
    for f in flips:
        bits += [0] * 17 + [f]
    bits += [0] * 6       # shor prep
    bits += [0] * 12      # shor verify
    return bits


def test_theta_tape_cost():
    circ, _, _ = run_gadget(lambda b: toffoli_ancilla_gadget(b, "th"), theta_tape())
    assert circ.rand_count == TAPE_COST["toffoli-ancilla"] == 72


def test_theta_triple_over_flip_enumeration():
    seen = set()
    for flips in product((0, 1), repeat=3):
        _, vals, (a1, a2, a3) = run_gadget(
            lambda b: toffoli_ancilla_gadget(b, "th"), theta_tape(flips)
        )
        triple = tuple(
            logical_value(tuple(vals[r] for r in blk)) for blk in (a1, a2, a3)
        )
        assert triple == (flips[0], flips[1], flips[0] & flips[1])
        seen.add(triple)
    assert seen == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)}


def test_theta_triple_random_tapes():
    rng = random.Random(11)
    seen = set()
    for _ in range(200):
        bits = [rng.getrandbits(1) for _ in range(72)]
        _, vals, (a1, a2, a3) = run_gadget(
            lambda b: toffoli_ancilla_gadget(b, "th"), bits
        )
        triple = tuple(
            logical_value(tuple(vals[r] for r in blk)) for blk in (a1, a2, a3)
        )
        assert triple in {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)}
        for blk in (a1, a2, a3):
            assert block_word(vals, blk) in ALL_CODEWORDS
        seen.add(triple)
    assert seen == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)}


def build_toffoli_harness():
    """Three secret input blocks feeding one Toffoli gadget."""
    b = CircuitBuilder()
    blocks = []
    for name in ("d1", "d2", "d3"):
        blk = tuple(b.new_reg(f"{name}.{j}", Role.SECRET) for j in range(1, 8))
        b.blocks.append((name, blk))
        blocks.append(blk)
    outs = toffoli_gadget(b, *blocks, base="g")
    return b.build(), outs


def test_toffoli_gadget_tape_cost():
    circ, _ = build_toffoli_harness()
    assert circ.rand_count == TAPE_COST["toffoli"] == 86


def test_toffoli_gadget_all_inputs_random_tapes():
    from lrcirc.steane import encode_codeword

    circ, outs = build_toffoli_harness()
    rng = random.Random(23)
    for x, y, z in product((0, 1), repeat=3):
        for _ in range(40):
            secret = []
            for bit in (x, y, z):
                seeds = tuple(rng.getrandbits(1) for _ in range(3))
                secret += list(encode_codeword(bit, seeds))
            tape = RandomTape.of([rng.getrandbits(1) for _ in range(86)])
            vals = register_file(circ, secret, [], tape)
            got = tuple(
                logical_value(tuple(vals[r] for r in blk)) for blk in outs
            )
            assert got == (x, y, z ^ (x & y))
            for blk in outs:
                assert block_word(vals, blk) in ALL_CODEWORDS


def test_toffoli_gadget_exhaustive_over_representatives():
    # every codeword representative of every logical input triple (4096
    # input rows), decoded in batch via appended parity cascades
    from lrcirc.compiler import emit_parity_readout
    from lrcirc.steane import encode_codeword

    b = CircuitBuilder()
    blocks = []
    for name in ("d1", "d2", "d3"):
        blk = tuple(b.new_reg(f"{name}.{j}", Role.SECRET) for j in range(1, 8))
        b.blocks.append((name, blk))
        blocks.append(blk)
    outs = toffoli_gadget(b, *blocks, base="g")
    decode = [emit_parity_readout(b, blk, f"dec{i}")[1]
              for i, blk in enumerate(outs)]
    circ = b.build()

    rows, expect = [], []
    for x, y, z in product((0, 1), repeat=3):
        for s1 in product((0, 1), repeat=3):
            for s2 in product((0, 1), repeat=3):
                for s3 in product((0, 1), repeat=3):
                    rows.append(
                        list(encode_codeword(x, s1))
                        + list(encode_codeword(y, s2))
                        + list(encode_codeword(z, s3))
                    )
                    expect.append((x, y, z ^ (x & y)))
    secret = np.array(rows, dtype=np.int8)
    expect = np.array(expect, dtype=np.int8)
    rng = np.random.default_rng(51)
    for _ in range(3):
        tape_row = rng.integers(0, 2, size=(1, circ.rand_count), dtype=np.int8)
        tapes = np.broadcast_to(tape_row, (len(rows), circ.rand_count))
        got = evaluate_batch(circ, secret, [], tapes).matrix(decode)
        assert (got == expect).all()


def test_compile_is_deterministic():
    text = "in secret a\nin secret b\nout c\ngate TOF a b c\n"
    c1 = compile_circuit(parse_netlist(text), level=1, ec=True)
    c2 = compile_circuit(parse_netlist(text), level=1, ec=True)
    assert serialize_netlist(c1.circuit) == serialize_netlist(c2.circuit)
    assert c1.to_json_dict() == c2.to_json_dict()


def test_toffoli_gadget_zero_ancilla_hand_trace():
    # with a=b=0 and all ancilla randomness zero: m2 = y, m1 = x, and the
    # correction algebra gives A3 = z ^ m1*y = z ^ xy
    circ, outs = build_toffoli_harness()
    for x, y, z in product((0, 1), repeat=3):
        secret = []
        for bit in (x, y, z):
            secret += [bit, bit, bit, 0, 0, 0, 0]  # logical-support codeword
        vals = register_file(circ, secret, [], RandomTape.of([0] * 86))
        got = tuple(logical_value(tuple(vals[r] for r in blk)) for blk in outs)
        assert got == (x, y, z ^ (x & y))


# -- error correction -----------------------------------------------------------------


def test_steane_ec_preserves_block_and_costs_18():
    rng = random.Random(3)
    from lrcirc.steane import encode_codeword

    def build(b):
        blk = tuple(b.new_reg(f"d.{j}", Role.SECRET) for j in range(1, 8))
        b.blocks.append(("d", blk))
        steane_ec_gadget(b, blk, "ec")
        return blk

    for bit in (0, 1):
        codeword = encode_codeword(bit, (1, 0, 1))
        for _ in range(20):
            tape = [rng.getrandbits(1) for _ in range(18)]
            circ, vals, blk = run_gadget(build, tape, secret=list(codeword))
            assert tuple(vals[r] for r in blk) == codeword  # never written
    assert circ.rand_count == TAPE_COST["error-correction"] == 18


# -- whole-circuit compilation ----------------------------------------------------------


ONE_TOFFOLI = "in secret a\nin secret b\nout c\ngate TOF a b c\n"


def compiled_outputs(compiled, secret, public, n_tapes, seed):
    """Decoded outputs over n sampled tapes (fresh encodings per tape)."""
    rng = np.random.default_rng(seed)
    circ = compiled.circuit
    tapes = rng.integers(0, 2, size=(n_tapes, circ.rand_count), dtype=np.int8)
    enc = encoded_secret_rows(compiled, secret, n_tapes, rng)
    events = evaluate_batch(circ, enc, public, tapes)
    return batch_outputs(circ, events)


def test_compile_one_cnot_ec_off_structure():
    logical = parse_netlist("in secret a\nout c\ngate CNOT a c\n")
    comp = compile_circuit(logical, level=1, ec=False)
    kinds = [g["kind"] for g in comp.gadget_index if g["depth"] == 0]
    assert kinds == ["prep-block", "logical-cnot", "output-readout"]
    cnot_span = next(g for g in comp.gadget_index if g["kind"] == "logical-cnot")
    assert cnot_span["gates"][1] - cnot_span["gates"][0] == 7
    # readout cascade: 7 CNOTs into the declared output register
    ro_span = next(g for g in comp.gadget_index if g["kind"] == "output-readout")
    assert ro_span["gates"][1] - ro_span["gates"][0] == 7


def _top_level_gaps(comp):
    """Gates outside every top-level span; the spans must be listed in gate
    order and never overlap."""
    gaps, pos = [], 0
    for a, bnd in (g["gates"] for g in comp.gadget_index if g["depth"] == 0):
        assert pos <= a < bnd
        gaps.extend(range(pos, a))
        pos = bnd
    return gaps + list(range(pos, len(comp.circuit.gates)))


def test_compile_top_level_spans_partition_gates():
    # at level 1 the top-level spans tile the gate list; at level 2 the only
    # gates between them are the whitelisted 7-CNOT parity readouts that
    # decode each of the level-1 circuit's gate conditions
    level1 = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    assert _top_level_gaps(level1) == []
    level2 = compile_circuit(parse_netlist(ONE_TOFFOLI), level=2, ec=True)
    gaps = _top_level_gaps(level2)
    conditioned = sum(g.cond is not None for g in level1.circuit.gates)
    assert (conditioned, len(gaps), len(level2.circuit.gates)) == (23, 7 * 23, 28_219)
    assert set(gaps) <= set(level2.readout_gates)
    assert all(level2.circuit.gates[gi].kind is GateKind.CNOT for gi in gaps)


def test_compile_only_primitive_kinds_remain():
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    kinds = {g.kind for g in comp.circuit.gates}
    assert kinds <= {GateKind.NOT, GateKind.CNOT, GateKind.TOF,
                     GateKind.RAND, GateKind.COPY}


def test_compile_drops_phase_gates_with_log():
    logical = parse_netlist(
        "in secret a\nout c\ngate Z a\ngate CNOT a c\ngate CZ a c\n"
    )
    comp = compile_circuit(logical, ec=False)
    assert len(comp.log) == 2
    assert "dropped Z" in comp.log[0] and "dropped CZ" in comp.log[1]


def test_compile_rejects_rand():
    logical = parse_netlist("reg a\nout c\ngate RAND a\ngate CNOT a c\n")
    with pytest.raises(CompileError, match="unsupported"):
        compile_circuit(logical)


def test_compile_rejects_conditioned_gates():
    logical = parse_netlist("in secret s\nout o\ncgate 0 CNOT s o\n")
    with pytest.raises(CompileError, match="conditioned gates are not compilable"):
        compile_circuit(logical)


def test_encode_seed_planes_refuses_too_few_seed_columns():
    with pytest.raises(ValueError, match="need 3 seed columns, got 2"):
        encode_seed_planes([1], (0, 1), level=1, rows=4)


def test_compiled_netlist_roundtrip():
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    text = serialize_netlist(comp.circuit)
    again = parse_netlist(text)
    assert again.gates == comp.circuit.gates
    assert again.registers == comp.circuit.registers


def test_compiled_functional_equivalence_one_toffoli():
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    for a, b in product((0, 1), repeat=2):
        outs = compiled_outputs(comp, [a, b], [], 200, seed=a * 2 + b)
        assert (outs[:, 0] == (a & b)).all()


def test_compiled_init_one_register():
    logical = parse_netlist(
        "in secret s\nreg t init 1\nout o\ngate TOF s t o\ngate CNOT t o\n"
    )
    comp = compile_circuit(logical, level=1, ec=True)
    table = truth_table(logical)
    for s in (0, 1):
        want = next(iter(table[((s,), ())]))[0]
        outs = compiled_outputs(comp, [s], [], 100, seed=41 + s)
        assert (outs[:, 0] == want).all()


def test_location_counts_accessor():
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    per_gadget = location_report(comp)["per_gadget"]
    assert sum(e["count"] for e in per_gadget.values()) == len(comp.gadget_index)
    assert "toffoli" in per_gadget and "prep-zero" in per_gadget
    assert all(e["locations_min"] > 0 for e in per_gadget.values())


def test_compiled_functional_equivalence_with_public_and_not():
    text = (
        "in secret s\nin public x\nout o\n"
        "gate NOT s\ngate CNOT x o\ngate TOF s x o\ngate NOT o\n"
    )
    logical = parse_netlist(text)
    comp = compile_circuit(logical, level=1, ec=True)
    table = truth_table(logical)
    for s, x in product((0, 1), repeat=2):
        want = next(iter(table[((s,), (x,))]))[0]
        outs = compiled_outputs(comp, [s], [x], 100, seed=17 + s * 2 + x)
        assert (outs[:, 0] == want).all()


@pytest.mark.parametrize("text", [
    ONE_TOFFOLI,
    "in secret a\nin secret b\nreg t\nout o\ngate TOF a b t\ngate TOF a t o\n",
    "in secret s\nin public x\nout o\ngate NOT s\ngate CNOT x o\ngate TOF s x o\ngate NOT o\n",
], ids=["one-toffoli", "two-toffoli", "public-not"])
@pytest.mark.parametrize("level, ec", [(1, True), (1, False), (2, True), (2, False)])
def test_gadget_index_fits_its_circuit(text, level, ec):
    # the index read back against its own circuit passes every from_json_dict
    # check, among them: the secret blocks concatenate to the secret registers
    comp = compile_circuit(parse_netlist(text), level=level, ec=ec)
    index = json.loads(json.dumps(comp.to_json_dict()))
    again = CompiledCircuit.from_json_dict(comp.circuit, index)
    assert again.to_json_dict() == comp.to_json_dict()
    assert [r for b in again.secret_blocks for r in b] == [
        r.id for r in again.circuit.secret_regs]


def test_compiled_blocks_hold_codewords():
    # every live (final block map) block holds a codeword at circuit end
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    rng = random.Random(9)
    nprng = np.random.default_rng(9)
    circ = comp.circuit
    for _ in range(20):
        enc = encoded_secret_rows(comp, [rng.getrandbits(1), rng.getrandbits(1)], 1, nprng)
        tape = RandomTape.of([rng.getrandbits(1) for _ in range(circ.rand_count)])
        vals = register_file(circ, enc[0].tolist(), [], tape)
        for _name, blk in comp.block_map.items():
            assert "".join(str(vals[r]) for r in blk) in ALL_CODEWORDS


def test_transversality_audit_on_compiled():
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    report = transversality_audit(
        comp.circuit, comp.blocks, whitelist_gates=frozenset(comp.readout_gates)
    )
    assert report["clean"]


def test_rand_accounting_whole_circuit():
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    # prep-block(17) + toffoli(86) + 3 EC(18) + readout(0)
    assert comp.circuit.rand_count == 17 + 86 + 3 * 18
    per_gadget = {
        (g["kind"], g["source"]): g["tape"][1] - g["tape"][0]
        for g in comp.gadget_index if g["depth"] == 0
    }
    for (kind, _), used in per_gadget.items():
        if kind in ("prep-block",):
            assert used == TAPE_COST["prep-zero"]
        elif kind == "toffoli":
            assert used == TAPE_COST["toffoli"]
        elif kind == "error-correction":
            assert used == TAPE_COST["error-correction"]
        elif kind == "output-readout":
            assert used == 0


def test_encode_secret_uniform_and_eventless():
    # the encoding happens outside the circuit: the compiled secret block is
    # seven input events, fed a fresh codeword of the logical bit per row
    comp = compile_circuit(parse_netlist("in secret s\n"), ec=True)
    assert comp.circuit.num_events == 7 and not comp.circuit.gates
    enc = encoded_secret_rows(comp, [1], 300, np.random.default_rng(1))
    assert all(logical_value(row) == 1 for row in enc.tolist())
    assert len({tuple(row) for row in enc.tolist()}) == 8


def test_empty_circuit_compiles_to_inputs_only():
    comp = compile_circuit(parse_netlist("in secret s\n"), ec=True)
    assert comp.gadget_index == []
    assert len(comp.circuit.gates) == 0
    report = location_report(comp)
    assert report["per_gadget"] == {}
    assert report["own"] is None


def test_location_report_reference_arithmetic():
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    report = location_report(comp)
    assert report["reference"]["pairs"] == 190
    assert report["reference"]["threshold_estimate"] == pytest.approx(1 / 190)
    assert report["own"]["pairs"] == report["own"]["locations"] * (
        report["own"]["locations"] - 1
    ) // 2
    assert report["size"]["gate_ratio"] > 100  # wide expansion


def test_level2_smoke_structure_and_function():
    logical = parse_netlist("in secret a\nout c\ngate CNOT a c\n")
    comp2 = compile_circuit(logical, level=2, ec=False)
    assert comp2.level == 2
    assert len(comp2.circuit.gates) > 10 * len(
        compile_circuit(logical, level=1, ec=False).circuit.gates
    )
    for a in (0, 1):
        outs = compiled_outputs(comp2, [a], [], 20, seed=31 + a)
        assert (outs[:, 0] == a).all()


def test_level2_two_public_inputs():
    # every input is declared before the first gate at level 2 as well, so
    # more than one public input compiles and decodes correctly
    logical = parse_netlist(
        "in secret s\nin public x\nin public z\nout o\n"
        "gate CNOT s o\ngate CNOT x o\ngate CNOT z o\n"
    )
    comp2 = compile_circuit(logical, level=2, ec=False)
    assert len(comp2.circuit.gates) == 10_283
    assert [r.name for r in comp2.circuit.public_regs] == ["x", "z"]
    for k, (s, x, z) in enumerate(product((0, 1), repeat=3)):
        want = evaluate(logical, [s], [x, z], RandomTape.of([])).outputs["o"]
        outs = compiled_outputs(comp2, [s], [x, z], 4, seed=90 + k)
        assert (outs[:, 0] == want).all()


@pytest.mark.parametrize("text", [
    "in secret a\nout a.3\ngate CNOT a a.3\n",
    "in secret a\nin public a.1\nout o\ngate CNOT a o\n",
])
@pytest.mark.parametrize("level", [1, 2])
def test_register_names_spelled_like_block_registers(text, level):
    # `a.3` and `a.1` are also the default names of secret a's block
    # registers; the block moves to a free base instead of colliding
    logical = parse_netlist(text)
    comp = compile_circuit(logical, level=level, ec=True)
    names = [r.name for r in logical.public_regs + logical.output_regs]
    assert [r.name for r in comp.circuit.public_regs + comp.circuit.output_regs] == names
    for k, (a, x) in enumerate(product((0, 1), repeat=2)):
        pub = [x] * len(logical.public_regs)
        want = evaluate(logical, [a], pub, RandomTape.of([])).outputs
        outs = compiled_outputs(comp, [a], pub, 4, seed=70 + k)
        assert (outs == [want[r.name] for r in logical.output_regs]).all()


def test_level2_guard():
    # four EC'd Toffolis put the level-1 result past the expansion guard
    text = (
        "in secret a\nin secret b\nreg t\nout o\n"
        "gate TOF a b t\ngate TOF a t o\ngate TOF b o t\ngate TOF a b o\n"
    )
    with pytest.raises(CompileError, match="level-2 expansion refused"):
        compile_circuit(parse_netlist(text), level=2, ec=True)


def test_compile_level_validation():
    with pytest.raises(CompileError):
        compile_circuit(parse_netlist("in secret s\n"), level=3)


def test_build_rejects_drifted_event_accounting():
    b = CircuitBuilder()
    s, t = b.new_reg("s", Role.SECRET), b.new_reg("t")
    b.emit(GateKind.CNOT, s, t)
    assert b.build().num_events == 3
    b._event += 1
    with pytest.raises(CompileError, match="event accounting drifted: builder counted 4 "
                                           "events, circuit has 3"):
        b.build()


# frozen construction sizes: gates emitted per gadget (changing the emitted
# shape of any gadget must be a deliberate, test-visible decision)
GATE_COST = {
    "bare-plus": 19,
    "prep-zero": 57,
    "prep-plus": 61,
    "error-correction": 54,
    "shor-prep": 12,
    "shor-verify": 31,
    "toffoli-ancilla": 250,
    "toffoli": 336,
}


def test_gadget_gate_counts_frozen():
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    for g in comp.gadget_index:
        if g["kind"] in GATE_COST:
            assert g["gates"][1] - g["gates"][0] == GATE_COST[g["kind"]], g["kind"]
    seen = {g["kind"] for g in comp.gadget_index}
    assert set(GATE_COST) <= seen


def test_batch_matches_scalar_on_compiled_circuit():
    # the vectorized path must agree with the reference evaluator on the
    # real compiled artifact, conditioned corrections included
    comp = compile_circuit(parse_netlist(ONE_TOFFOLI), level=1, ec=True)
    circ = comp.circuit
    nprng = np.random.default_rng(78)
    tapes = nprng.integers(0, 2, size=(8, circ.rand_count), dtype=np.int8)
    enc = encoded_secret_rows(comp, [1, 0], 1, np.random.default_rng(77))[0].tolist()
    events = evaluate_batch(circ, enc, [], tapes).matrix()
    for row, tape in zip(events, tapes):
        ref = evaluate(circ, enc, [], RandomTape.of(tape))
        want = [(-1 if v is None else v) for v in ref.values]
        assert row.tolist() == want
