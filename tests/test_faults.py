"""Z-mask propagation and the ancilla-preparation fault audit."""

import pytest

from lrcirc.circuits import Gate, GateKind, Register, Role, Circuit
from lrcirc.faults import (
    EMPTY_MASK,
    MARKED_FAULTS,
    SHOR_PREP,
    enumerate_single_faults,
    fold_complement,
    propagate_z,
    syndrome_of,
    transversality_audit,
    zmask,
)


def test_empty_mask_propagates_to_empty():
    assert propagate_z(EMPTY_MASK, SHOR_PREP) == EMPTY_MASK


def test_z2_before_final_cnot():
    # Z on wire 2 just before CNOT(1,2) picks up the control
    assert propagate_z(zmask(2), SHOR_PREP, from_slot=5) == zmask(1, 2)


def test_marked_position_2():
    slot, wire = MARKED_FAULTS[2]
    assert propagate_z(zmask(wire), SHOR_PREP, from_slot=slot) == zmask(1, 2, 3)


def test_all_marked_positions():
    want = {1: zmask(1, 2), 2: zmask(1, 2, 3), 3: zmask(5, 6, 7), 4: zmask(6, 7)}
    for pos, (slot, wire) in MARKED_FAULTS.items():
        assert propagate_z(zmask(wire), SHOR_PREP, from_slot=slot) == want[pos]


@pytest.mark.parametrize(
    "mask,syn",
    [
        (zmask(1, 2), {1, 2, 6}),
        (zmask(1, 2, 3), {1, 2, 3, 6, 7}),
        (zmask(5, 6, 7), {2, 4, 6, 7}),  # wire-5 component dropped by Z readout
        (zmask(6, 7), {6, 7}),
    ],
)
def test_decoder_syndromes(mask, syn):
    assert syndrome_of(mask) == frozenset(syn)


def test_propagation_is_a_homomorphism():
    m1, m2 = zmask(2, 5), zmask(3, 6, 7)
    a = propagate_z(m1, SHOR_PREP)
    b = propagate_z(m2, SHOR_PREP)
    assert propagate_z(m1 ^ m2, SHOR_PREP) == a ^ b


def test_full_mask_is_stabilizer():
    # Z on every wire fixes the even-weight state: empty decoder syndrome
    assert syndrome_of(frozenset(range(1, 8))) == frozenset()


def test_fold_complement():
    assert fold_complement(zmask(1, 2, 3, 4)) == zmask(5, 6, 7)
    assert fold_complement(zmask(6, 7)) == zmask(6, 7)
    assert fold_complement(frozenset(range(1, 8))) == frozenset()


def test_slot_out_of_range():
    with pytest.raises(ValueError):
        propagate_z(zmask(1), SHOR_PREP, from_slot=9)


def test_enumeration_finds_exactly_four_multi_classes():
    report = enumerate_single_faults()
    assert report["distinct"]
    assert report["multi_error_classes"] == [[1, 2], [1, 2, 3], [5, 6, 7], [6, 7]]
    assert report["sites_enumerated"] == 49


def test_enumeration_covers_marked_sites():
    report = enumerate_single_faults()
    by_pattern = {tuple(c["pattern"]): c for c in report["classes"]}
    for pos, (slot, wire) in MARKED_FAULTS.items():
        pattern = tuple(sorted(propagate_z(zmask(wire), SHOR_PREP, from_slot=slot)))
        assert {"slot": slot, "wire": wire} in by_pattern[pattern]["sites"]


def test_complement_fold_merges_first_cnot_target_fault():
    # a fault on the first CNOT's target leg propagates to {1,2,3,4}, which
    # is the same physical error as {5,6,7}
    raw = propagate_z(zmask(4), SHOR_PREP, from_slot=1)
    assert raw == zmask(1, 2, 3, 4)
    report = enumerate_single_faults()
    cls = next(c for c in report["classes"] if c["pattern"] == [5, 6, 7])
    assert [1, 2, 3, 4] in cls["raw_patterns"]


def test_audit_reports_a_degenerate_decoder():
    from lrcirc.faults import CliffordCircuit

    # a decoder that measures everything in Z sees no phase errors at all
    blind = CliffordCircuit(wires=7, cnots=(), prep={},
                            measure={w: "Z" for w in range(1, 8)})
    report = enumerate_single_faults(SHOR_PREP, blind)
    assert report["distinct"] is False
    # every class is empty, and each shares that syndrome with the one before
    order = [[1], [1, 2], [1, 2, 3], [2], [3], [4], [5], [5, 6, 7], [6], [6, 7], [7]]
    want = []
    for prev, cls in zip([None] + order, order):
        want.append(f"class {cls} has an empty syndrome")
        if prev is not None:
            want.append(f"classes {prev} and {cls} share syndrome []")
    assert report["problems"] == want
    assert [c["pattern"] for c in report["classes"]] == [[]] + sorted(order, key=len)


def test_audit_reports_unexpected_multi_error_classes():
    from lrcirc.faults import CliffordCircuit

    short = CliffordCircuit(7, SHOR_PREP.cnots[:-1], SHOR_PREP.prep, {})
    report = enumerate_single_faults(prep=short)
    assert report["distinct"] is False
    assert report["problems"] == [
        "unexpected multi-error classes: [[1, 2], [1, 2, 3], [2, 3], [2, 3, 4]]"]
    # without the last CNOT, [2, 3] and [2, 3, 4] stand where [1, 2] and [1, 2, 3] should
    assert report["multi_error_classes"] == [[2, 3], [2, 3, 4], [5, 6, 7], [6, 7]]


def test_cnot_on_one_wire_is_refused():
    from lrcirc.faults import CliffordCircuit

    with pytest.raises(ValueError, match=r"bad CNOT \(1,1\)"):
        CliffordCircuit(2, ((1, 1),), {}, {})


def test_single_error_syndromes_distinct():
    singles = [syndrome_of(zmask(w)) for w in range(1, 8)]
    assert len(set(singles)) == 7
    multis = [syndrome_of(m) for m in
              (zmask(1, 2), zmask(1, 2, 3), zmask(5, 6, 7), zmask(6, 7))]
    assert len(set(singles) | set(multis)) == 11


def _tiny_circuit(gates):
    regs = [Register(i, f"r{i}", Role.INTERNAL) for i in range(8)]
    return Circuit(regs, gates)


def test_transversality_flags_intra_block_cnot():
    circ = _tiny_circuit([Gate(GateKind.CNOT, (0, 1))])
    report = transversality_audit(circ, [("blk", (0, 1, 2, 3, 4, 5, 6))])
    assert len(report["flags"]) == 1
    assert report["flags"][0]["block"] == "blk"


def test_transversality_clean_for_position_wise_gates():
    gates = [Gate(GateKind.CNOT, (0, 7))]
    circ = _tiny_circuit(gates)
    report = transversality_audit(circ, [("blk", (0, 1, 2, 3, 4, 5, 6))])
    assert report["clean"]


def test_transversality_whitelist():
    circ = _tiny_circuit([Gate(GateKind.CNOT, (0, 1))])
    report = transversality_audit(
        circ, [("blk", (0, 1, 2, 3, 4, 5, 6))], whitelist_gates=frozenset({0})
    )
    assert report["clean"]


def test_transversality_refuses_a_register_in_two_blocks():
    circ = _tiny_circuit([Gate(GateKind.CNOT, (0, 7))])
    with pytest.raises(ValueError, match="register 6 assigned to two blocks"):
        transversality_audit(circ, [("a", tuple(range(7))), ("b", tuple(range(6, 13)))])


def test_transversality_position_mismatch():
    regs = [Register(i, f"r{i}", Role.INTERNAL) for i in range(14)]
    circ = Circuit(regs, [Gate(GateKind.CNOT, (0, 8))])  # pos 1 -> pos 2
    blocks = [("a", tuple(range(7))), ("b", tuple(range(7, 14)))]
    report = transversality_audit(circ, blocks)
    assert report["flags"][0]["reason"] == "position-mismatch"
    aligned = Circuit(regs, [Gate(GateKind.CNOT, (0, 7))])
    assert transversality_audit(aligned, blocks)["clean"]
