"""Phase-error (Z-mask) propagation through the ancilla CNOT circuits.

A Z mask is the set of wires carrying a phase error.  Through CNOT(c, t) a
Z on the target spreads to {c, t}; a Z on the control is unchanged.  The two
frozen fixtures are the even-weight-superposition ("Shor state") preparation
and its syndrome-readout decoder; the audit mechanizes the claim that every
single fault in the preparation is diagnosed by a distinct decoder syndrome.
Both audits here return plain report dicts and raise nothing on a failed
check: the Shor audit reports `distinct` false with its `problems` listed,
the transversality audit `clean` false with its `flags`.

The prepared state is stabilized by Z on all seven wires, so a mask and its
complement are the same physical error; classification folds modulo that
complement (the decoder syndrome is insensitive to it, which the tests pin).
"""

from __future__ import annotations

from dataclasses import dataclass

ZMask = frozenset[int]

EMPTY_MASK: ZMask = frozenset()


def zmask(*wires: int) -> ZMask:
    return frozenset(wires)


@dataclass(frozen=True)
class CliffordCircuit:
    """CNOT-only circuit with per-wire preparation and measurement labels."""

    wires: int
    cnots: tuple[tuple[int, int], ...]
    prep: dict[int, str]          # wire -> "plus" | "zero"
    measure: dict[int, str]       # wire -> "X" | "Z"

    def __post_init__(self):
        for c, t in self.cnots:
            if c == t or not (1 <= c <= self.wires and 1 <= t <= self.wires):
                raise ValueError(f"bad CNOT ({c},{t})")


# Frozen transcriptions of the ancilla preparation and its decoder.
SHOR_PREP = CliffordCircuit(
    wires=7,
    cnots=((5, 4), (3, 4), (6, 5), (2, 3), (7, 6), (1, 2)),
    prep={1: "plus", 2: "plus", 3: "plus", 4: "zero",
          5: "plus", 6: "plus", 7: "plus"},
    measure={},
)

SHOR_DECODE = CliffordCircuit(
    wires=7,
    cnots=((1, 4), (7, 3), (6, 2), (2, 5), (3, 4), (4, 5)),
    prep={},
    measure={1: "X", 2: "X", 3: "X", 4: "X", 5: "Z", 6: "X", 7: "X"},
)

# The four marked fault positions: (slot, wire) where slot k means "after
# the k-th CNOT" (slot 0 = right after preparation).
MARKED_FAULTS: dict[int, tuple[int, int]] = {
    1: (5, 2),
    2: (3, 3),
    3: (1, 5),
    4: (3, 6),
}


def propagate_z(mask: ZMask, circuit: CliffordCircuit, from_slot: int = 0) -> ZMask:
    """Push a Z mask from a time slot to the end of the circuit."""
    if not 0 <= from_slot <= len(circuit.cnots):
        raise ValueError(f"slot {from_slot} out of range")
    m = set(mask)
    for c, t in circuit.cnots[from_slot:]:
        if t in m:
            m ^= {c}
    return frozenset(m)


def syndrome_of(mask: ZMask, decoder: CliffordCircuit = SHOR_DECODE) -> frozenset[int]:
    """Decoder syndrome: the final mask restricted to X-measured wires.

    A Z error flips an X-basis outcome; the Z-measured wire is insensitive.
    """
    out = propagate_z(mask, decoder)
    return frozenset(w for w in out if decoder.measure.get(w) == "X")


def fold_complement(mask: ZMask, wires: int = 7) -> ZMask:
    """Canonical representative modulo Z-on-every-wire (the state stabilizer)."""
    if len(mask) * 2 > wires:
        return frozenset(range(1, wires + 1)) - mask
    return mask


def fault_sites(prep: CliffordCircuit = SHOR_PREP):
    """All single-wire Z injection sites: (slot, wire) pairs.

    Slot 0 sits right after the preparations; a Z there on the |0>-prepared
    wire is a trivial error (it folds to the empty class below).
    """
    for slot in range(len(prep.cnots) + 1):
        for wire in range(1, prep.wires + 1):
            yield slot, wire


def enumerate_single_faults(prep: CliffordCircuit = SHOR_PREP,
                            decoder: CliffordCircuit = SHOR_DECODE) -> dict:
    """Audit every single-fault site of the preparation circuit.

    Classifies output patterns modulo the complement fold, checks that the
    multi-error classes are exactly the four expected ones, and that their
    syndromes are pairwise distinct and distinct from every single-error
    syndrome.  The report is returned in every case: on failure `distinct`
    is false and `problems` lists each violation, an unexpected multi-error
    class or an empty or shared syndrome.
    """
    expected_multi = {zmask(1, 2), zmask(1, 2, 3), zmask(5, 6, 7), zmask(6, 7)}

    classes: dict[ZMask, dict] = {}
    for slot, wire in fault_sites(prep):
        raw = propagate_z(zmask(wire), prep, from_slot=slot)
        canon = fold_complement(raw, prep.wires)
        entry = classes.setdefault(
            canon,
            {"pattern": sorted(canon), "raw_patterns": set(), "sites": [],
             "syndrome": sorted(syndrome_of(canon, decoder))},
        )
        entry["raw_patterns"].add(tuple(sorted(raw)))
        entry["sites"].append({"slot": slot, "wire": wire})

    multi = {m for m in classes if len(m) >= 2}
    single = {m for m in classes if len(m) == 1}
    problems = []
    if multi != expected_multi:
        problems.append(
            "unexpected multi-error classes: "
            + str(sorted(sorted(m) for m in multi ^ expected_multi))
        )

    # distinctness over every non-trivial class, multi and single together
    syndromes: dict[frozenset[int], ZMask] = {}
    for m in sorted(multi | single, key=sorted):
        s = syndrome_of(m, decoder)
        if not s:
            problems.append(f"class {sorted(m)} has an empty syndrome")
        if s in syndromes:
            problems.append(
                f"classes {sorted(syndromes[s])} and {sorted(m)} share syndrome {sorted(s)}"
            )
        syndromes[s] = m

    return {
        "sites_enumerated": sum(1 for _ in fault_sites(prep)),
        "classes": [
            {
                "pattern": entry["pattern"],
                "weight": len(canon),
                "syndrome": entry["syndrome"],
                "raw_patterns": sorted(list(p) for p in entry["raw_patterns"]),
                "sites": entry["sites"],
            }
            for canon, entry in sorted(classes.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        ],
        "multi_error_classes": sorted(sorted(m) for m in multi),
        "distinct": not problems,
        "problems": problems,
    }


def transversality_audit(circuit, blocks: list[tuple[str, tuple[int, ...]]],
                         whitelist_gates: frozenset[int] = frozenset()) -> dict:
    """Audit the transversality contract of a compiled circuit.

    Flags any multi-operand gate that couples two wires of one code block,
    and any gate whose block operands sit at different block positions
    (encoded gates must act position-wise).  `blocks` lists (name, register
    ids) for every 7-register code block; whitelisted gate indices
    (documented readout cascades) are skipped.
    """
    owner: dict[int, tuple[str, int]] = {}
    for name, regs in blocks:
        for pos, r in enumerate(regs, start=1):
            if r in owner:
                raise ValueError(f"register {r} assigned to two blocks")
            owner[r] = (name, pos)

    flags = []
    owner_of = owner.get
    for i, g in enumerate(circuit.gates):
        args = g.args
        if len(args) < 2 or i in whitelist_gates:
            continue
        if len(args) == 2:  # most gates: decide from the two owners alone
            hit_a, hit_b = owner_of(args[0]), owner_of(args[1])
            if hit_a is None or hit_b is None or (
                    hit_a[1] == hit_b[1] and hit_a[0] != hit_b[0]):
                continue  # at most one block, or two blocks at one position
        seen: dict[str, int] = {}
        positions: set[int] = set()
        for a in args:
            hit = owner_of(a)
            if hit is None:
                continue
            b, pos = hit
            if b in seen:
                flags.append({"gate": i, "kind": g.kind.value, "reason": "intra-block",
                              "block": b, "registers": sorted([seen[b], a])})
            seen[b] = a
            positions.add(pos)
        if len(seen) >= 2 and len(positions) > 1:
            flags.append({"gate": i, "kind": g.kind.value,
                          "reason": "position-mismatch",
                          "blocks": sorted(seen), "positions": sorted(positions)})
    return {
        "gates_checked": len(circuit.gates),
        "blocks": len(blocks),
        "flags": flags,
        "clean": not flags,
    }
