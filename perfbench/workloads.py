"""The four benchmark workloads: inputs, operations and output checks.

Every input is generated here from the workload seed; lrcirc only ever
receives netlists, secret pairs and per-op seeds.  Each workload is a fixed
list of op slots; the runner cycles through the slots, so one *round* is one
op per slot.  An op's inputs come from a generator seeded with (seed, round, slot), so
a given (seed, round, slot) always yields the same op.

Each check's reference comes from code other than the code under test: the
independent netlist interpreter below, the logical circuit's scalar
``evaluate``, a second estimator, a closed form, or a byte comparison.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from lrcirc import circuits, cli, compiler, lab, netlist

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

LEAK_P = 0.01          # leak rate of the analyze workloads
MC_MASKS = 1000        # mc_advantage's minimum sample count
# inner tapes per mask at level 1: 4k-row batches.  mc_advantage's default
# of 256 makes one verdict take 4-7 s, too few per run to be steady on a
# shared machine; per-row costs, and so layer shares, do not depend on it.
L1_INNER = 64
MARGINAL_SAMPLES = 4096  # per secret, analyze-l1
L2_MARGINAL_SAMPLES = 256  # per secret, analyze-l2 (49,638 events per row)
RUN_ROUNDS = 1000      # transcripts per run_rounds op
TINY_P = 0.1           # leak rate of the generated oracle circuits

# (leakable events, tape bits, tape bits that reach a leakable event).
# Inside exact_tv_tiny's guards (24 events, 20 tape bits, 5e7 mask work):
# the first shape is dominated by scalar evaluate (2^14 tapes per secret),
# the last by mask enumeration (2^15 masks), the middle one is mixed.
TINY_SHAPES = ((11, 14, 2), (13, 13, 3), (15, 12, 2))

# Logical gate-kind counts of the random compile-audit circuits.  With the
# fixed register set below, the level-1 size depends only on these counts
# (about 350, 970, 1,400 and 1,790 gates), up to the level-2 guard of 2,000.
RANDOM_STRATA = (
    {"NOT": 2, "CNOT": 1},
    {"CNOT": 3, "TOF": 1},
    {"NOT": 1, "CNOT": 2, "TOF": 2},
    {"NOT": 1, "CNOT": 1, "TOF": 3},
)

_ARITY = {"NOT": 1, "CNOT": 2, "TOF": 3}


# -- independent reference ------------------------------------------------------


def reference_outputs(text: str, secret, public=(), tape=()) -> tuple[int, ...]:
    """Output bits of a plain netlist (NOT/CNOT/TOF/RAND, no cgate).

    Written apart from lrcirc.circuits so that it can serve as the reference
    for lrcirc's evaluators.
    """
    vals: dict[str, int] = {}
    inputs: dict[str, list[str]] = {"secret": [], "public": []}
    outs: list[str] = []
    gates: list[list[str]] = []
    for line in text.splitlines():
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "in":
            inputs[tok[1]].append(tok[2])
            vals[tok[2]] = 0
        elif tok[0] == "reg":
            vals[tok[1]] = int(tok[3]) if len(tok) > 3 else 0
        elif tok[0] == "out":
            vals[tok[1]] = 0
            outs.append(tok[1])
        elif tok[0] == "gate":
            gates.append(tok[1:])
        else:
            raise ValueError(f"reference interpreter: unsupported line {line!r}")
    for name, bit in zip(inputs["secret"], secret):
        vals[name] = bit
    for name, bit in zip(inputs["public"], public):
        vals[name] = bit
    bits = iter(tape)
    for kind, *a in gates:
        if kind == "NOT":
            vals[a[0]] ^= 1
        elif kind == "CNOT":
            vals[a[1]] ^= vals[a[0]]
        elif kind == "TOF":
            vals[a[2]] ^= vals[a[0]] & vals[a[1]]
        elif kind == "RAND":
            vals[a[0]] = next(bits)
        else:
            raise ValueError(f"reference interpreter: unsupported gate {kind}")
    return tuple(vals[o] for o in outs)


def netlist_shape(text: str) -> tuple[int, int, int]:
    """(secret inputs, public inputs, leakable events) counted from the text:
    every input and gate port is an event, RAND ports are leak-free."""
    ns = npub = events = 0
    for line in text.splitlines():
        tok = line.split()
        if tok[:2] == ["in", "secret"]:
            ns += 1
        elif tok[:2] == ["in", "public"]:
            npub += 1
        elif tok and tok[0] == "gate" and tok[1] != "RAND":
            events += len(tok) - 2
    return ns, npub, ns + npub + events


def equivalent_pair(text: str, rng: random.Random, live_tape: int = 0,
                    tape_bits: int = 0):
    """Two distinct secrets with the same output distribution, or None.

    Only the first ``live_tape`` tape bits may reach an output; the rest
    are held at 0.
    """
    ns = netlist_shape(text)[0]
    groups: dict[tuple, list] = {}
    for sec in product((0, 1), repeat=ns):
        dist = sorted(
            reference_outputs(text, sec, (), live + (0,) * (tape_bits - live_tape))
            for live in product((0, 1), repeat=live_tape)
        )
        groups.setdefault(tuple(dist), []).append(list(sec))
    choices = sorted((g for g in groups.values() if len(g) > 1), key=str)
    if not choices:
        return None
    y0, y1 = rng.sample(rng.choice(choices), 2)
    return y0, y1


# -- generators ----------------------------------------------------------------


def random_reversible(rng: random.Random, counts: dict[str, int]) -> str:
    """Random NOT/CNOT/TOF netlist with the given gate-kind counts.

    Fixed registers (two secrets, one public input, one scratch register and
    one output) keep the compiled size a function of the counts alone.  The
    last gate writes the output.
    """
    wires = ["s0", "s1", "x0", "t0", "o0"]
    kinds = [k for k, n in counts.items() for _ in range(n)]
    rng.shuffle(kinds)
    gates = []
    for i, kind in enumerate(kinds):
        target = "o0" if i == len(kinds) - 1 else rng.choice(wires)
        controls = rng.sample([w for w in wires if w != target], _ARITY[kind] - 1)
        gates.append(f"gate {kind} {' '.join(controls + [target])}")
    head = ["in secret s0", "in secret s1", "in public x0", "reg t0", "out o0"]
    return "\n".join(head + gates) + "\n"


def tiny_circuit(rng: random.Random, events: int, tape: int, live: int) -> str:
    """Raw circuit with exactly ``events`` leakable events and ``tape`` RAND
    bits, of which only the first ``live`` are read by a leakable gate.

    Each live bit is first copied onto the output through a CNOT whose
    control port leaks it as drawn, so the leakable-event vectors of two
    distinct secrets number exactly 2 * 2^live.  That keeps exact_tv_tiny's
    mask-enumeration work, and so its time, the same for every seed.
    """
    head = ["in secret s0", "in secret s1", "out o"] + [f"reg r{i}" for i in range(tape)]
    gates = [f"gate RAND r{i}" for i in range(tape)]
    gates += [f"gate CNOT r{i} o" for i in range(live)]
    wires = ["s0", "s1", "o"] + [f"r{i}" for i in range(live)]
    leak = 2 + 2 * live
    while leak < events:
        left = events - leak
        if left <= 3:  # close with one gate that writes the output
            arity, target = left, "o"
        else:
            arity, target = rng.choice((1, 2, 2, 3, 3)), rng.choice(wires)
        controls = rng.sample([w for w in wires if w != target], arity - 1)
        kind = {1: "NOT", 2: "CNOT", 3: "TOF"}[arity]
        gates.append(f"gate {kind} {' '.join(controls + [target])}")
        leak += arity
    return "\n".join(head + gates) + "\n"


# -- ops -----------------------------------------------------------------------


@dataclass
class Op:
    run: Callable[[], object]
    # returns None when the output is right, else a one-line reason
    check: Callable[[object], str | None]
    work: float = 1.0
    # byte-stable rendering of the output, for the repeat check
    digest: Callable[[object], str] = lambda r: json.dumps(r.to_json_dict(), sort_keys=True)


@dataclass
class Slot:
    kind: str
    make: Callable[[dict, random.Random], Op]


@dataclass
class Workload:
    name: str
    setup: Callable[[Path], dict]
    slots: list[Slot]
    # (metric, op kind, unit, "median" of op seconds or "rate" of work/s)
    metrics: list[tuple[str, str, str, str]]
    repeat_slot: int = 0
    # one-off check of the set-up's compiled targets, outside the timings
    setup_check: Callable[[dict], str | None] | None = None

    def make_op(self, state: dict, seed: int, rnd: int, slot: int) -> Op:
        """The op of one slot in one round; its inputs depend on nothing else."""
        return self.slots[slot].make(state, random.Random(f"{seed}:{rnd}:{slot}"))


def _report_sane(r, method: str, samples: int) -> str | None:
    if r.method != method:
        return f"method {r.method!r}, expected {method!r}"
    if r.samples != samples:
        return f"{r.samples} samples, expected {samples}"
    if not (0.0 <= r.estimate <= 1.0 and math.isfinite(r.std_error)):
        return f"estimate {r.estimate} / std error {r.std_error} out of range"
    return None


def _all(*reasons):
    return next((r for r in reasons if r), None)


def compiled_output_mismatches(text: str, comp, tapes: int, seed: int) -> int:
    """Rows where the compiled circuit's decoded outputs differ from the
    logical circuit's scalar evaluate, over all inputs at seeded tapes."""
    logical = netlist.parse_netlist(text)
    ns, npub, _ = netlist_shape(text)
    rng = np.random.default_rng(seed)
    bad = 0
    for sec in product((0, 1), repeat=ns):
        for pub in product((0, 1), repeat=npub):
            tr = circuits.evaluate(logical, sec, pub, circuits.RandomTape.of([]))
            want = [tr.outputs[r.name] for r in logical.output_regs]
            tp = rng.integers(0, 2, size=(tapes, comp.circuit.rand_count), dtype=np.int8)
            enc = lab.encoded_secret_rows(comp, list(sec), tapes, rng)
            ev = circuits.evaluate_batch(comp.circuit, enc, list(pub), tp)
            bad += int((circuits.batch_outputs(comp.circuit, ev) != want).any(axis=1).sum())
    return bad


def _ir(comp) -> tuple[int, int, int]:
    c = comp.circuit
    return len(c.gates), c.num_events, c.rand_count


def load_compiled(text: str, level: int):
    """What `lrc compile` then `lrc analyze` do: compile, serialize, parse the
    netlist, round-trip the gadget index through JSON and rebuild the target."""
    comp = compiler.compile_circuit(netlist.parse_netlist(text), level=level, ec=True)
    net = netlist.serialize_netlist(comp.circuit)
    gadgets = json.loads(json.dumps(comp.to_json_dict(), sort_keys=True))
    return compiler.CompiledCircuit.from_json_dict(netlist.parse_netlist(net), gadgets)


# -- analyze-l1 ----------------------------------------------------------------


def _setup_analyze_l1(tmp: Path) -> dict:
    state = {"raw": {}, "comp": {}, "ir": {}}
    for name, text in (("one", ONE_TOFFOLI), ("two", TWO_TOFFOLI_CHAIN)):
        state["raw"][name] = netlist.parse_netlist(text)
        state["comp"][name] = load_compiled(text, 1)
        state["ir"][f"{name}.l1"] = _ir(state["comp"][name])
    return state


def _setup_check_l1(state: dict) -> str | None:
    for name, text in (("one", ONE_TOFFOLI), ("two", TWO_TOFFOLI_CHAIN)):
        bad = compiled_output_mismatches(text, state["comp"][name], 64, 1)
        if bad:
            return f"{name}: {bad} compiled output rows differ from the logical circuit"
    return None


_FIXTURE = {"one": ONE_TOFFOLI, "two": TWO_TOFFOLI_CHAIN}


def _mc(fixture: str, compiled: bool, floor: float | None = None):
    def make(state, rng):
        y0, y1 = equivalent_pair(_FIXTURE[fixture], rng)
        target = state["comp" if compiled else "raw"][fixture]
        seed = rng.getrandbits(32)
        n_leak = netlist_shape(_FIXTURE[fixture])[2]

        def check(r):
            return _all(
                _report_sane(r, "mask-decomposed-MC", MC_MASKS),
                not compiled and r.details["leakable_events"] != n_leak
                and f"{r.details['leakable_events']} leakable events, expected {n_leak}",
                floor is not None and r.estimate < floor
                and f"raw advantage {r.estimate:.4f} below {floor}",
            )

        return Op(lambda: lab.mc_advantage(target, y0, y1, [], lab.LeakageModel(LEAK_P),
                                           samples=MC_MASKS, seed=seed, inner=L1_INNER),
                  check, work=MC_MASKS)
    return make


def _marginal(fixture: str, order: int, samples: int):
    def make(state, rng):
        y0, y1 = equivalent_pair(_FIXTURE[fixture], rng)
        target = state["comp"][fixture]
        seed = rng.getrandbits(32)
        method = "per-wire-marginal" if order == 1 else "pairwise-marginal"
        n_leak = target.circuit.num_events - len(target.circuit.leak_free)

        def check(r):
            return _all(
                _report_sane(r, method, samples),
                order == 1 and r.details["comparisons"] != n_leak
                and f"{r.details['comparisons']} comparisons, expected {n_leak}",
                order == 2 and r.details["comparisons"] == 0 and "no pairs compared",
                not r.consistent_with_zero()
                and f"marginal {r.estimate:.4f} exceeds its Hoeffding bound",
            )

        return Op(lambda: lab.marginal_independence(target, y0, y1, [], order=order,
                                                    samples=samples, seed=seed),
                  check, work=2 * samples)
    return make


# Level-1 estimators on the one- and two-Toffoli fixtures: per-row secret
# encoding and tallying dominate; raw-circuit MC bypasses encoding.
ANALYZE_L1 = Workload(
    name="analyze-l1",
    setup=_setup_analyze_l1,
    slots=[
        Slot("mc_compiled", _mc("one", True)),
        Slot("mc_raw", _mc("one", False, floor=0.005)),
        Slot("mc_raw", _mc("two", False)),
        Slot("marginal1", _marginal("one", 1, MARGINAL_SAMPLES)),
        Slot("marginal1", _marginal("two", 1, MARGINAL_SAMPLES)),
        Slot("marginal2", _marginal("one", 2, MARGINAL_SAMPLES)),
        Slot("marginal2", _marginal("two", 2, MARGINAL_SAMPLES)),
    ],
    metrics=[
        ("tv_masks_per_s", "mc_compiled", "masks/s", "rate"),
        ("raw_tv_masks_per_s", "mc_raw", "masks/s", "rate"),
        ("marginal_rows_per_s", "marginal1", "rows/s", "rate"),
        ("pairwise_rows_per_s", "marginal2", "rows/s", "rate"),
    ],
    repeat_slot=1,
    setup_check=_setup_check_l1,
)


# -- analyze-l2 ----------------------------------------------------------------


def _setup_analyze_l2(tmp: Path) -> dict:
    comp = load_compiled(ONE_TOFFOLI, 2)
    return {"comp": {"one": comp}, "ir": {"one.l2": _ir(comp)}}


def _setup_check_l2(state: dict) -> str | None:
    bad = compiled_output_mismatches(ONE_TOFFOLI, state["comp"]["one"], 4, 2)
    return bad and f"{bad} level-2 output rows differ from the logical circuit"


# Level-2 one-Toffoli (49,638 events): batch evaluation at a few hundred rows,
# where per-gate numpy dispatch and event-matrix memory dominate.
ANALYZE_L2 = Workload(
    name="analyze-l2",
    setup=_setup_analyze_l2,
    # level-2 MC is left out: one op takes 3-5 s, too few per run to be steady
    slots=[Slot("marginal1", _marginal("one", 1, L2_MARGINAL_SAMPLES))],
    metrics=[("marginal_rows_per_s", "marginal1", "rows/s", "rate")],
    repeat_slot=0,
    setup_check=_setup_check_l2,
)


# -- compile-audit -----------------------------------------------------------------


def _setup_compile_audit(tmp: Path) -> dict:
    (tmp / "one.net").write_text(ONE_TOFFOLI, encoding="utf-8")
    return {"tmp": tmp, "ir": {}}


def _cli(argv: list[str]) -> int:
    return cli.main([str(a) for a in argv])


def _files_digest(*paths: Path) -> str:
    return "\n".join(p.read_text(encoding="utf-8") for p in paths)


def _compile(level: int, stratum: int | None = None):
    def make(state, rng):
        tmp = state["tmp"]
        tag = f"{rng.getrandbits(40):010x}"
        if stratum is None:
            text, src = ONE_TOFFOLI, tmp / "one.net"
        else:
            text, src = random_reversible(rng, RANDOM_STRATA[stratum]), tmp / f"{tag}.in.net"
            src.write_text(text, encoding="utf-8")
        out, gad = tmp / f"{tag}.l{level}.net", tmp / f"{tag}.l{level}.json"
        if stratum is None:  # the audit pass reads the latest one-Toffoli outputs
            state[f"l{level}"] = (out, gad)

        def check(code):
            if code != 0:
                return f"lrc compile --level {level} exited {code}"
            comp = compiler.CompiledCircuit.from_json_dict(
                netlist.parse_netlist(out.read_text(encoding="utf-8")),
                json.loads(gad.read_text(encoding="utf-8")))
            if stratum is None:
                state["ir"][f"one.l{level}"] = _ir(comp)
            bad = compiled_output_mismatches(text, comp, 8 if level == 1 else 2, 3)
            return bad and f"{bad} compiled output rows differ from the logical circuit"

        return Op(lambda: _cli(["compile", "--in", src, "--out", out, "--level", level,
                                "--dump-gadgets", gad]),
                  check, digest=lambda _code: _files_digest(out, gad))
    return make


def _audit_pass(state, rng):
    tmp = state["tmp"]
    l1, l2 = state["l1"], state["l2"]
    seed = rng.getrandbits(31)
    out = tmp / "audit.json"
    commands = [
        ["audit", "steane", "--out", out],
        ["audit", "shor", "--out", out],
        ["audit", "transversality", "--circuit", l1[0], "--gadgets", l1[1], "--out", out],
        ["audit", "transversality", "--circuit", l2[0], "--gadgets", l2[1], "--out", out],
        ["noise-equiv", "--seed", seed, "--out", out],
        ["report", "--gadgets", l1[1], "--circuit", l1[0], "--out", out],
        ["report", "--gadgets", l2[1], "--out", out],
    ]

    def check(codes):
        failed = [" ".join(map(str, c[:2])) for c, code in zip(commands, codes) if code]
        return failed and f"exit code != 0 from: {', '.join(failed)}"

    return Op(lambda: [_cli(c) for c in commands], check, digest=json.dumps)


def _roundtrip(state, rng):
    text = state["l2"][0].read_text(encoding="utf-8")

    def check(again):
        return again != text and "serialize(parse(netlist)) differs from the netlist"

    return Op(lambda: netlist.serialize_netlist(netlist.parse_netlist(text)), check,
              work=text.count("\n"), digest=str)


# lrc compile at levels 1 and 2 plus every audit command: the compiler's name
# allocator, netlist, faults, steane and channels work; no lab sampling.
COMPILE_AUDIT = Workload(
    name="compile-audit",
    setup=_setup_compile_audit,
    slots=[
        Slot("compile_l1", _compile(1)),
        Slot("compile_l2", _compile(2)),
        *(Slot("compile_l1", _compile(1, i)) for i in range(len(RANDOM_STRATA))),
        Slot("audit_pass", _audit_pass),
        Slot("netlist_roundtrip", _roundtrip),
    ],
    metrics=[
        ("compile_l1_s", "compile_l1", "s", "median"),
        ("compile_l2_s", "compile_l2", "s", "median"),
        ("audit_pass_s", "audit_pass", "s", "median"),
    ],
    repeat_slot=0,
)


# -- oracle-tiny ---------------------------------------------------------------------


def _setup_oracle_tiny(tmp: Path) -> dict:
    comp = load_compiled(ONE_TOFFOLI, 1)
    return {"comp": {"one": comp}, "ir": {"one.l1": _ir(comp)}}


def _exact_tiny(shape: int):
    events, tape, live = TINY_SHAPES[shape]

    def make(state, rng):
        while True:
            text = tiny_circuit(rng, events, tape, live)
            pair = equivalent_pair(text, rng, live, tape)
            if pair is not None:
                break
        circ = netlist.parse_netlist(text)
        y0, y1 = pair
        model = lab.LeakageModel(TINY_P)
        mc_seed = rng.getrandbits(32)

        def check(r):
            reason = _all(
                r.method != "exact-tiny" and f"method {r.method!r}",
                not 0.0 <= r.estimate <= 1.0 and f"estimate {r.estimate} out of range",
                r.details["leakable_events"] != events
                and f"{r.details['leakable_events']} leakable events, expected {events}",
                r.details["tape_bits"] != tape
                and f"{r.details['tape_bits']} tape bits, expected {tape}",
            )
            if reason:
                return reason
            mc = lab.mc_advantage(circ, y0, y1, [], model, samples=MC_MASKS, seed=mc_seed)
            if abs(mc.estimate - r.estimate) > 3 * mc.std_error + mc.bias_bound:
                return f"exact {r.estimate:.4f} vs MC {mc.estimate:.4f} beyond 3 sigma + bias"
            return None

        return Op(lambda: lab.exact_tv_tiny(circ, y0, y1, [], model), check)
    return make


def _exact_wire(p: float):
    def make(state, rng):
        circ = netlist.parse_netlist(SECRET_WIRE)

        def check(r):
            return abs(r.estimate - p) > 1e-12 and f"SECRET_WIRE TV {r.estimate!r} != p={p}"

        return Op(lambda: lab.exact_tv_tiny(circ, [0], [1], [], lab.LeakageModel(p)), check)
    return make


def _run_rounds(state, rng):
    comp = state["comp"]["one"]
    secret = [rng.getrandbits(1), rng.getrandbits(1)]
    want = reference_outputs(ONE_TOFFOLI, secret)
    seed = rng.getrandbits(32)
    leak_free = comp.circuit.leak_free

    def check(ts):
        if len(ts) != RUN_ROUNDS:
            return f"{len(ts)} transcripts, expected {RUN_ROUNDS}"
        for t in ts:
            if (t.output["c"],) != want:
                return f"round {t.round}: decoded output {t.output} != {want}"
            if leak_free.intersection(t.mask):
                return f"round {t.round}: a leak-free event leaked"
        return None

    return Op(lambda: lab.run_rounds(comp, secret, [[]] * RUN_ROUNDS,
                                     lab.LeakageModel(LEAK_P), seed=seed),
              check, work=RUN_ROUNDS,
              digest=lambda ts: json.dumps([t.to_json_dict() for t in ts], sort_keys=True))


def _truth_tables(state, rng):
    texts = (ONE_TOFFOLI, TWO_TOFFOLI_CHAIN, MIXED_3REG)
    circs = [netlist.parse_netlist(t) for t in texts]

    def check(tables):
        for text, table in zip(texts, tables):
            for (sec, pub), dist in table.items():
                want = {reference_outputs(text, sec, pub): 1.0}
                if dist != want:
                    return f"truth table at {sec}/{pub}: {dist} != {want}"
        return None

    return Op(lambda: [circuits.truth_table(c) for c in circs], check,
              digest=lambda tables: repr(tables))


# exact_tv_tiny on seeded tiny raw circuits, run_rounds and truth_table:
# scalar evaluate and Python mask enumeration, no batch evaluator.
ORACLE_TINY = Workload(
    name="oracle-tiny",
    setup=_setup_oracle_tiny,
    slots=[
        *(Slot("exact", _exact_tiny(i)) for i in range(len(TINY_SHAPES))),
        *(Slot("exact_wire", _exact_wire(p)) for p in (0.001, 0.01, 0.1)),
        Slot("run_rounds", _run_rounds),
        Slot("truth_table", _truth_tables),
    ],
    metrics=[
        ("exact_verdict_s", "exact", "s", "median"),
        ("transcripts_per_s", "run_rounds", "transcripts/s", "rate"),
    ],
    repeat_slot=6,
)

WORKLOADS = {w.name: w for w in (ANALYZE_L1, COMPILE_AUDIT, ANALYZE_L2, ORACLE_TINY)}
