"""Closed-loop benchmark of lrcirc: one process, one client thread.

    python3 perfbench/run.py --workload analyze-l1 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports lrcirc from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
wraps every layer boundary and reports per-layer self times and counts.
``--workload all`` runs each workload in its own process, one after another.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up is repeated 2 to 15 times (no new repeat once 4 s are spent); the
# median is kept
SETUP_REPEATS = (2, 15, 4.0)
# kernel calls just before and just after each set-up repeat; the median of
# their times scales that repeat
SETUP_KERNEL_CALLS = 2
# The kernel time that defines a reference second: t seconds next to kernel
# runs of median time k read as t * REFERENCE_KERNEL_S / k.  5 ms is about the
# kernel's time on a 2-CPU x86-64 machine when little else runs on it.
REFERENCE_KERNEL_S = 0.005


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _import_program() -> None:
    """Import lrcirc from this checkout's sources, never from elsewhere."""
    if not (ROOT / "src" / "lrcirc" / "__init__.py").is_file():
        _fail(f"no lrcirc sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import lrcirc

    if Path(lrcirc.__file__).resolve().parent != ROOT / "src" / "lrcirc":
        _fail(f"imported lrcirc from {lrcirc.__file__}, not from this checkout")


def _lrcirc_modules() -> list[str]:
    return [m for m in sys.modules if m == "lrcirc" or m.startswith("lrcirc.")]


def reimport_s() -> float:
    """Seconds to import lrcirc.cli, and with it every lrcirc module, afresh
    from the sources, with numpy already loaded: the part of an `lrc`
    invocation's start-up that lrcirc's own code decides.  The fresh modules
    are then dropped, so the harness and the tracer keep the first ones."""
    first = {m: sys.modules.pop(m) for m in _lrcirc_modules()}
    try:
        t0 = time.perf_counter()
        importlib.import_module("lrcirc.cli")
        return time.perf_counter() - t0
    finally:
        for m in _lrcirc_modules():
            del sys.modules[m]
        sys.modules.update(first)


class ReferenceKernel:
    """Fixed work that does not touch lrcirc, timed before every op.

    The machine is shared: its speed drifts by tens of percent within a
    minute, and it slows the benchmark's own code as much as lrcirc's.
    The kernel mixes the same kinds of work as lrcirc: string formatting
    and set probes, integer arithmetic, small int8 numpy ops, a bincount,
    and scattered row updates in a 12 MB int8 matrix, the size of a level-2
    event matrix at 256 rows.  The ratio of an op's
    best time to the kernel's best times in the same run cancels most of
    the drift.
    """

    REPEATS = 3  # kernel runs before each op

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.integers(0, 2, size=(256, 2000), dtype=np.int8)
        self._idx = rng.integers(0, 2000, size=500)
        self._big = np.ones((49152, 256), dtype=np.int8)
        self._rows = rng.integers(0, 49152, size=1500)
        self.times: list[float] = []

    def run(self) -> None:
        np = self._np
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            names = set()
            x = 0
            for i in range(4000):
                name = f"blk{i % 613}.{i}"
                if name not in names:
                    names.add(name)
                x += i * i & 1023
            v = self._a.copy()
            for j in range(40):
                v[:, j] ^= v[:, j + 1] & v[:, j + 2]
            np.bincount((v[:, self._idx].astype(np.int64) + 1).ravel(), minlength=3)
            big = self._big
            for j, r in enumerate(self._rows):
                big[r] ^= v[j % 256, :256]
            self.times.append(time.perf_counter() - t0)

    def reference_s(self, seconds: float, first: int, count: int) -> float:
        """seconds in reference seconds, scaled by the median of the kernel
        times times[first:first + count], the runs just around the work."""
        return REFERENCE_KERNEL_S * seconds / statistics.median(
            self.times[first:first + count])


# -- tracing -----------------------------------------------------------------


def instrument(tracer) -> None:
    """Wrap each layer's public functions under the names their callers use."""
    import numpy as np

    from lrcirc import channels, circuits, cli, compiler, faults, lab, netlist, steane

    counts = tracer.counts

    def compile_level(args, kwargs):
        return f"compiler.compile_l{kwargs.get('level', args[1] if len(args) > 1 else 1)}"

    def on_compile(args, kwargs, comp):
        c, lvl = comp.circuit, comp.level
        counts[f"compiler.l{lvl}_gates"] += len(c.gates)
        counts[f"compiler.l{lvl}_events"] += c.num_events
        counts[f"compiler.l{lvl}_tape_bits"] += c.rand_count

    def on_batch(args, kwargs, _events):
        rows = np.shape(args[3] if len(args) > 3 else kwargs["tapes"])[0]
        counts["lab.rows_evaluated"] += rows
        counts["circuits.row_gates"] += rows * len(args[0].gates)

    def on_encode(args, kwargs, _enc):
        counts["lab.encode_rows"] += args[2] if len(args) > 2 else kwargs["rows"]

    def on_parse(args, kwargs, _circ):
        counts["netlist.lines"] += args[0].count("\n")

    def on_serialize(args, kwargs, text):
        counts["netlist.lines"] += text.count("\n")

    def on_mc(args, kwargs, report):
        counts["lab.masks_sampled"] += report.samples

    def on_marginal(args, kwargs, report):
        counts["lab.comparisons"] += report.details["comparisons"]

    for mod in (compiler, cli):
        tracer.wrap(mod, "compile_circuit", compile_level, on_compile)
    for mod in (netlist, cli):
        tracer.wrap(mod, "parse_netlist", "netlist.parse", on_parse)
        tracer.wrap(mod, "serialize_netlist", "netlist.serialize", on_serialize)
    tracer.wrap(compiler.CircuitBuilder, "fresh", "compiler.name_alloc", leaf=True)
    tracer.wrap(cli, "location_report", "compiler.location_report")
    tracer.wrap(cli, "main", "cli")
    tracer.wrap(faults, "enumerate_single_faults", "faults.shor_audit")
    tracer.wrap(faults, "transversality_audit", "faults.transversality")
    tracer.wrap(steane, "steane_report", "steane.report")
    tracer.wrap(channels, "equivalence_sweep", "channels.equivalence_sweep")
    tracer.wrap(lab, "mc_advantage", "lab.mc", on_mc)
    tracer.wrap(lab, "marginal_independence", "lab.marginal", on_marginal)
    tracer.wrap(lab, "exact_tv_tiny", "lab.exact")
    tracer.wrap(lab, "run_rounds", "lab.run_rounds")
    tracer.wrap(lab, "encoded_secret_rows", "lab.encode", on_encode)
    tracer.wrap(lab, "evaluate_batch", "circuits.evaluate_batch", on_batch)
    tracer.wrap(lab, "_empirical_tv", "lab.tally", leaf=True)
    tracer.wrap(lab, "evaluate", "circuits.evaluate", leaf=True)
    tracer.wrap(circuits, "evaluate", "circuits.evaluate", leaf=True)
    tracer.wrap(circuits, "truth_table", "circuits.truth_table")


# span name -> per-layer metric holding its self time
_SELF_METRICS = {
    "lab.encode": "lab.encode_s",
    "lab.tally": "lab.tally_s",
    "lab.mc": "lab.mc_self_s",
    "lab.marginal": "lab.marginal_self_s",
    "lab.exact": "lab.exact_self_s",
    "lab.run_rounds": "lab.run_rounds_self_s",
    "circuits.evaluate_batch": "circuits.evaluate_batch_s",
    "circuits.evaluate": "circuits.evaluate_s",
    "circuits.truth_table": "circuits.truth_table_s",
    "compiler.compile_l1": "compiler.compile_l1_s",
    "compiler.compile_l2": "compiler.compile_l2_s",
    "compiler.name_alloc": "compiler.name_alloc_s",
    "compiler.location_report": "compiler.location_report_s",
    "netlist.parse": "netlist.parse_s",
    "netlist.serialize": "netlist.serialize_s",
    "faults.shor_audit": "faults.shor_audit_s",
    "faults.transversality": "faults.transversality_s",
    "steane.report": "steane.report_s",
    "channels.equivalence_sweep": "channels.equivalence_sweep_s",
    "cli": "cli.self_s",
    "bench": "bench.self_s",
}


def layer_metrics(layer_s: dict, counts: dict, overhead: float) -> dict:
    m = {metric: layer_s.get(span, 0.0) for span, metric in _SELF_METRICS.items()}
    for key in ("lab.encode_rows", "lab.masks_sampled", "lab.rows_evaluated",
                "lab.comparisons", "circuits.row_gates", "netlist.lines",
                *(f"compiler.l{lvl}_{what}" for lvl in (1, 2)
                  for what in ("gates", "events", "tape_bits"))):
        m[key] = counts.get(key, 0)
    m["lab.empty_masks"] = m["lab.masks_sampled"] - counts.get("lab.tally.calls", 0)
    m["circuits.evaluate_batch_calls"] = counts.get("circuits.evaluate_batch.calls", 0)
    m["circuits.evaluate_calls"] = counts.get("circuits.evaluate.calls", 0)
    m["compiler.name_alloc_calls"] = counts.get("compiler.name_alloc.calls", 0)
    rows = m["lab.encode_rows"]
    m["lab.encode_ns_per_row"] = 1e9 * m["lab.encode_s"] / rows if rows else 0.0
    rg = m["circuits.row_gates"]
    m["circuits.evaluate_batch_ns_per_row_gate"] = (
        1e9 * m["circuits.evaluate_batch_s"] / rg if rg else 0.0)
    m["trace.overhead_share"] = overhead
    return m


# -- measurement ---------------------------------------------------------------


def _last_line() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


class Run:
    def __init__(self, workload, seed: int, tracer=None):
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.kernel = ReferenceKernel()
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digest: str | None = None
        # per slot: [(round, seconds, work, layer self times, counts)]
        self.ops: list[list[tuple]] = [[] for _ in workload.slots]

    def record(self, label: str, reason) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(f"{label}: {reason}")
            sys.stderr.write(f"perfbench: FAILED {label}: {reason}\n")

    def call(self, op_id: str, fn, traced: bool):
        """Run fn, under the tracer when traced.  Returns (seconds, result,
        error); an op that raises still has its time to failure.  The
        seconds come from a clock outside the tracer, so a traced op's
        layer self times can be checked against them."""
        tr = self.tracer if traced else None
        if tr is not None:
            tr.reset()
        t0 = time.perf_counter()
        if tr is not None:
            tr.begin_op(op_id)
        result = error = None
        try:
            result = fn()
        except Exception:  # the loop goes on; the op counts as failed
            error = _last_line()
        if tr is not None:
            tr.end_op()
        return time.perf_counter() - t0, result, error

    def op(self, rnd: int, i: int, state: dict, traced: bool) -> None:
        slot = self.wl.slots[i]
        op = self.wl.make_op(state, self.seed, rnd, i)
        kernel_at = len(self.kernel.times)
        self.kernel.run()
        seconds, result, error = self.call(f"r{rnd}s{i}", op.run, traced)
        if error is None:
            try:
                error = op.check(result)
            except Exception:
                error = "check raised " + _last_line()
            if rnd == 0 and i == self.wl.repeat_slot and not error:
                self.first_digest = op.digest(result)
        self.record(f"round {rnd} slot {i} ({slot.kind})", error)
        layers = dict(self.tracer.self_s) if traced else {}
        counts = dict(self.tracer.counts) if traced else {}
        self.ops[i].append((rnd, seconds, op.work, layers, counts, kernel_at))

    def loop(self, state: dict, seconds: float) -> None:
        """Cycle through the slots until the time is up.  The first round
        (and, when tracing, the second) always completes, so every slot has
        a sample.  A traced run traces the odd rounds only; in the even ones
        the wrappers are taken out, so they are its untraced baseline."""
        must = 2 if self.tracer is not None else 1
        deadline = time.perf_counter() + seconds
        rnd = 0
        while rnd < must or time.perf_counter() < deadline:
            if self.tracer is not None:
                (self.tracer.patch if rnd % 2 else self.tracer.unpatch)()
            for i in range(len(self.wl.slots)):
                if rnd >= must and time.perf_counter() >= deadline:
                    break
                self.op(rnd, i, state, traced=self.tracer is not None and rnd % 2 == 1)
            rnd += 1
        self.kernel.run()  # the kernel runs just after the last op

    def repeat_check(self, state: dict) -> None:
        """Once per run: the same (config, seed) must give byte-identical output."""
        i = self.wl.repeat_slot
        label = f"repeat of round 0 slot {i}"
        if self.first_digest is None:
            self.record(label, "round 0 op failed, nothing to repeat")
            return
        op = self.wl.make_op(state, self.seed, 0, i)
        _, result, error = self.call("repeat", op.run, traced=False)
        self.record(label, error or (op.digest(result) != self.first_digest
                                     and "output differs from the first run"))

    # -- summaries ----------------------------------------------------------

    def slot_times(self, traced: bool | None = None, scaled: bool = True) -> list[float]:
        """Median of each slot's op times over all rounds, or over the
        traced (odd) or untraced (even) rounds of a traced run.  Scaled
        times are in reference seconds: each op is scaled by the median of
        the kernel runs just before it and just after it."""
        span = 2 * ReferenceKernel.REPEATS
        return [statistics.median(
                    self.kernel.reference_s(o[1], o[5], span) if scaled else o[1]
                    for o in ops if traced is None or o[0] % 2 == traced)
                for ops in self.ops]

    def kind_values(self, kind: str, mode: str) -> list[float]:
        """Per-op seconds, or per-op work rates, of every op of one kind."""
        return [s if mode == "median" else w / s
                for slot, ops in zip(self.wl.slots, self.ops) if slot.kind == kind
                for _r, s, w, *_ in ops]

    def kind_rate(self, kind: str) -> float:
        """Work of one round's ops of this kind over their median seconds, so
        slots of different sizes keep their weight whatever the op count."""
        slots = [(ops[0][2], statistics.median(o[1] for o in ops))
                 for slot, ops in zip(self.wl.slots, self.ops) if slot.kind == kind and ops]
        return sum(w for w, _ in slots) / sum(s for _, s in slots)


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    for q in (99, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return f"p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g}"
    return f"max {max(values):.6g}" if values else "-"


def fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lrcirc").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(run: Run, out: Path, tag: str, counts: dict) -> None:
    """Exact counts must repeat exactly across runs of the same seed and code."""
    path = out / f"counts-{tag}.json"
    record = {"fingerprint": fingerprint(), "counts": counts}
    if path.is_file():
        before = json.loads(path.read_text(encoding="utf-8"))
        if before["fingerprint"] == record["fingerprint"]:
            diff = sorted(k for k in counts if before["counts"].get(k) != counts[k])
            run.record("exact counts vs an earlier run of this seed",
                       diff and f"differ in {', '.join(diff)}")
            return
    path.write_text(json.dumps(record, sort_keys=True, indent=1), encoding="utf-8")


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        **{v: os.environ.get(v) for v in _THREAD_VARS},
    }


def spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def _workload(name: str):
    _import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        _fail(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[name]


def peak_rss_probe(name: str, seed: int) -> int:
    """Child mode: one set-up and round 0's ops, with no reference kernel,
    output check or tracer, then print the process's peak RSS in MB.  The
    harness's own memory therefore stays out of peak_rss_mb."""
    wl = _workload(name)
    tmp = HERE / "out" / f"tmp-{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        state = wl.setup(tmp)
        for i in range(len(wl.slots)):
            op = wl.make_op(state, seed, 0, i)
            try:
                op.run()
            except Exception:  # the measured run counts the failure
                pass
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024}))
    return 0


def program_peak_rss_mb(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--peak-rss-probe"],
        stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        _fail(f"peak-RSS probe exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_mb"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = _workload(name)
    bench = spec()
    import tracer as tracer_mod

    out = HERE / "out"
    tmp = out / f"tmp-{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        tracer = tracer_mod.Tracer()
        instrument(tracer)
    run = Run(wl, seed, tracer)
    try:
        # set-up: untraced runs repeat it, each time with lrcirc's imports,
        # and keep the median; a traced run does it once, as an op of its
        # own, so its layers are counted
        setup_times = []  # (seconds, index of the first kernel run around it)
        state = None
        least, most, budget = (1, 1, 0.0) if trace else SETUP_REPEATS
        while len(setup_times) < least or (
                len(setup_times) < most and sum(t for t, _ in setup_times) < budget):
            state = None  # one set-up's state at a time, as in one `lrc` call
            gc.collect()
            kernel_at = len(run.kernel.times)
            for _ in range(SETUP_KERNEL_CALLS):
                run.kernel.run()
            imp = 0.0 if trace else reimport_s()
            secs, state, error = run.call("setup", lambda: wl.setup(tmp), trace)
            if error is not None:
                _fail(f"set-up failed: {error}")
            for _ in range(SETUP_KERNEL_CALLS):
                run.kernel.run()
            setup_times.append((imp + secs, kernel_at))
        setup_layers = dict(tracer.self_s) if trace else {}
        setup_counts = dict(tracer.counts) if trace else {}
        if wl.setup_check is not None:
            run.record("set-up check", wl.setup_check(state))
        run.loop(state, seconds)
        run.repeat_check(state)
        ir = state["ir"]
    finally:
        if tracer is not None:
            tracer.unpatch()
        shutil.rmtree(tmp, ignore_errors=True)

    tag = f"{name}-seed{seed}-trace{int(trace)}"
    untraced_path = out / f"result-{name}-seed{seed}-trace0.json"
    counts = {f"ir.{k}.{w}": v for k, sizes in sorted(ir.items())
              for w, v in zip(("gates", "events", "tape_bits"), sizes)}
    env = environment()
    lines = [f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}",
             "env " + "  ".join(f"{k}={v}" for k, v in env.items())]
    if trace:
        metrics, rows, per_round = _traced_metrics(run, setup_layers, setup_counts, lines,
                                                   untraced_path)
        counts.update(per_round)
    else:
        metrics, rows = _untraced_metrics(run, wl, setup_times,
                                          program_peak_rss_mb(name, seed), lines)
    check_counts(run, out, tag, counts)
    lines.append("exact counts: " + "  ".join(f"{k}={int(v)}" for k, v in counts.items()))
    failed = len(run.failures)
    lines.append(f"error_rate {failed / run.attempted:.4g}  "
                 f"(failed {failed} of {run.attempted} ops)")

    want = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in want if m["name"] not in metrics]
    if missing:
        _fail(f"metrics not computed: {', '.join(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in want},
    }
    (out / f"result-{tag}.json").write_text(json.dumps(
        {"env": env, "fingerprint": fingerprint(), "rows": rows, "counts": counts,
         "failures": run.failures,
         "slots": [[slot.kind, [o[1] for o in ops]]
                   for slot, ops in zip(wl.slots, run.ops)],
         "kernel_s": run.kernel.times,
         "setup_raw_s": [t for t, _ in setup_times],
         **result}, sort_keys=True, indent=1), encoding="utf-8")
    if trace:
        run.tracer.write(str(out / f"spans-{tag}.json"))
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


def _untraced_metrics(run: Run, wl, setup_times, peak: float, lines):
    """The gated metrics (setup_s, round_s in reference seconds, peak_rss_mb)
    and the workload's named metrics as plain medians."""
    around = 2 * SETUP_KERNEL_CALLS * ReferenceKernel.REPEATS
    setup = [run.kernel.reference_s(t, k, around) for t, k in setup_times]
    rows = [("setup_s", statistics.median(setup), "s",
             "median of scaled repeats", f"max {max(setup):.6g}", len(setup)),
            ("round_s", sum(run.slot_times()), "s",
             "sum of scaled slot medians", "", len(run.ops[0]))]
    for metric, kind, unit, mode in wl.metrics:
        vals = run.kind_values(kind, mode)
        if mode == "median":
            rows.append((metric, statistics.median(vals), unit, "median", tail(vals),
                         len(vals)))
        else:
            rows.append((metric, run.kind_rate(kind), unit, "rate of slot medians",
                         f"min {min(vals):.6g}", len(vals)))
    rows.append(("round_median_s", sum(run.slot_times(scaled=False)), "s",
                 "sum of slot medians", "", len(run.ops[0])))
    rows.append(("peak_rss_mb", peak, "MB", "set-up + round 0, alone", "", 1))
    k = run.kernel.times
    lines.append(f"reference kernel: median {1e3 * statistics.median(k):.4g} ms over "
                 f"{len(k)} runs, against {1e3 * REFERENCE_KERNEL_S:.4g} ms for a "
                 f"reference second")
    lines.append(f"{'metric':<22}{'value':>14}  {'unit':<14}{'statistic':<26}{'tail':<18}{'n':>4}")
    lines += [f"{m:<22}{v:>14.6g}  {u:<14}{how:<26}{t:<18}{n:>4}"
              for m, v, u, how, t, n in rows]
    lines.append("op kinds: " + "  ".join(
        f"{k} n={len(v)} median={statistics.median(v):.4g}s"
        for k in dict.fromkeys(s.kind for s in wl.slots)
        for v in [run.kind_values(k, "median")] if v))
    metrics = {m: v for m, v, *_ in rows}
    return metrics, rows


def _layer_medians(slots_ops) -> dict[str, float]:
    """Per-layer self seconds of one round: each slot's median over its
    traced ops, summed over the slots."""
    out: dict[str, float] = {}
    for ops in slots_ops:
        traced = [o for o in ops if o[0] % 2]
        for span in {k for o in traced for k in o[3]}:
            out[span] = out.get(span, 0.0) + statistics.median(
                o[3].get(span, 0.0) for o in traced)
    return out


def _traced_metrics(run: Run, setup_layers: dict, setup_counts: dict, lines,
                    untraced_path: Path):
    """Per-layer self times of one set-up plus one round, and the counts of
    the set-up plus the first traced round (round 1).  The tracing overhead
    compares the traced rounds with the untraced ones of this run, and with
    an untraced run of the same seed and code when its result is in out/."""
    layer_s = dict(setup_layers)
    for span, secs in _layer_medians(run.ops).items():
        layer_s[span] = layer_s.get(span, 0.0) + secs
    counts = dict(setup_counts)
    for ops in run.ops:
        for k, v in next(o for o in ops if o[0] == 1)[4].items():
            counts[k] = counts.get(k, 0) + v
    untraced = sum(run.slot_times(traced=False))
    traced_round = sum(run.slot_times(traced=True))
    overhead = traced_round / untraced - 1
    metrics = layer_metrics(layer_s, counts, overhead)
    # an op's wall time comes from a clock outside the tracer; the part its
    # layers' self times do not cover is the tracer's own entry and exit
    traced_ops = [o for ops in run.ops for o in ops if o[0] % 2]
    wall = sum(o[1] for o in traced_ops)
    gap = max(abs(o[1] - sum(o[3].values())) for o in traced_ops)
    unaccounted = sum(o[1] - sum(o[3].values()) for o in traced_ops)
    bench_share = sum(o[3].get("bench", 0.0) for o in traced_ops) / wall
    total = sum(layer_s.values())
    lines.append(f"self time per layer, one set-up + one round: {total:.4g}s")
    lines.append(f"traced ops: {wall:.4g}s of wall time, of which the layers' self times "
                 f"leave {1e3 * unaccounted:.3g} ms ({100 * unaccounted / wall:.2g}%) "
                 f"uncovered, at most {1e6 * gap:.3g} us in one op; "
                 f"{100 * bench_share:.2g}% is in no lrcirc layer (bench.self_s)")
    # the untraced even rounds' own round-to-round range is the noise floor
    span = 2 * ReferenceKernel.REPEATS
    sums = [sum(run.kernel.reference_s(o[1], o[5], span) for ops in run.ops for o in ops
                if o[0] == r)
            for r in range(0, min(len(ops) for ops in run.ops), 2)]
    noise = max(sums) / min(sums) - 1 if len(sums) > 1 else math.inf
    lines.append(f"tracing overhead {100 * overhead:+.1f}%: traced round {traced_round:.4g}s "
                 f"against an untraced one of {untraced:.4g}s in this run (round_s of each, "
                 f"wrappers taken out in the untraced rounds); "
                 + ("resolved" if abs(overhead) > noise else "unresolved")
                 + (f": the {len(sums)} complete untraced rounds range over {100 * noise:.1f}%"
                    if len(sums) > 1 else ": fewer than two complete untraced rounds"))
    before = json.loads(untraced_path.read_text(encoding="utf-8")) \
        if untraced_path.is_file() else None
    if before is not None and before.get("fingerprint") == fingerprint():
        ref = before["metrics"]["round_s"]["value"]
        lines.append(f"tracing overhead against the untraced run of this seed: "
                     f"{100 * (traced_round / ref - 1):+.1f}% (its round_s is {ref:.4g}s)")
    else:
        lines.append(f"no untraced result of this seed and code in out/ to compare with; "
                     f"run it with --trace 0 first")
    for span, secs in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {span:<28}{secs:>10.4f} s  {100 * secs / total:5.1f}%")
    lines.append("layer shares per op kind:")
    for kind in dict.fromkeys(s.kind for s in run.wl.slots):
        per = _layer_medians(ops for slot, ops in zip(run.wl.slots, run.ops)
                             if slot.kind == kind)
        tot = sum(per.values())
        top = sorted(per.items(), key=lambda kv: -kv[1])[:4]
        lines.append(f"  {kind:<18}{tot:>9.4f} s  " + "  ".join(
            f"{span} {100 * v / tot:.1f}%" for span, v in top))
    lines.append("per-layer metrics: " + "  ".join(
        f"{k}={v:.6g}" for k, v in sorted(metrics.items())))
    return metrics, sorted(metrics.items()), counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--peak-rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # one BLAS/OpenMP thread, set before numpy is first imported: the machine
    # has two CPUs and the loop has one client
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if args.peak_rss_probe:
        return peak_rss_probe(args.workload, args.seed)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    names = [w["name"] for w in spec()["workloads"]]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        body, _, last = proc.stdout.rstrip("\n").rpartition("\n")
        print(body)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(last)
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
