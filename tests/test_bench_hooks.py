"""The benchmark's tracer wraps library functions by name, and its set-up
loads compiled targets through the library's readers; a cleanup that renames
or drops one of those functions, or refuses what the set-up loads, must fail
here, not only in a benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("run", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("run"), importlib.import_module("tracer")
    for name in ("run", "tracer"):
        sys.modules.pop(name, None)


def test_instrument_wraps_existing_names_and_unpatch_restores_them(bench):
    run, tracer = bench
    t = tracer.Tracer()
    try:
        run.instrument(t)  # wrap() looks each name up, so a missing one raises
        patched = list(t._patched)
        assert len({(id(m), attr) for m, attr, _, _ in patched}) == len(patched)
        for module, attr, fn, wrapper in patched:
            assert callable(fn)
            assert getattr(module, attr) is wrapper
    finally:
        t.unpatch()
    for module, attr, fn, _ in patched:
        assert getattr(module, attr) is fn


def test_tally_is_a_traced_layer_of_mc(bench):
    # the tally runs once per chunk of masks that holds a non-empty mask; it
    # must stay its own layer.  At p = 0.1 a mask of the one-Toffoli's 5
    # events is empty with probability 0.9^5 = 0.59, so each of the 16
    # chunks of up to 64 masks (1000 = 15 * 64 + 40) holds a non-empty one.
    run, tracer = bench
    from lrcirc import lab
    from lrcirc.netlist import parse_netlist

    circ = parse_netlist("in secret a\nin secret b\nout c\ngate TOF a b c\n")
    t = tracer.Tracer()
    try:
        run.instrument(t)
        t.begin_op("mc")
        lab.mc_advantage(circ, [0, 1], [1, 0], [], lab.LeakageModel(0.1),
                         samples=1000, seed=0)
        t.end_op()
    finally:
        t.unpatch()
    assert t.counts["lab.tally.calls"] == 16
    assert t.self_s["lab.tally"] > 0


def test_traced_estimators_count_the_rows_they_evaluate(bench):
    # perfbench counts rows from the tapes argument of lab.evaluate_batch,
    # so the estimators must keep evaluating through that name, with tapes
    # whose shape gives the rows
    run, tracer = bench
    from lrcirc import lab
    from lrcirc.compiler import compile_circuit
    from lrcirc.netlist import parse_netlist

    comp = compile_circuit(parse_netlist("in secret a\nin secret b\nout c\ngate TOF a b c\n"))
    gates = len(comp.circuit.gates)
    t = tracer.Tracer()
    try:
        run.instrument(t)
        t.begin_op("mc")
        report = lab.mc_advantage(comp, [0, 1], [1, 0], [], lab.LeakageModel(0.01),
                                  samples=1000, seed=0, inner=21)
        t.end_op()
        assert t.counts["lab.rows_evaluated"] == 2 * 1000 * 21 == report.details["rows_evaluated"]
        assert t.counts["circuits.row_gates"] == 2 * 1000 * 21 * gates
        t.reset()
        t.begin_op("marginal")
        lab.marginal_independence(comp, [0, 1], [1, 0], [], order=1, samples=21, seed=0)
        t.end_op()
        assert t.counts["lab.rows_evaluated"] == 2 * 21
        assert t.counts["circuits.row_gates"] == 2 * 21 * gates
    finally:
        t.unpatch()


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    yield importlib.import_module("workloads")
    sys.modules.pop("workloads", None)


@pytest.mark.parametrize("level", [1, 2])
def test_benchmark_setup_loads_its_compiled_targets(workloads, level):
    # the workloads rebuild compiled targets through the netlist and
    # gadget-index readers; a reader that refused them would fail every run
    comp = workloads.load_compiled(workloads.ONE_TOFFOLI, level)
    assert comp.level == level
    assert comp.logical_stats["compiled_gates"] == len(comp.circuit.gates)


def test_oracle_tiny_run_rounds_op_passes_its_check(workloads, tmp_path):
    # the benchmark refuses a wrong decoded output or a leak-free event in
    # a mask; a sampler change that trips that check must fail here too
    oracle = workloads.ORACLE_TINY
    slot = next(i for i, s in enumerate(oracle.slots) if s.kind == "run_rounds")
    op = oracle.make_op(oracle.setup(tmp_path), seed=0, rnd=0, slot=slot)
    assert op.check(op.run()) is None


@pytest.mark.parametrize("name", ["analyze-l1", "compile-audit", "analyze-l2", "oracle-tiny"])
def test_analyze_ops_pass_their_checks(workloads, tmp_path, name):
    # the benchmark refuses an estimator report out of range, a wrong count
    # of comparisons, a marginal past its Hoeffding bound, a compile whose
    # outputs differ from the logical circuit or a failed audit command; a
    # change that trips one of those checks must fail here too.  Round 0's
    # slots run in slot order, as in a run: the audit pass reads the files
    # the compile slots write.  A passing check returns None, or 0 for a
    # compile with no mismatched output rows.
    assert sorted(workloads.WORKLOADS) == sorted(
        ["analyze-l1", "compile-audit", "analyze-l2", "oracle-tiny"])
    workload = workloads.WORKLOADS[name]
    state = workload.setup(tmp_path)
    for slot, spec in enumerate(workload.slots):
        op = workload.make_op(state, seed=0, rnd=0, slot=slot)
        reason = op.check(op.run())
        assert not reason, (slot, spec.kind, reason)
