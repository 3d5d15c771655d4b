"""End-to-end CLI behavior: exit codes, determinism, artifact round trips."""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lrcirc
from lrcirc import cli, faults, steane
from lrcirc.cli import main

ONE_TOFFOLI = "in secret a\nin secret b\nout c\ngate TOF a b c\n"


@pytest.fixture
def toffoli_netlist(tmp_path):
    path = tmp_path / "toffoli.net"
    path.write_text(ONE_TOFFOLI)
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unknown_flag_exits_1(capsys):
    code, _, err = run_cli(capsys, "run", "--frobnicate")
    assert code == 1
    assert "usage error" in err


def test_missing_seed_is_a_usage_error(capsys, toffoli_netlist):
    code, _, err = run_cli(
        capsys, "run", "--circuit", toffoli_netlist,
        "--secret", "11", "--leak-p", "0.1",
    )
    assert code == 1
    assert "--seed" in err


def test_audit_steane_passes(capsys):
    code, out, _ = run_cli(capsys, "audit", "steane")
    assert code == 0
    report = json.loads(out)
    assert len(report["codewords_even"]) == 8
    assert all(report["checks"].values())


def test_audit_shor_lists_four_classes(capsys):
    code, out, _ = run_cli(capsys, "audit", "shor")
    assert code == 0
    report = json.loads(out)
    assert report["multi_error_classes"] == [[1, 2], [1, 2, 3], [5, 6, 7], [6, 7]]


def test_audit_shor_failure_exits_2(capsys, monkeypatch):
    # the audit on a decoder that sees nothing, as `audit shor` would run it
    blind = faults.CliffordCircuit(wires=7, cnots=(), prep={},
                                   measure={w: "Z" for w in range(1, 8)})
    audit = faults.enumerate_single_faults
    monkeypatch.setattr(faults, "enumerate_single_faults",
                        lambda: audit(faults.SHOR_PREP, blind))
    code, out, err = run_cli(capsys, "audit", "shor")
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert report == audit(faults.SHOR_PREP, blind)
    assert report["distinct"] is False
    assert report["problems"][0] == "class [1] has an empty syndrome"


@pytest.mark.parametrize("what", ["steane", "transversality"])
def test_failing_audit_writes_its_report_and_exits_2(capsys, monkeypatch, tmp_path,
                                                     compiled_files, what):
    if what == "steane":
        # the code tables are constants, so only a patched report can fail
        build = steane.steane_report
        monkeypatch.setattr(steane, "steane_report", lambda: {
            **build(), "checks": {**build()["checks"], "xor_closure": False}})
        argv = ["audit", "steane"]
    else:
        # one readout CNOT rewired to couple two wires of block a
        dirty = tmp_path / "dirty.net"
        dirty.write_text(compiled_files["l1"].read_text().replace(
            "gate CNOT a.1 g0.m1\n", "gate CNOT a.1 a.2\n", 1))
        argv = ["audit", "transversality", "--circuit", dirty,
                "--gadgets", compiled_files["l1.json"]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    if what == "steane":
        assert report["checks"]["xor_closure"] is False
    else:
        assert report["flags"] == [{"block": "a", "gate": 376, "kind": "CNOT",
                                    "reason": "intra-block", "registers": [0, 1]}]


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--mode", "marginal", "--y0", "0a", "--y1", "10", "--leak-p", "0.01",
      "--seed", "2"], "bit string expected, got '0a'"),
    (["audit", "transversality"], "audit transversality needs --circuit and --gadgets"),
], ids=["bad-bits", "transversality-without-gadgets"])
def test_usage_errors_exit_1(capsys, toffoli_netlist, argv, message):
    code, out, err = run_cli(capsys, *argv, "--circuit", toffoli_netlist)
    assert (code, out) == (1, "")
    assert err == f"usage error: {message}\n"


def test_compile_run_analyze_pipeline(capsys, tmp_path, toffoli_netlist):
    compiled = tmp_path / "compiled.net"
    gadgets = tmp_path / "gadgets.json"
    events = tmp_path / "events.txt"
    code, _, _ = run_cli(
        capsys, "compile", "--in", toffoli_netlist, "--out", compiled,
        "--level", "1", "--ec", "on", "--dump-gadgets", gadgets,
        "--dump-events", events,
    )
    assert code == 0
    assert compiled.exists() and gadgets.exists()
    assert "input secret-input a.1" in events.read_text()

    # p = 0: transcripts have empty masks and the decoded output
    transcripts = tmp_path / "t.jsonl"
    code, _, _ = run_cli(
        capsys, "run", "--circuit", compiled, "--gadgets", gadgets,
        "--secret", "11", "--rounds", "3", "--leak-p", "0",
        "--seed", "7", "--out", transcripts,
    )
    assert code == 0
    lines = [json.loads(l) for l in transcripts.read_text().splitlines()]
    assert len(lines) == 3
    assert all(t["mask"] == [] and t["output"] == {"c": 1} for t in lines)

    code, out, _ = run_cli(
        capsys, "analyze", "--circuit", compiled, "--gadgets", gadgets,
        "--mode", "marginal", "--y0", "01", "--y1", "10",
        "--leak-p", "0.01", "--samples", "2000", "--seed", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "per-wire-marginal"
    assert report["consistent_with_zero"]

    code, _, _ = run_cli(
        capsys, "audit", "transversality", "--circuit", compiled,
        "--gadgets", gadgets,
    )
    assert code == 0

    code, out, _ = run_cli(capsys, "report", "--gadgets", gadgets)
    assert code == 0
    report = json.loads(out)
    assert report["reference"]["pairs"] == 190


def test_run_byte_identical_for_same_seed(capsys, tmp_path, toffoli_netlist):
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        code, _, _ = run_cli(
            capsys, "run", "--circuit", toffoli_netlist, "--secret", "10",
            "--rounds", "5", "--leak-p", "0.3", "--seed", "99",
            "--out", path,
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_analyze_exact_mode_matches_oracle(capsys, tmp_path):
    wire = tmp_path / "wire.net"
    wire.write_text("in secret s\n")
    code, out, _ = run_cli(
        capsys, "analyze", "--circuit", wire, "--mode", "exact",
        "--y0", "0", "--y1", "1", "--leak-p", "0.01", "--seed", "0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["estimate"] == pytest.approx(0.01, abs=1e-15)
    assert report["method"] == "exact-tiny"


def test_noise_equiv_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "noise-equiv", "--wires", "2", "--trials", "3", "--seed", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["exhaustive_max_distance"] <= 1e-10


@pytest.mark.parametrize("argv", [["--trials", "-1"], ["--wires", "9", "--trials", "0"],
                                  ["--wires", "0"], ["--wires", "5"]],
                         ids=["trials-1", "wires9-trials0", "wires0", "wires5"])
def test_noise_equiv_refuses_bad_sizes(capsys, argv):
    # the first two used to exit 0 and report -1 functions or 9 random wires
    code, out, err = run_cli(capsys, "noise-equiv", *argv, "--seed", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "must be" in err


# gadget indexes with every key present but one value of the wrong shape
_MALFORMED = {
    "empty-gadget": lambda d: {**d, "gadgets": [{}]},
    "int-blocks": lambda d: {**d, "blocks": 5},
    "list-block-map": lambda d: {**d, "block_map": [1]},
    "str-readout": lambda d: {**d, "readout_gates": "ab"},
    "level3": lambda d: {**d, "level": 3},
    "str-ec": lambda d: {**d, "ec": "on"},
    "int-log": lambda d: {**d, "log": 5},
    "str-secret-reg": lambda d: {**d, "secret_blocks": [["0"]]},
    "unnamed-aux": lambda d: {**d, "aux_groups": [[1, [0]]]},
    "reversed-span": lambda d: {**d, "gadgets": [{**d["gadgets"][0], "gates": [5, 2]}]},
    "negative-span": lambda d: {**d, "gadgets": [{**d["gadgets"][0], "tape": [-1, 2]}]},
    "float-depth": lambda d: {**d, "gadgets": [{**d["gadgets"][0], "depth": 1.5}]},
    "str-logical-gates": lambda d: {**d, "logical": {**d["logical"], "gates": "x"}},
    "no-tape-bits": lambda d: {**d, "logical": {
        k: v for k, v in d["logical"].items() if k != "tape_bits"}},
    "no-secret-names": lambda d: {**d, "logical": {
        k: v for k, v in d["logical"].items() if k != "secret"}},
    "int-secret-names": lambda d: {**d, "logical": {**d["logical"], "secret": [0, 1]}},
}


_SPANS = ("gates", "events", "tape")


def _share_register(index):
    """`index` with the second block's first register swapped for the first's."""
    blocks = json.loads(json.dumps(index["blocks"]))
    blocks[1][1][0] = blocks[0][1][0]
    return {**index, "blocks": blocks}


@pytest.fixture(scope="module")
def compiled_files(tmp_path_factory):
    """The one-Toffoli netlist, its level-1 and level-2 compiles and indexes."""
    tmp = tmp_path_factory.mktemp("compiled")
    files = {"raw": tmp / "one.net"}
    files["raw"].write_text(ONE_TOFFOLI)
    for level in (1, 2):
        files[f"l{level}"], files[f"l{level}.json"] = tmp / f"l{level}.net", tmp / f"l{level}.json"
        assert main(["compile", "--in", str(files["raw"]), "--out", str(files[f"l{level}"]),
                     "--level", str(level), "--dump-gadgets", str(files[f"l{level}.json"])]) == 0
    index = json.loads(files["l1.json"].read_text())
    for name, edit in [("empty", lambda d: {}), ("list", lambda d: [1, 2]),
                       ("no-blocks", lambda d: {k: v for k, v in d.items() if k != "blocks"}),
                       ("no-logical", lambda d: {k: v for k, v in d.items() if k != "logical"}),
                       ("no-aux-groups",
                        lambda d: {k: v for k, v in d.items() if k != "aux_groups"}),
                       ("few-gates",
                        lambda d: {**d, "logical": {**d["logical"], "compiled_gates": 10}}),
                       ("many-gates",
                        lambda d: {**d, "logical": {**d["logical"], "compiled_gates": 10 ** 6}}),
                       ("far-readout", lambda d: {**d, "readout_gates": [10 ** 6]}),
                       ("far-block", lambda d: {**d, "block_map": {"c": [0, 1, 2, 3, 4, 5, 10 ** 6]}}),
                       ("swapped-secrets", lambda d: {**d, "secret_blocks": d["secret_blocks"][::-1]}),
                       ("shared-register", _share_register),
                       ("short-block", lambda d: {**d, "blocks": [
                           [d["blocks"][0][0], d["blocks"][0][1][:3]], *d["blocks"][1:]]}),
                       ("duplicate-block", lambda d: {**d, "blocks": [*d["blocks"], d["blocks"][0]]}),
                       *((f"far-{k}-span", lambda d, k=k: {**d, "gadgets": [
                           {**d["gadgets"][0], k: [0, 10 ** 9]}, *d["gadgets"][1:]]})
                         for k in _SPANS),
                       *_MALFORMED.items()]:
        files[name] = tmp / f"{name}.json"
        files[name].write_text(json.dumps(edit(index)))
    # the level-2 index claiming level 1: its 14 secret blocks read as 14
    # level-1 secrets instead of the 2 its "logical" names
    files["level-relabelled"] = tmp / "level-relabelled.json"
    files["level-relabelled"].write_text(
        json.dumps({**json.loads(files["l2.json"].read_text()), "level": 1}))
    return files


_AUDIT = ["audit", "transversality", "--circuit"]
_RUN = ["--secret", "10", "--leak-p", "0.1", "--seed", "1"]
_PAIRWISE = ["--mode", "pairwise", "--y0", "01", "--y1", "10", "--leak-p", "0.01",
             "--samples", "10", "--seed", "1"]


@pytest.mark.parametrize("argv", [
    ["report", "--gadgets", "empty"],
    ["report", "--gadgets", "no-blocks", "--circuit", "l1"],
    ["run", "--circuit", "l1", "--gadgets", "list", *_RUN],
    [*_AUDIT, "raw", "--gadgets", "l1.json"],
    [*_AUDIT, "l2", "--gadgets", "l1.json"],
    [*_AUDIT, "l1", "--gadgets", "l2.json"],
    [*_AUDIT, "l1", "--gadgets", "far-readout"],
    ["run", "--circuit", "l1", "--gadgets", "far-block", *_RUN],
    ["analyze", "--circuit", "l1", "--gadgets", "swapped-secrets", "--mode", "marginal",
     "--y0", "01", "--y1", "10", "--leak-p", "0.01", "--samples", "10", "--seed", "1"],
    *(["report", "--gadgets", name] for name in _MALFORMED),
    *(["run", "--circuit", "l1", "--gadgets", name, *_RUN] for name in _MALFORMED),
    *(["report", "--gadgets", f"far-{k}-span", "--circuit", "l1"] for k in _SPANS),
    *(["run", "--circuit", "l1", "--gadgets", f"far-{k}-span", *_RUN] for k in _SPANS),
    [*_AUDIT, "l1", "--gadgets", "far-gates-span"],
    *(["report", "--gadgets", f"far-{k}-span"] for k in _SPANS),
    ["report", "--gadgets", "far-readout"],
    ["report", "--gadgets", "no-logical"],
    ["report", "--gadgets", "no-aux-groups"],
    ["report", "--gadgets", "few-gates", "--circuit", "l1"],
    ["run", "--circuit", "l1", "--gadgets", "few-gates", *_RUN],
    ["report", "--gadgets", "many-gates", "--circuit", "l1"],
    ["analyze", "--circuit", "l1", "--gadgets", "shared-register", *_PAIRWISE],
    ["run", "--circuit", "l1", "--gadgets", "shared-register", *_RUN],
    [*_AUDIT, "l1", "--gadgets", "short-block"],
    ["analyze", "--circuit", "l1", "--gadgets", "duplicate-block", *_PAIRWISE],
    ["report", "--gadgets", "duplicate-block"],
    ["run", "--circuit", "l2", "--gadgets", "level-relabelled", "--secret", "10101010101010",
     "--leak-p", "0", "--seed", "1"],
    ["report", "--gadgets", "level-relabelled"],
], ids=["empty-object", "missing-key", "not-an-object", "raw-circuit", "level2-circuit",
        "level2-index", "readout-gate", "block-register", "secret-order",
        *(f"{cmd}-{name}" for cmd in ("report", "run") for name in _MALFORMED),
        *(f"{cmd}-far-{k}-span" for cmd in ("report", "run") for k in _SPANS),
        "audit-far-gates-span",
        *(f"report-alone-far-{k}-span" for k in _SPANS),
        "report-alone-far-readout", "report-no-logical", "report-no-aux-groups",
        "report-few-gates", "run-few-gates", "report-many-gates",
        "pairwise-shared-register", "run-shared-register", "audit-short-block",
        "pairwise-duplicate-block", "report-alone-duplicate-block",
        "run-level-relabelled", "report-alone-level-relabelled"])
def test_bad_gadget_index_is_an_error(capsys, compiled_files, argv):
    # these raised KeyError, TypeError or AttributeError, exited 0 (`run`
    # never reads the gadget spans; a span past the circuit's end gave
    # `report` a 10^9-gate gadget, with or without --circuit; an index
    # without "logical" or "aux_groups" loaded with defaults; a declared
    # compiled size the netlist contradicts was printed as is), or (raw
    # one.net with a level-1 index) made the transversality audit exit 2
    # with two bogus flags; blocks that share a register, hold only 3
    # or repeat an entry loaded, and pairwise analysis, `run` and a clean
    # transversality audit ran on them; a level-2 index relabelled level 1
    # ran `run` with a 14-bit secret
    code, out, err = run_cli(capsys, *(compiled_files.get(a, a) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: gadget index ") and "Traceback" not in err


def test_good_gadget_indexes_still_load(capsys, compiled_files):
    for level in (1, 2):
        net, index = compiled_files[f"l{level}"], compiled_files[f"l{level}.json"]
        assert run_cli(capsys, *_AUDIT, net, "--gadgets", index)[0] == 0
        assert run_cli(capsys, "report", "--gadgets", index, "--circuit", net)[0] == 0
        assert run_cli(capsys, "report", "--gadgets", index)[0] == 0


def test_bad_netlist_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_text("in secret s\ngate CNOT s s\n")
    code, _, err = run_cli(
        capsys, "run", "--circuit", bad, "--secret", "1",
        "--leak-p", "0.1", "--seed", "1",
    )
    assert code == 1
    assert "line 2" in err


# line 7 conditions a CNOT on event 2, the port of line 6's conditioned
# NOT, which the runs with r = 0 skip
_SKIPPABLE = ("in secret s\nreg r\nreg a\nout o\ngate RAND r\n"
              "cgate 1 NOT a\ncgate 2 CNOT a o\ngate CNOT s o\n")


def test_a_skippable_condition_fails_every_run_at_its_line(capsys, tmp_path):
    # `run` used to exit 0 for 5 of these 12 seeds and round counts, since
    # the evaluator raised only when a sampled row skipped event 2, and both
    # commands named no line when they failed
    net = tmp_path / "skippable.net"
    net.write_text(_SKIPPABLE)
    out = tmp_path / "rounds.jsonl"
    for seed in range(6):
        for rounds in ("1", "3"):
            code, stdout, err = run_cli(
                capsys, "run", "--circuit", net, "--secret", "0", "--rounds", rounds,
                "--leak-p", "0.5", "--seed", seed, "--out", out,
            )
            assert (code, stdout) == (1, "")
            assert err.startswith("error: line 7: ")
            assert not out.exists()
    errors = set()
    for y0 in ("0", "1"):
        code, stdout, err = run_cli(
            capsys, "analyze", "--circuit", net, "--mode", "exact", "--y0", y0,
            "--y1", "1", "--leak-p", "0.5", "--seed", "0",
        )
        assert (code, stdout) == (1, "")
        errors.add(err)
    assert len(errors) == 1 and errors.pop().startswith("error: line 7: ")


def test_analyze_byte_identical_reports(capsys, tmp_path, toffoli_netlist):
    reports = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        code, _, _ = run_cli(
            capsys, "analyze", "--circuit", toffoli_netlist, "--mode", "tv",
            "--y0", "01", "--y1", "10", "--leak-p", "0.01",
            "--samples", "1000", "--seed", "5", "--out", path,
        )
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


# sha256 prefix of the level-2 one-Toffoli pairwise report below
L2_PAIRWISE_DIGEST = "f97e8a8337f9f92c"


def test_level2_pairwise_reports_are_byte_identical(capsys, tmp_path, compiled_files):
    reports = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        code, _, _ = run_cli(
            capsys, "analyze", "--circuit", compiled_files["l2"],
            "--gadgets", compiled_files["l2.json"], "--mode", "pairwise",
            "--y0", "01", "--y1", "10", "--leak-p", "0.01",
            "--samples", "64", "--seed", "1", "--out", path,
        )
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["details"]["comparisons"] == 72226
    assert hashlib.sha256(reports[0]).hexdigest()[:16] == L2_PAIRWISE_DIGEST


def test_pairwise_on_raw_circuit_is_an_error(capsys, toffoli_netlist):
    code, _, err = run_cli(
        capsys, "analyze", "--circuit", toffoli_netlist, "--mode", "pairwise",
        "--y0", "01", "--y1", "10", "--leak-p", "0.01",
        "--samples", "1000", "--seed", "2",
    )
    assert code == 1
    assert "blocks" in err


def test_marginal_with_zero_samples_is_an_error(capsys, toffoli_netlist):
    code, _, err = run_cli(
        capsys, "analyze", "--circuit", toffoli_netlist, "--mode", "marginal",
        "--y0", "01", "--y1", "10", "--leak-p", "0.01",
        "--samples", "0", "--seed", "2",
    )
    assert code == 1
    assert err == "error: need at least 1 sample\n"


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_run_without_rounds_is_an_error(capsys, tmp_path, toffoli_netlist, rounds):
    # both used to exit 0 and write one blank line, which is no JSONL record
    out = tmp_path / "rounds.jsonl"
    code, _, err = run_cli(
        capsys, "run", "--circuit", toffoli_netlist, "--secret", "10",
        "--rounds", rounds, "--leak-p", "0.3", "--seed", "1", "--out", out,
    )
    assert code == 1
    assert err == "usage error: --rounds must be at least 1\n"
    assert not out.exists()


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for cmd in ("compile", "run", "analyze", "audit", "noise-equiv", "report"):
        assert cmd in out


@pytest.mark.parametrize("argv", [["audit", "steane"], ["run", "--frobnicate"]])
def test_main_leaves_no_parser_garbage(capsys, argv):
    # main reuses one parser; a parser built per call is a web of reference
    # cycles (hundreds of objects) that only a collector pass frees.  The
    # report writer leaves none either: json.dumps with an indent would
    # leave its encoder's closures (about 33 objects) per report.
    main(argv)  # the first call builds the parser
    gc.collect()
    before = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(argv)
        gc.collect()
        leftover = [type(obj).__name__ for obj in gc.garbage[before:]]
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
    assert leftover == []


def _module_env() -> dict:
    """The environment with this checkout's lrcirc first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(lrcirc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("module", ["lrcirc.cli", "lrcirc"])
def test_python_dash_m_runs_the_cli(tmp_path, toffoli_netlist, module):
    out = tmp_path / "compiled.net"
    proc = subprocess.run(
        [sys.executable, "-m", module, "compile", "--in", str(toffoli_netlist),
         "--out", str(out)],
        env=_module_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("in secret a.1\n")


def _steane_report(capsys) -> bytes:
    code, out, _ = run_cli(capsys, "audit", "steane")
    assert code == 0
    return out.encode("utf-8")


def test_out_overwrites_a_longer_file_with_exactly_the_new_bytes(capsys, tmp_path):
    out = tmp_path / "report.json"
    out.write_bytes(b"x" * 100_000)
    assert run_cli(capsys, "audit", "steane", "--out", out)[0] == 0
    assert out.read_bytes() == _steane_report(capsys)


def test_out_through_a_symlink_keeps_the_link_and_the_mode(capsys, tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"y" * 10_000)
    target.chmod(0o600)
    link.symlink_to(target)
    assert run_cli(capsys, "audit", "steane", "--out", link)[0] == 0
    assert link.is_symlink()
    assert target.read_bytes() == _steane_report(capsys)
    assert target.stat().st_mode & 0o777 == 0o600


def test_out_to_a_directory_is_an_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "audit", "steane", "--out", tmp_path)
    assert code == 1
    assert err.startswith("error: ") and "Is a directory" in err


def test_out_opens_without_truncating(capsys, tmp_path, monkeypatch):
    # O_TRUNC stalls each rewrite of a non-empty file 36-50 ms on ext4
    # (see cli._write), so the file is cut after writing instead
    out = tmp_path / "report.json"
    out.write_bytes(b"z" * 1000)
    calls = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        calls.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    assert run_cli(capsys, "audit", "steane", "--out", out)[0] == 0
    flags = [f for path, f in calls if path == str(out)]
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
    assert out.read_bytes() == _steane_report(capsys)


def test_out_to_a_device_is_not_truncated(capsys):
    # /dev/null can seek but refuses ftruncate
    assert run_cli(capsys, "audit", "steane", "--out", os.devnull)[0] == 0


def test_out_to_piped_stdout_prints_the_report(capsys):
    runs = [subprocess.run([sys.executable, "-m", "lrcirc", "audit", "steane", *extra],
                           env=_module_env(), capture_output=True, timeout=120)
            for extra in ([], ["--out", "/dev/stdout"])]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[1].stdout == runs[0].stdout == _steane_report(capsys)


# -- the report writer ----------------------------------------------------------

class _StrKey(str):
    pass


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 70, 2 ** 70)
                 | st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
                 | st.text(st.characters(codec=None)) | st.text("\x00\x1f\x7f\"\\\n\t é€𝄞"))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_JSON_VALUES)
@example({})
@example([])
@example(())
@example({"b": [1, {"a": ()}], "a": {}, "é": -0.0})
def test_dump_writes_json_dumps_bytes(obj):
    expected = json.dumps(obj, sort_keys=True, indent=2)
    assert cli._indented(obj, "\n") == expected  # no hand-off to json.dumps
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._dump(obj, None)
    assert out.getvalue() == expected + "\n"


@pytest.mark.parametrize("obj", [
    {1: "int key"}, {"a": {2.5: None}}, [faults], {"x": [np.int64(3)]}, [np.float64(0.5)],
    {"a": True, "b": [float("nan")], "s": _StrKey("k")},
], ids=["int-key", "float-key", "module", "numpy-int", "numpy-float", "str-subclass-key"])
def test_dump_hands_values_it_does_not_list_to_json(capsys, obj):
    try:
        expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    except TypeError as exc:
        with pytest.raises(TypeError, match=str(exc)):
            cli._dump(obj, None)
        return
    cli._dump(obj, None)
    assert capsys.readouterr().out == expected


def test_every_report_writes_json_dumps_bytes(capsys, tmp_path, compiled_files, monkeypatch):
    dumped, json_text = [], cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda obj: dumped.append(obj) or json_text(obj))
    analyze = ["analyze", "--circuit", compiled_files["l1"], "--gadgets",
               compiled_files["l1.json"], "--y0", "01", "--y1", "10", "--leak-p", "0.01",
               "--samples", "1000", "--seed", "1", "--mode"]
    exact = tmp_path / "exact.net"
    exact.write_text("in secret a\nin secret b\nreg r\nout o\n"
                     "gate RAND r\ngate CNOT a r\ngate CNOT r o\ngate CNOT b o\n")
    runs = {
        "compile": ["compile", "--in", compiled_files["raw"], "--out", tmp_path / "l2.net",
                    "--level", "2", "--dump-gadgets", tmp_path / "l2.json"],
        "analyze-tv": [*analyze, "tv"],
        "analyze-marginal": [*analyze, "marginal"],
        "analyze-pairwise": [*analyze, "pairwise"],
        "analyze-exact": ["analyze", "--circuit", exact, "--mode", "exact", "--y0", "01",
                          "--y1", "10", "--leak-p", "0.1", "--seed", "1"],
        "audit-steane": ["audit", "steane"],
        "audit-shor": ["audit", "shor"],
        "audit-transversality": ["audit", "transversality", "--circuit", compiled_files["l2"],
                                 "--gadgets", compiled_files["l2.json"]],
        "noise-equiv": ["noise-equiv", "--wires", "2", "--trials", "3", "--seed", "4"],
        "report": ["report", "--gadgets", compiled_files["l2.json"],
                   "--circuit", compiled_files["l2"]],
    }
    for name, argv in runs.items():
        dumped.clear()
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (name, err)
        assert len(dumped) == 1, name
        expected = json.dumps(dumped[0], sort_keys=True, indent=2)
        assert cli._indented(dumped[0], "\n") == expected, name
        if name == "compile":
            assert (tmp_path / "l2.json").read_text() == expected + "\n"
            assert (tmp_path / "l2.json").read_bytes() == compiled_files["l2.json"].read_bytes()
        else:
            assert out == expected + "\n", name
