"""End-to-end CLI behavior: exit codes, determinism, artifact round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lrcirc
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


@pytest.mark.parametrize("module", ["lrcirc.cli", "lrcirc"])
def test_python_dash_m_runs_the_cli(tmp_path, toffoli_netlist, module):
    out = tmp_path / "compiled.net"
    env = dict(os.environ)
    src = str(Path(lrcirc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "compile", "--in", str(toffoli_netlist),
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("in secret a.1\n")
