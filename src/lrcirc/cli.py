"""Command-line entry point wiring the compiler, the lab and the audits.

Subcommands: compile | run | analyze | audit (steane|shor|transversality) |
noise-equiv | report.  Every stochastic subcommand requires an explicit
--seed; all machine-readable output is JSON (sorted keys), circuits travel
as netlist text.  Exit codes: 0 success, 1 usage error, 2 audit failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import channels, faults, lab
from .circuits import EvalError
from .compiler import CompiledCircuit, compile_circuit, location_report
from .netlist import NetlistError, parse_netlist, serialize_netlist


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write(text: str, path: str | None) -> None:
    """Write `text` to the file at `path`, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dump(obj, path: str | None) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def _load_circuit(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_netlist(fh.read())


def _load_gadgets(path: str, circuit) -> CompiledCircuit:
    """The gadget index in `path`, checked against `circuit` unless None."""
    with open(path, encoding="utf-8") as fh:
        return CompiledCircuit.from_json_dict(circuit, json.load(fh))


def _load_target(circuit_path: str, gadgets_path: str | None):
    circuit = _load_circuit(circuit_path)
    return circuit if gadgets_path is None else _load_gadgets(gadgets_path, circuit)


def _bits(text: str) -> list[int]:
    if set(text) - {"0", "1"}:
        raise UsageError(f"bit string expected, got {text!r}")
    return [int(c) for c in text]


def build_parser() -> _Parser:
    p = _Parser(prog="lrc", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compile", help="compile a logical netlist")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--out", dest="outfile", required=True)
    c.add_argument("--level", type=int, default=1, choices=(1, 2))
    c.add_argument("--ec", choices=("on", "off"), default="on")
    c.add_argument("--dump-gadgets", dest="gadgets")
    c.add_argument("--dump-events", dest="events")

    r = sub.add_parser("run", help="sample leakage transcripts")
    r.add_argument("--circuit", required=True)
    r.add_argument("--gadgets", help="gadget index JSON for compiled targets")
    r.add_argument("--secret", required=True)
    r.add_argument("--input", dest="public", default="")
    r.add_argument("--rounds", type=int, default=1)
    r.add_argument("--leak-p", type=float, required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--out", dest="outfile")

    a = sub.add_parser("analyze", help="estimate distinguishing advantage")
    a.add_argument("--circuit", required=True)
    a.add_argument("--gadgets")
    a.add_argument("--mode", required=True,
                   choices=("tv", "marginal", "pairwise", "exact"))
    a.add_argument("--y0", required=True)
    a.add_argument("--y1", required=True)
    a.add_argument("--input", dest="public", default="")
    a.add_argument("--leak-p", type=float, required=True)
    a.add_argument("--samples", type=int, default=2000)
    a.add_argument("--seed", type=int, required=True)
    a.add_argument("--out", dest="outfile")

    au = sub.add_parser("audit", help="run a structural audit")
    au.add_argument("what", choices=("steane", "shor", "transversality"))
    au.add_argument("--circuit")
    au.add_argument("--gadgets")
    au.add_argument("--out", dest="outfile")

    n = sub.add_parser("noise-equiv", help="leakage vs dephasing channel sweep")
    n.add_argument("--wires", type=int, default=3)
    n.add_argument("--trials", type=int, default=20)
    n.add_argument("--seed", type=int, required=True)
    n.add_argument("--out", dest="outfile")

    rep = sub.add_parser("report", help="gadget location/threshold report")
    rep.add_argument("--gadgets", required=True)
    rep.add_argument("--circuit")
    rep.add_argument("--out", dest="outfile")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (NetlistError, EvalError, OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def _dispatch(args) -> int:
    if args.cmd == "compile":
        compiled = compile_circuit(
            _load_circuit(args.infile), level=args.level, ec=args.ec == "on"
        )
        _write(serialize_netlist(compiled.circuit), args.outfile)
        if args.gadgets:
            _dump(compiled.to_json_dict(), args.gadgets)
        if args.events:
            _write("\n".join(compiled.circuit.event_listing()) + "\n", args.events)
        return 0

    if args.cmd == "run":
        if args.rounds < 1:
            raise UsageError("--rounds must be at least 1")
        target = _load_target(args.circuit, args.gadgets)
        transcripts = lab.run_rounds(
            target, _bits(args.secret), [_bits(args.public)] * args.rounds,
            lab.LeakageModel(args.leak_p), seed=args.seed,
        )
        _write("".join(json.dumps(t.to_json_dict(), sort_keys=True) + "\n"
                       for t in transcripts), args.outfile)
        return 0

    if args.cmd == "analyze":
        target = _load_target(args.circuit, args.gadgets)
        model = lab.LeakageModel(args.leak_p)
        y0, y1, x = _bits(args.y0), _bits(args.y1), _bits(args.public)
        if args.mode == "exact":
            report = lab.exact_tv_tiny(target, y0, y1, x, model)
        elif args.mode == "tv":
            report = lab.mc_advantage(target, y0, y1, x, model,
                                      samples=args.samples, seed=args.seed)
        else:
            order = 1 if args.mode == "marginal" else 2
            report = lab.marginal_independence(target, y0, y1, x, order=order,
                                               samples=args.samples, seed=args.seed)
        _dump(report.to_json_dict(), args.outfile)
        return 0

    if args.cmd == "audit":
        return _audit(args)

    if args.cmd == "noise-equiv":
        report = channels.equivalence_sweep(
            random_wires=args.wires, trials=args.trials, seed=args.seed
        )
        _dump(report, args.outfile)
        tol = 1e-10
        ok = (report["exhaustive_max_distance"] <= tol
              and report["random_max_distance"] <= tol)
        return 0 if ok else 2

    if args.cmd == "report":
        circuit = _load_circuit(args.circuit) if args.circuit else None
        _dump(location_report(_load_gadgets(args.gadgets, circuit)), args.outfile)
        return 0

    raise UsageError(f"unknown command {args.cmd!r}")


def _audit(args) -> int:
    if args.what == "steane":
        from .steane import steane_report

        report = steane_report()
        _dump(report, args.outfile)
        return 0 if all(report["checks"].values()) else 2

    if args.what == "shor":
        try:
            report = faults.enumerate_single_faults()
        except faults.FaultAuditError as exc:
            sys.stderr.write(f"audit failed: {exc}\n")
            return 2
        _dump(report, args.outfile)
        return 0 if report["distinct"] else 2

    # transversality needs the compiled circuit plus its block registry
    if not args.circuit or not args.gadgets:
        raise UsageError("audit transversality needs --circuit and --gadgets")
    target = _load_target(args.circuit, args.gadgets)
    report = faults.transversality_audit(
        target.circuit, target.blocks,
        whitelist_gates=frozenset(target.readout_gates),
    )
    _dump(report, args.outfile)
    return 0 if report["clean"] else 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
