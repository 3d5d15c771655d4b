"""Command-line entry point wiring the compiler, the lab and the audits.

Subcommands: compile | run | analyze | audit (steane|shor|transversality) |
noise-equiv | report.  Every stochastic subcommand requires an explicit
--seed; all machine-readable output is JSON (sorted keys), circuits travel
as netlist text.  Reports and gadget indexes are written as
`json.dumps(obj, sort_keys=True, indent=2)` would write them, by a writer
that leaves no cyclic garbage (see `_json_text`).  Exit codes: 0 success,
1 usage error, 2 audit failure; a failing audit writes its report first.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

from . import channels, faults, lab, steane
from .circuits import EvalError
from .compiler import CompiledCircuit, compile_circuit, location_report
from .netlist import parse_netlist, serialize_netlist


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write(text: str, path: str | None) -> None:
    """Write `text` to the file at `path`, or to stdout when path is None.

    The file is overwritten in place: opened without O_TRUNC, written, then
    cut to the new length.  On ext4, truncating a non-empty file on open
    starts writeback at close (`auto_da_alloc`), and the next O_TRUNC of
    that file waits for it: 36-50 ms per rewrite, against 0.01-0.06 ms in
    place.  Writing a temporary file and `os.replace`-ing it stalls as
    long.  Only a regular file is cut, as O_TRUNC would: a pipe cannot
    seek, and /dev/null seeks but refuses ftruncate.  Symlinks are followed
    and an existing file keeps its mode.
    """
    if path is None:
        sys.stdout.write(text)
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _dump(obj, path: str | None) -> None:
    _write(_json_text(obj) + "\n", path)


def _json_text(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte.

    With an indent, json runs its pure-Python encoder: a generator per
    container and a web of nested closures, which is slow on a level-2
    gadget index (578 KB) and leaves about 33 objects of cyclic garbage per
    call.  `_indented` writes the same text with one join per container.
    A value of a type it does not list (a subclass, a numpy scalar, a key
    that is not a str) hands the whole object to json.dumps, so the text
    and the errors stay json's own.
    """
    try:
        return _indented(obj, "\n")
    except TypeError:
        return json.dumps(obj, sort_keys=True, indent=2)


_encode_str = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def _indented(obj, newline: str) -> str:
    """JSON text of `obj` as json.dumps(sort_keys=True, indent=2) writes it
    at the depth where `newline` ("\\n" plus the indent) starts a line."""
    t = type(obj)
    if t is str:
        return _encode_str(obj)
    if t is int:
        return int.__repr__(obj)
    if t is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            _encode_str(k) + ": " + _indented(v, inner) for k, v in sorted(obj.items())
        ]) + newline + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_indented(v, inner) for v in obj]) + newline + "]"
    if t is float:
        if obj != obj:
            return "NaN"
        return _FLOAT_WORDS.get(obj) or float.__repr__(obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    raise TypeError(f"{t.__name__} is left to json.dumps")


def _load_target(circuit_path: str | None, gadgets_path: str | None = None):
    """The netlist at `circuit_path` (None without one) or, given a gadget
    index, that index checked against the netlist unless it is None."""
    circuit = None
    if circuit_path is not None:
        with open(circuit_path, encoding="utf-8") as fh:
            circuit = parse_netlist(fh.read())
    if gadgets_path is None:
        return circuit
    with open(gadgets_path, encoding="utf-8") as fh:
        return CompiledCircuit.from_json_dict(circuit, json.load(fh))


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


@functools.cache
def _parser() -> _Parser:
    """The one parser of this process, built on first use: a parser is a
    web of reference cycles, so one built per call would stay behind as
    cyclic garbage."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _dispatch(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (EvalError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def _dispatch(args) -> int:
    if args.cmd == "compile":
        compiled = compile_circuit(
            _load_target(args.infile), level=args.level, ec=args.ec == "on"
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

    # report, the last subcommand argparse admits
    _dump(location_report(_load_target(args.circuit or None, args.gadgets)), args.outfile)
    return 0


def _audit(args) -> int:
    """Build the audit's report, write it, and exit 2 if it failed."""
    if args.what == "steane":
        report = steane.steane_report()
        ok = all(report["checks"].values())
    elif args.what == "shor":
        report = faults.enumerate_single_faults()
        ok = report["distinct"]
    else:
        # transversality needs the compiled circuit plus its block registry
        if not args.circuit or not args.gadgets:
            raise UsageError("audit transversality needs --circuit and --gadgets")
        target = _load_target(args.circuit, args.gadgets)
        report = faults.transversality_audit(
            target.circuit, target.blocks,
            whitelist_gates=frozenset(target.readout_gates),
        )
        ok = report["clean"]
    _dump(report, args.outfile)
    return 0 if ok else 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
