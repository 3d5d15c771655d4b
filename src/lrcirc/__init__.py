"""Leakage-resilient circuit compiler and side-channel laboratory.

The compiler rewrites reversible NOT/CNOT/TOF circuits into wide circuits
that mimic the classical shadow of Steane-code fault-tolerant gadgets, with
a leak-free random-bit source as the only trusted component.  The rest of
the package audits that construction: exact and Monte-Carlo transcript
distinguishers under independent per-wire leakage, a phase-error propagation
engine for the ancilla preparation circuits, and a small density-matrix
engine that checks the leakage-channel/dephasing-channel equivalence the
construction rests on.
"""

from .channels import (
    Channel,
    LeakageFunction,
    channel_distance,
    dephasing_channel,
    equivalence_sweep,
    leakage_channel,
    mixture_channel,
)
from .circuits import (
    Circuit,
    CircuitError,
    EvalError,
    Gate,
    GateKind,
    RandomTape,
    Register,
    Role,
    Trace,
    evaluate,
    evaluate_batch,
    truth_table,
)
from .compiler import (
    CompiledCircuit,
    CompileError,
    compile_circuit,
    location_report,
)
from .faults import (
    CliffordCircuit,
    enumerate_single_faults,
    propagate_z,
    syndrome_of,
    transversality_audit,
)
from .lab import (
    AdvantageReport,
    LeakageModel,
    LeakTranscript,
    encoded_secret_rows,
    exact_tv_tiny,
    marginal_independence,
    mc_advantage,
    run_rounds,
)
from .netlist import NetlistError, parse_netlist, serialize_netlist
from .steane import (
    encode_codeword,
    logical_value,
    overlap_parity,
    pairwise_uniformity_check,
)

__all__ = [
    "AdvantageReport",
    "Channel",
    "Circuit",
    "CircuitError",
    "CliffordCircuit",
    "CompileError",
    "CompiledCircuit",
    "EvalError",
    "Gate",
    "GateKind",
    "LeakTranscript",
    "LeakageFunction",
    "LeakageModel",
    "NetlistError",
    "RandomTape",
    "Register",
    "Role",
    "Trace",
    "channel_distance",
    "compile_circuit",
    "dephasing_channel",
    "encode_codeword",
    "encoded_secret_rows",
    "enumerate_single_faults",
    "equivalence_sweep",
    "evaluate",
    "evaluate_batch",
    "exact_tv_tiny",
    "leakage_channel",
    "location_report",
    "logical_value",
    "marginal_independence",
    "mc_advantage",
    "mixture_channel",
    "overlap_parity",
    "pairwise_uniformity_check",
    "parse_netlist",
    "propagate_z",
    "run_rounds",
    "serialize_netlist",
    "syndrome_of",
    "transversality_audit",
    "truth_table",
]
