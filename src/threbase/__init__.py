"""Rebase quantum circuits onto the two-gate set {Toffoli, Hadamard}.

A complex circuit over {H, CS} becomes a real circuit on one extra qubit
(four Toffoli/Hadamard gates per CS, nothing for H), richer gate sets are
first rewritten over {H, CS} exactly or by net search, and a built-in
statevector simulator checks every rewrite against the matrix oracle.
"""

from .circuit import MAX_QUBITS, Circuit, circuit_unitary, embed
from .errors import (
    BudgetNotMet,
    CapExceeded,
    CompileError,
    ValidationError,
)
from .gates import (
    BUILTIN_GATE_SETS,
    Gate,
    GateKind,
    GateSet,
    demo_1q_gate_set,
    gate_matrix,
    kitaev_gate_set,
)
from .io import emit_circuit, emit_net, parse_circuit, parse_net
from .linalg import dist, haar_unitary, is_unitary, phase_dist
from .passes import (
    realify_circuit,
    realify_gate,
    realify_matrix,
    rebase_circuit,
    rebase_exact,
)
from .sk import (
    Net,
    NetEntry,
    SKConfig,
    build_net,
    gc_decompose,
    nearest,
    sk_approx,
    sk_trace,
)
from .verify import (
    EquivalenceReport,
    check_exact,
    check_measurement_stats,
    check_realified,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_GATE_SETS",
    "BudgetNotMet",
    "CapExceeded",
    "Circuit",
    "CompileError",
    "EquivalenceReport",
    "Gate",
    "GateKind",
    "GateSet",
    "MAX_QUBITS",
    "Net",
    "NetEntry",
    "SKConfig",
    "ValidationError",
    "build_net",
    "check_exact",
    "check_measurement_stats",
    "check_realified",
    "circuit_unitary",
    "demo_1q_gate_set",
    "dist",
    "embed",
    "emit_circuit",
    "emit_net",
    "gate_matrix",
    "gc_decompose",
    "haar_unitary",
    "is_unitary",
    "kitaev_gate_set",
    "nearest",
    "parse_circuit",
    "parse_net",
    "phase_dist",
    "realify_circuit",
    "realify_gate",
    "realify_matrix",
    "rebase_circuit",
    "rebase_exact",
    "run",
    "sk_approx",
    "sk_trace",
]
