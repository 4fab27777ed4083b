"""Transpilation passes: realification and gate-set rebasing.

Realification encodes a complex unitary as a real one on one extra qubit.
With J = X @ Z = [[0, -1], [1, 0]]:

    realify(U) = kron(Re U, I2) + kron(Im U, J)

so the flag qubit (appended last, least significant) holds the real/imaginary
split: |i>|0> maps to (Re U |i>)|0> + (Im U |i>)|1>.  The map is
multiplicative, which is why a circuit can be realified gate by gate with a
single shared flag qubit.

Realifying CS gives the doubly-controlled J, and J = X @ H @ X @ H, so the
whole gate costs two Toffolis and two Hadamards:

    [H(anc), CCX(a, b, anc), H(anc), CCX(a, b, anc)]

The H pair cancels when the controls do not fire, which keeps the identity
exact without controlling the Hadamards.  H and CCX are real, so each
realifies to itself tensored with the identity on the flag qubit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sk as sk_mod
from .circuit import Circuit
from .errors import BudgetNotMet, ValidationError
from .gates import Gate, GateKind, gate_matrix
from .linalg import as_matrix, is_unitary

_J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)

REALIFY_ALPHABET = (GateKind.H, GateKind.CS, GateKind.CCX)
TARGET_ALPHABET = (GateKind.H, GateKind.CCX)


@dataclass(frozen=True)
class TranspileReport:
    input_gates: int
    output_gates: int
    input_qubits: int
    output_qubits: int
    error_bound: float = 0.0


def realify_matrix(u) -> np.ndarray:
    """Real orthogonal encoding of u, flag qubit appended least significant."""
    u = as_matrix(u)
    if not is_unitary(u):
        raise ValidationError("realify_matrix requires a unitary input")
    return np.kron(u.real, np.eye(2)) + np.kron(u.imag, _J)


def realify_gate(g: Gate, ancilla: int) -> list[Gate]:
    """Realified expansion of one gate from the {H, CS, CCX} alphabet."""
    if g.kind is GateKind.H or g.kind is GateKind.CCX:
        return [g]
    if g.kind is GateKind.CS:
        a, b = g.qubits
        if ancilla in (a, b):
            raise ValidationError(f"ancilla {ancilla} collides with operands {g.qubits}")
        h = Gate(GateKind.H, (ancilla,))
        ccx = Gate(GateKind.CCX, (a, b, ancilla))
        return [h, ccx, h, ccx]
    raise ValidationError(
        f"realify_gate accepts only H, CS and CCX, got {g.kind.value}; "
        "rebase richer circuits first"
    )


def realify_circuit(c: Circuit) -> tuple[Circuit, TranspileReport]:
    """Realify a {H, CS, CCX} circuit onto {H, CCX} with one shared flag qubit."""
    ancilla = c.n_qubits
    out: list[Gate] = []
    for g in c.gates:
        out.extend(realify_gate(g, ancilla))
    rc = Circuit(c.n_qubits + 1, out)
    report = TranspileReport(
        input_gates=len(c),
        output_gates=len(rc),
        input_qubits=c.n_qubits,
        output_qubits=rc.n_qubits,
        error_bound=0.0,
    )
    return rc, report


# Exact expansions over {H, CS}, in application order.  The single-qubit
# X, Z, S and SDG have exact words too (S on qubit 0 is the word
# H1 CS H1 CS CS H1 CS H1 CS CS), but they go through the approximation
# route until exact synthesis of two-qubit Clifford+CS words lands.
def rebase_exact(g: Gate) -> list[Gate] | None:
    kind = g.kind
    if kind is GateKind.H or kind is GateKind.CS:
        return [g]
    if kind is GateKind.CZ:
        cs = Gate(GateKind.CS, g.qubits)
        return [cs, cs]
    if kind is GateKind.CSDG:
        cs = Gate(GateKind.CS, g.qubits)
        return [cs, cs, cs]
    if kind is GateKind.CNOT:
        a, b = g.qubits
        h = Gate(GateKind.H, (b,))
        cs = Gate(GateKind.CS, (a, b))
        return [h, cs, cs, h]
    return None


def _exact_rewrite(g: Gate, keep) -> list[Gate] | None:
    """[g] when its kind is kept, else its exact {H, CS} word; None when g
    has to be approximated from a net."""
    if g.kind in keep:
        return [g]
    if g.kind is GateKind.GENERIC:
        return None
    return rebase_exact(g)


def needs_net(c: Circuit, keep=()) -> bool:
    """Whether rebase_circuit(c, net, eps, keep) searches the net at all."""
    return any(_exact_rewrite(g, keep) is None for g in c.gates)


def _approx_target(g: Gate, n_qubits: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Two-qubit unitary and qubit pair for a gate with no exact expansion."""
    if len(g.qubits) == 2:
        a, b = g.qubits
        return np.asarray(gate_matrix(g), dtype=complex), (a, b)
    if len(g.qubits) != 1:
        raise ValidationError(
            f"cannot rebase a {len(g.qubits)}-qubit gate; only gates on "
            "one or two qubits are supported"
        )
    if n_qubits < 2:
        raise ValidationError(
            f"approximating {g.kind.value} needs a second qubit; "
            "the circuit has only one"
        )
    q = g.qubits[0]
    partner = 0 if q != 0 else 1
    return np.kron(gate_matrix(g), np.eye(2)), (q, partner)


def rebase_circuit(
    c: Circuit, net: "sk_mod.Net | None", eps: float, keep=()
) -> tuple[Circuit, TranspileReport]:
    """Rewrite a circuit over {H, CS}, approximating where no identity exists.

    Gates whose kind is in `keep` pass through unchanged; the th route keeps
    CCX, which realification accepts as it is.  net may be None when
    needs_net(c, keep) is false.  The accuracy budget eps is
    split uniformly over the gates that need approximation; error_bound is
    the sum of achieved distances.

    The net is searched once per distinct target matrix in this call: X on
    qubit 0 and X on qubit 2 both approximate kron(X, I) on their own pair.
    The memo is keyed on the target's bytes and lives for one call; the
    budget is still checked for every gate.
    """
    if not eps > 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    plans: list[list[Gate] | Gate] = []
    pending = 0
    for g in c.gates:
        seq = _exact_rewrite(g, keep)
        if seq is None:
            plans.append(g)
            pending += 1
        else:
            plans.append(seq)

    budget = eps / pending if pending else eps
    out: list[Gate] = []
    total_err = 0.0
    searched: dict[bytes, tuple[tuple[str, ...], float]] = {}
    for plan in plans:
        if isinstance(plan, list):
            out.extend(plan)
            continue
        target, pair = _approx_target(plan, c.n_qubits)
        key = target.tobytes()
        found = searched.get(key)
        if found is None:
            k, achieved = sk_mod._nearest(net, target)
            found = searched[key] = (net.seqs[k], achieved)
        seq, achieved = found
        if achieved > budget:
            raise BudgetNotMet(
                f"best approximation of {plan.kind.value} on {plan.qubits} "
                f"reaches {achieved:.3e}, above the per-gate budget {budget:.3e}",
                best_seq=seq,
                achieved=achieved,
            )
        out.extend(_emit_kitaev(seq, pair, net))
        total_err += achieved

    rc = Circuit(c.n_qubits, out)
    report = TranspileReport(
        input_gates=len(c),
        output_gates=len(rc),
        input_qubits=c.n_qubits,
        output_qubits=c.n_qubits,
        error_bound=total_err,
    )
    return rc, report


def _emit_kitaev(seq, pair: tuple[int, int], net: "sk_mod.Net") -> list[Gate]:
    """Map net labels over the two-qubit domain onto concrete circuit qubits."""
    out = []
    for label in seq:
        g = net.gateset.gate(label)
        qubits = tuple(pair[q] for q in g.qubits)
        out.append(Gate(g.kind, qubits, matrix=g.matrix))
    return out
