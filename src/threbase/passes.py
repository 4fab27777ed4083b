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

Rebasing onto {H, CS} is gate by gate as well.  Every named gate, the
Toffoli included, has an exact word, read from one table built at import;
a one-qubit gate's word also uses a fixed partner qubit, on which it acts
as the identity.  H and CS are their own words and pass through, as does
CCX on the th route.  Only GENERIC gates are approximated, each by a
two-qubit net entry.  Both passes return (circuit, error_bound).
"""

from __future__ import annotations

import numpy as np

from . import sk as sk_mod
from .circuit import MAX_WIDTH, Circuit
from .errors import BudgetNotMet, ValidationError
from .gates import Gate, GateKind
from .linalg import as_matrix, is_unitary

_J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


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
        # Gate refuses an ancilla that is one of the operands.
        h = Gate(GateKind.H, (ancilla,))
        ccx = Gate(GateKind.CCX, g.qubits + (ancilla,))
        return [h, ccx, h, ccx]
    raise ValidationError(
        f"realify_gate accepts only H, CS and CCX, got {g.kind.value}; "
        "rebase richer circuits first"
    )


def realify_circuit(c: Circuit) -> tuple[Circuit, float]:
    """Realify a {H, CS, CCX} circuit onto {H, CCX} with one shared flag qubit.

    Returns (circuit, error_bound) like rebase_circuit; the bound is 0.0,
    since every gate's expansion is exact.
    """
    ancilla = c.n_qubits
    if ancilla >= MAX_WIDTH:
        raise ValidationError(
            f"the flag qubit would take the circuit to {ancilla + 1} qubits, "
            f"over the ceiling of {MAX_WIDTH}"
        )
    out: list[Gate] = []
    for g in c.gates:
        out.extend(realify_gate(g, ancilla))
    return Circuit(c.n_qubits + 1, out), 0.0


# Exact words over {H, CS}, in application order, each equal to its gate
# with no phase.  Slot i of a word is operand i of the gate it rewrites, so
# CNOT(a, b) becomes H(b) CS(a, b) CS(a, b) H(b).  A one-qubit gate on q
# takes the partner _partner(q) as slot 1.  CCX(a, b, t) is Barenco et
# al.'s controlled-V construction with V = H S H: H(t) CS(b, t) CNOT(a, b)
# CS(b, t)^3 CNOT(a, b) CS(a, t) H(t).
_H0, _H1, _CS01 = (GateKind.H, (0,)), (GateKind.H, (1,)), (GateKind.CS, (0, 1))
_CNOT01 = (_H1, _CS01, _CS01, _H1)
_H2, _CS12 = (GateKind.H, (2,)), (GateKind.CS, (1, 2))
_EXACT_WORDS: dict[GateKind, tuple[tuple[GateKind, tuple[int, ...]], ...]] = {
    GateKind.H: (_H0,),
    GateKind.X: (_H0,) + (_H1, _CS01, _CS01) * 4 + (_H0,),
    GateKind.Z: (_H1, _CS01, _CS01) * 4,
    GateKind.S: (_H1, _CS01, _H1, _CS01, _CS01) * 2,
    GateKind.SDG: (_H1, _CS01, _CS01, _H1, _CS01, _CS01, _CS01) * 2,
    GateKind.CS: (_CS01,),
    GateKind.CZ: (_CS01,) * 2,
    GateKind.CSDG: (_CS01,) * 3,
    GateKind.CNOT: _CNOT01,
    GateKind.CCX: (
        (_H2, _CS12) + _CNOT01 + (_CS12,) * 3 + _CNOT01 + ((GateKind.CS, (0, 2)), _H2)
    ),
}


def _partner(q: int) -> int:
    """The second qubit a one-qubit gate on q is rewritten or approximated on."""
    return 0 if q != 0 else 1


def rebase_exact(g: Gate) -> list[Gate] | None:
    """g's exact {H, CS} word, or None when it has none.

    The word acts on g's operands and, for a one-qubit gate, on its partner.
    """
    word = _EXACT_WORDS.get(g.kind)
    if word is None:
        return None
    ops = g.qubits if len(g.qubits) > 1 else (g.qubits[0], _partner(g.qubits[0]))
    return [Gate(kind, tuple(ops[i] for i in slots)) for kind, slots in word]


def needs_net(c: Circuit) -> bool:
    """Whether rebase_circuit searches the net: only GENERIC gates take it."""
    return any(g.kind is GateKind.GENERIC for g in c.gates)


def _approx_target(g: Gate) -> tuple[np.ndarray, tuple[int, int]]:
    """Two-qubit unitary and qubit pair for a GENERIC gate."""
    if len(g.qubits) == 2:
        return g.matrix, g.qubits
    if len(g.qubits) != 1:
        raise ValidationError(
            f"cannot rebase a {len(g.qubits)}-qubit gate; only gates on "
            "one or two qubits are supported"
        )
    q = g.qubits[0]
    return np.kron(g.matrix, np.eye(2)), (q, _partner(q))


def rebase_circuit(
    c: Circuit, net: "sk_mod.Net | None", eps: float, th: bool = False
) -> tuple[Circuit, float]:
    """Rewrite a circuit over {H, CS}; returns (circuit, error_bound).

    th is true on the th route, false on kitaev.  Each gate takes one of
    three paths, in circuit order: H and CS, and CCX on th, pass through
    unchanged; another named gate is replaced by its exact word; and a
    GENERIC gate is approximated by its nearest net entry.  net may be None
    when needs_net(c) is false.  The accuracy budget eps is split uniformly
    over the GENERIC gates; error_bound is the sum of their achieved
    distances.  Every gate but H of a one-qubit circuit needs a partner
    qubit, so such a circuit is refused.

    On kitaev the distance is the phase-free dist, which bounds what
    `verify --mode exact` measures.  On th, entries are chosen and summed
    by ||W - U||_2 instead: realification maps e^{i phi} U to a different
    real matrix than U but keeps the operator norm, so only the
    phase-fixed sum bounds what `verify --mode realified` measures.

    The net is searched once per distinct target matrix in this call: one
    GENERIC matrix on qubit 0 and on qubit 2 approximates the same
    kron(U, I), each on its own pair.  The memo is keyed on the target's
    bytes and lives for one call; the budget is still checked for every
    gate.
    """
    if not eps > 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    generic = sum(g.kind is GateKind.GENERIC for g in c.gates)
    budget = eps / generic if generic else eps
    # H and CS are their own exact words; realification accepts CCX as it is.
    keep = (GateKind.H, GateKind.CS, GateKind.CCX) if th else (GateKind.H, GateKind.CS)
    out: list[Gate] = []
    total_err = 0.0
    searched: dict[bytes, tuple[tuple[str, ...], float]] = {}
    for g in c.gates:
        if g.kind in keep:
            out.append(g)
            continue
        if c.n_qubits < 2:
            raise ValidationError(
                f"rewriting {g.kind.value} needs a second qubit; "
                "the circuit has only one"
            )
        word = rebase_exact(g)
        if word is not None:
            out.extend(word)
            continue
        target, pair = _approx_target(g)
        key = target.tobytes()
        found = searched.get(key)
        if found is None:
            if net is None:
                raise ValidationError(f"approximating {g.kind.value} on {g.qubits} needs a net")
            k, achieved = sk_mod._nearest(net, target, th)
            found = searched[key] = (net.seqs[k], achieved)
        seq, achieved = found
        if achieved > budget:
            raise BudgetNotMet(
                f"best approximation of {g.kind.value} on {g.qubits} "
                f"reaches {achieved:.3e}, above the per-gate budget {budget:.3e}",
                best_seq=seq,
                achieved=achieved,
            )
        out.extend(_emit_kitaev(seq, pair, net))
        total_err += achieved
    return Circuit(c.n_qubits, out), total_err


def _emit_kitaev(seq, pair: tuple[int, int], net: "sk_mod.Net") -> list[Gate]:
    """Map net labels over the two-qubit domain onto concrete circuit qubits."""
    out = []
    for label in seq:
        g = net.gateset.gate(label)
        qubits = tuple(pair[q] for q in g.qubits)
        out.append(Gate(g.kind, qubits, matrix=g.matrix))
    return out
