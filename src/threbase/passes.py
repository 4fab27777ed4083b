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
Toffoli included, has an exact word, read from one table built at import.
H and CS are their own words and pass through, as does CCX on the th
route.  Only GENERIC gates, which have no word, are approximated, each by
a two-qubit net entry.  An exact word and a net entry alike are gates on
slot qubits, placed by one rule: slot i goes to the gate's operand i, and
a one-qubit gate's slot 1 to a fixed partner qubit, on which the word acts
as the identity.  Both passes return (circuit, error_bound).

An output is long but made of few distinct gates, so each pass builds
each distinct gate it emits once per call: rebase_circuit each distinct
(slot gate, operands) placement, realify_circuit each distinct input
gate's expansion, with one H on the flag.  Every repeat is the same
frozen Gate, still built by Gate with all its checks.  The memos live
for one call; nothing is kept between calls.
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


def realify_gate(g: Gate, ancilla: int, flag: Gate | None = None) -> list[Gate]:
    """Realified expansion of one gate from the {H, CS, CCX} alphabet.

    flag is the H on the ancilla, built here when not given.
    """
    if g.kind is GateKind.H or g.kind is GateKind.CCX:
        return [g]
    if g.kind is GateKind.CS:
        # Gate refuses an ancilla that is one of the operands.
        h = Gate(GateKind.H, (ancilla,)) if flag is None else flag
        ccx = Gate(GateKind.CCX, g.qubits + (ancilla,))
        return [h, ccx, h, ccx]
    raise ValidationError(
        f"realify_gate accepts only H, CS and CCX, got {g.kind.value}; "
        "rebase richer circuits first"
    )


def realify_circuit(c: Circuit) -> tuple[Circuit, float]:
    """Realify a {H, CS, CCX} circuit onto {H, CCX} with one shared flag qubit.

    Returns (circuit, error_bound) like rebase_circuit; the bound is 0.0,
    since every gate's expansion is exact.  Each distinct input gate is
    expanded once per call, and every CS shares one H on the flag.
    """
    ancilla = c.n_qubits
    if ancilla >= MAX_WIDTH:
        raise ValidationError(
            f"the flag qubit would take the circuit to {ancilla + 1} qubits, "
            f"over the ceiling of {MAX_WIDTH}"
        )
    flag = Gate(GateKind.H, (ancilla,))
    words: dict[Gate, list[Gate]] = {}
    out: list[Gate] = []
    for g in c.gates:
        word = words.get(g)
        if word is None:
            word = words[g] = realify_gate(g, ancilla, flag)
        out.extend(word)
    return Circuit(c.n_qubits + 1, out), 0.0


# Exact words over {H, CS}, in application order, each equal to its gate
# with no phase.  A word is a tuple of gates on slot qubits, the form a net
# entry's letters take too, and _place sends slot i to operand i of the gate
# it rewrites, so CNOT(a, b) becomes H(b) CS(a, b) CS(a, b) H(b).  A
# one-qubit gate takes a partner as slot 1 (see _operands).  CCX(a, b, t) is
# Barenco et al.'s controlled-V construction with V = H S H: H(t) CS(b, t)
# CNOT(a, b) CS(b, t)^3 CNOT(a, b) CS(a, t) H(t).
_H0, _H1, _CS01 = Gate(GateKind.H, (0,)), Gate(GateKind.H, (1,)), Gate(GateKind.CS, (0, 1))
_CNOT01 = (_H1, _CS01, _CS01, _H1)
_H2, _CS12 = Gate(GateKind.H, (2,)), Gate(GateKind.CS, (1, 2))
_EXACT_WORDS: dict[GateKind, tuple[Gate, ...]] = {
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
        (_H2, _CS12) + _CNOT01 + (_CS12,) * 3 + _CNOT01 + (Gate(GateKind.CS, (0, 2)), _H2)
    ),
}


def _operands(g: Gate) -> tuple[int, ...]:
    """The qubits g's word acts on: g's own, then a one-qubit gate's partner.

    The partner is qubit 0, or qubit 1 for a gate on 0; the word acts on it
    as the identity.
    """
    if len(g.qubits) > 1:
        return g.qubits
    (q,) = g.qubits
    return (q, 1 if q == 0 else 0)


def _place(word, ops: tuple[int, ...], placed: dict | None = None) -> list[Gate]:
    """word's gates with slot qubit i sent to ops[i].

    placed maps each (slot gate, ops) pair to its placed Gate, and each
    placed Gate to itself.  A pair missing from it is built once and added,
    and two pairs that place equal gates (H on slot 0 and on slot 1 can)
    share the first, so equal placed gates are one object.  A caller shares
    one dict across the words of a call.
    """
    if placed is None:
        placed = {}
    out = []
    for w in word:
        g = placed.get((w, ops))
        if g is None:
            g = Gate(w.kind, tuple(ops[i] for i in w.qubits), w.matrix)
            g = placed[w, ops] = placed.setdefault(g, g)
        out.append(g)
    return out


def rebase_exact(g: Gate, placed: dict | None = None) -> list[Gate] | None:
    """g's exact {H, CS} word, or None when it has none.

    The word acts on g's operands and, for a one-qubit gate, on its
    partner.  placed is _place's memo, which rebase_circuit shares across
    the gates of one call.
    """
    word = _EXACT_WORDS.get(g.kind)
    return None if word is None else _place(word, _operands(g), placed)


def needs_net(c: Circuit) -> bool:
    """Whether rebase_circuit searches the net: only GENERIC gates take it.

    A gate takes the net when it has no exact word, as in rebase_circuit.
    """
    return any(g.kind not in _EXACT_WORDS for g in c.gates)


def rebase_circuit(
    c: Circuit, net: "sk_mod.Net | None", eps: float, th: bool = False
) -> tuple[Circuit, float]:
    """Rewrite a circuit over {H, CS}; returns (circuit, error_bound).

    th is true on the th route, false on kitaev.  Each gate takes one of
    three paths, in circuit order: H and CS, and CCX on th, pass through
    unchanged; every other named gate is replaced by its exact word; and a
    gate with no word, a GENERIC gate, by its nearest net entry, one-qubit
    U as kron(U, I).  Both words are gates on slot qubits, placed by
    _place on the gate's operands and a one-qubit gate's partner, each
    distinct placement built once per call.  net may be None when
    needs_net(c) is false.  The accuracy budget eps is split uniformly
    over the gates that take the net; error_bound is the sum of their
    achieved distances.  Every gate but H of a one-qubit circuit needs a
    partner qubit, so such a circuit is refused.

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
    approximated = sum(g.kind not in _EXACT_WORDS for g in c.gates)
    budget = eps / approximated if approximated else eps
    # H and CS are their own exact words; realification accepts CCX as it is.
    keep = (GateKind.H, GateKind.CS, GateKind.CCX) if th else (GateKind.H, GateKind.CS)
    out: list[Gate] = []
    total_err = 0.0
    searched: dict[bytes, tuple[tuple[str, ...], float]] = {}
    placed: dict = {}
    for i, g in enumerate(c.gates):
        if g.kind in keep:
            out.append(g)
            continue
        if c.n_qubits < 2:
            raise ValidationError(
                f"rewriting {g.kind.value} needs a second qubit; "
                "the circuit has only one"
            )
        word = rebase_exact(g, placed)
        if word is not None:
            out.extend(word)
            continue
        if len(g.qubits) > 2:
            raise ValidationError(
                f"cannot rebase a {len(g.qubits)}-qubit gate; only gates on "
                "one or two qubits are supported"
            )
        target = g.matrix if len(g.qubits) == 2 else np.kron(g.matrix, np.eye(2))
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
                f"gates[{i}]: best approximation of {g.kind.value} on {g.qubits} "
                f"reaches {achieved:.3e}, above the per-gate budget {budget:.3e}",
                best_seq=seq,
                achieved=achieved,
            )
        out.extend(_place(map(net.gateset.gate, seq), _operands(g), placed))
        total_err += achieved
    return Circuit(c.n_qubits, out), total_err
