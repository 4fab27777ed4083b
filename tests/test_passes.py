from itertools import permutations

import numpy as np
import pytest

from threbase import (
    BudgetNotMet,
    Circuit,
    Gate,
    GateKind,
    build_net,
    circuit_unitary,
    dist,
    gate_matrix,
    haar_unitary,
    kitaev_gate_set,
    nearest,
    realify_circuit,
    realify_gate,
    realify_matrix,
    rebase_circuit,
    rebase_exact,
)
from threbase import sk
from threbase.errors import ValidationError
from threbase.gates import ARITY
from threbase.passes import needs_net

CS_GATE = Gate(GateKind.CS, (0, 1))


def realify_by_columns(u):
    """Independent oracle built state by state from the defining map:
    |i>|0> -> (Re u|i>)|0> + (Im u|i>)|1> and |i>|1> -> the same with u
    applied to i*(-i...) — equivalently columns interleaved as
    [Re, -Im; Im, Re] blocks on the flag qubit."""
    n = u.shape[0]
    out = np.zeros((2 * n, 2 * n))
    for i in range(n):
        out[0::2, 2 * i] = u[:, i].real
        out[1::2, 2 * i] = u[:, i].imag
        out[0::2, 2 * i + 1] = -u[:, i].imag
        out[1::2, 2 * i + 1] = u[:, i].real
    return out


def test_realify_matrix_matches_column_oracle():
    rng = np.random.default_rng(0)
    for dim in (2, 4, 8):
        u = haar_unitary(dim, rng)
        got = realify_matrix(u)
        assert np.max(np.abs(got.imag)) == 0.0
        assert np.allclose(got.real, realify_by_columns(u), atol=1e-15)


def test_realify_matrix_is_multiplicative_and_orthogonal():
    rng = np.random.default_rng(1)
    a, b = haar_unitary(4, rng), haar_unitary(4, rng)
    ra, rb = realify_matrix(a), realify_matrix(b)
    assert np.allclose(realify_matrix(a @ b), ra @ rb, atol=1e-13)
    assert np.allclose(ra.T @ ra, np.eye(8), atol=1e-13)


def test_realify_matrix_fixes_real_inputs():
    h = gate_matrix(GateKind.H)
    assert np.allclose(realify_matrix(h), np.kron(h, np.eye(2)), atol=1e-15)


def test_realify_matrix_rejects_non_unitary():
    with pytest.raises(ValidationError):
        realify_matrix(np.array([[1, 1], [0, 1]], dtype=complex))


def test_realified_controlled_phase_is_doubly_controlled_flip():
    got = realify_matrix(gate_matrix(GateKind.CS))
    want = np.eye(8)
    want[:, 6] = 0.0
    want[:, 7] = 0.0
    want[7, 6] = 1.0
    want[6, 7] = -1.0
    assert np.allclose(got, want, atol=1e-15)


def test_realify_gate_expansions():
    h = Gate(GateKind.H, (1,))
    assert realify_gate(h, 3) == [h]
    expanded = realify_gate(CS_GATE, 2)
    hh = Gate(GateKind.H, (2,))
    ccx = Gate(GateKind.CCX, (0, 1, 2))
    assert expanded == [hh, ccx, hh, ccx]
    with pytest.raises(ValidationError):
        realify_gate(Gate(GateKind.X, (0,)), 1)
    with pytest.raises(ValidationError):
        realify_gate(CS_GATE, 1)


def test_realify_circuit_equals_realified_unitary(corpus):
    for c in corpus[:20]:
        rc, error_bound = realify_circuit(c)
        assert rc.n_qubits == c.n_qubits + 1
        assert len(rc) <= 4 * len(c)
        assert error_bound == 0.0
        got = circuit_unitary(rc)
        want = realify_matrix(circuit_unitary(c))
        assert np.max(np.abs(got - want)) < 1e-12


def test_rebase_exact_table():
    cases = [
        (Gate(GateKind.CZ, (0, 1)), 2),
        (Gate(GateKind.CZ, (1, 0)), 2),
        (Gate(GateKind.CSDG, (0, 1)), 3),
        (Gate(GateKind.CNOT, (0, 1)), 4),
        (Gate(GateKind.CNOT, (1, 0)), 4),
    ]
    for g, n_out in cases:
        seq = rebase_exact(g)
        assert len(seq) == n_out
        assert {x.kind for x in seq} <= {GateKind.H, GateKind.CS}
        got = circuit_unitary(Circuit(2, seq))
        assert dist(got, circuit_unitary(Circuit(2, [g]))) < 1e-12


def test_rebase_exact_passthrough_and_misses():
    assert rebase_exact(Gate(GateKind.H, (0,))) == [Gate(GateKind.H, (0,))]
    assert rebase_exact(CS_GATE) == [CS_GATE]
    # Every named kind has a word; only a GENERIC gate misses the table.
    for kind, arity in ARITY.items():
        assert rebase_exact(Gate(kind, tuple(range(arity)))) is not None
    assert rebase_exact(Gate(GateKind.GENERIC, (0,), np.diag([1, 1j]))) is None
    # A one-qubit word also acts on the partner: qubit 0, or 1 for qubit 0.
    for q, partner in ((0, 1), (1, 0), (3, 0)):
        word = rebase_exact(Gate(GateKind.X, (q,)))
        assert {p for g in word for p in g.qubits} == {q, partner}


def test_s_has_an_exact_kitaev_word():
    # The S row of the word table, checked against S (x) I by hand.
    h1 = Gate(GateKind.H, (1,))
    word = [h1, CS_GATE, h1, CS_GATE, CS_GATE, h1, CS_GATE, h1, CS_GATE, CS_GATE]
    assert rebase_exact(Gate(GateKind.S, (0,))) == word
    w = circuit_unitary(Circuit(2, word))
    s_on_0 = np.kron(gate_matrix(GateKind.S), np.eye(2))
    assert np.linalg.norm(w - s_on_0, 2) <= 1e-12


def on_qubits(kind, qubits, n):
    """kind on `qubits` of n, built bit by bit from gate_matrix alone."""
    m = gate_matrix(kind)
    k = len(qubits)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        local = sum(bits[q] << (k - 1 - i) for i, q in enumerate(qubits))
        for row_local in range(2**k):
            out_bits = list(bits)
            for i, q in enumerate(qubits):
                out_bits[q] = (row_local >> (k - 1 - i)) & 1
            row = sum(b << (n - 1 - q) for q, b in enumerate(out_bits))
            out[row, col] = m[row_local, local]
    return out


@pytest.mark.parametrize("kind, letters, cs", [
    (GateKind.X, 14, 8), (GateKind.Z, 12, 8), (GateKind.S, 10, 6),
    (GateKind.SDG, 14, 10), (GateKind.CCX, 15, 9),
])
def test_new_exact_words_equal_their_gates(kind, letters, cs):
    # No phase is fixed: each word equals its gate entry by entry, on both
    # qubit orders of a one-qubit gate's pair and all six orders of CCX.
    if kind is GateKind.CCX:
        cases = [(qs, qs, 3) for qs in permutations(range(3))]
    else:
        cases = [((0,), (0, 1), 2), ((1,), (1, 0), 2)]
    for qubits, support, n in cases:
        word = rebase_exact(Gate(kind, qubits))
        assert len(word) == letters
        assert sum(g.kind is GateKind.CS for g in word) == cs
        assert {g.kind for g in word} <= {GateKind.H, GateKind.CS}
        assert {q for g in word for q in g.qubits} == set(support)
        got = circuit_unitary(Circuit(n, word))
        assert np.max(np.abs(got - on_qubits(kind, qubits, n))) <= 1e-12


def test_rebase_circuit_needs_no_net_for_named_gates():
    # Every named kind, the Toffoli included, rewrites exactly with no net.
    gates = [Gate(k, (2, 0, 1)[:a]) for k, a in ARITY.items()]
    c = Circuit(3, gates)
    assert not needs_net(c)
    out, error_bound = rebase_circuit(c, None, eps=1e-12)
    assert error_bound == 0.0
    assert {g.kind for g in out.gates} <= {GateKind.H, GateKind.CS}
    assert dist(circuit_unitary(out), circuit_unitary(c)) < 1e-12
    # th keeps CCX as it is.
    kept, _ = rebase_circuit(c, None, eps=1e-12, th=True)
    assert kept.gates.count(Gate(GateKind.CCX, (2, 0, 1))) == 1


@pytest.mark.parametrize("th", [False, True], ids=["kitaev", "th"])
def test_rebase_circuit_keeps_h_and_cs_objects(th):
    # H and CS are their own exact words, so both routes emit the input's
    # own Gate objects rather than building equal ones.
    c = Circuit(3, [
        Gate(GateKind.H, (0,)),
        Gate(GateKind.CS, (2, 1)),
        Gate(GateKind.X, (1,)),
        Gate(GateKind.CCX, (0, 1, 2)),
        Gate(GateKind.CS, (0, 2)),
        Gate(GateKind.H, (2,)),
    ])
    out, _ = rebase_circuit(c, None, eps=1e-12, th=th)
    # The words of X (and of CCX on kitaev) lie between the kept gates.
    ends = out.gates[:2] + out.gates[-2:]
    assert all(got is g for got, g in zip(ends, c.gates[:2] + c.gates[-2:]))
    assert any(got is c.gates[3] for got in out.gates) == th


def test_pauli_x_is_no_net_product():
    # No product of at most six generators is X (x) I up to phase; the
    # nearest one keeps a gap of 2 sin(pi/8).
    net6 = build_net(kitaev_gate_set(), 6)
    x_on_0 = np.kron(gate_matrix(GateKind.X), np.eye(2))
    entry = nearest(net6, x_on_0)
    assert entry.seq == ("H0",)
    assert dist(entry.matrix, x_on_0) == pytest.approx(0.7653668647301796, abs=1e-12)


def test_rebase_circuit_exact_only(kitaev8):
    c = Circuit(3, [Gate(GateKind.CZ, (0, 2)), Gate(GateKind.CNOT, (1, 0))])
    out, error_bound = rebase_circuit(c, kitaev8, eps=1e-6)
    assert error_bound == 0.0
    assert {g.kind for g in out.gates} <= {GateKind.H, GateKind.CS}
    assert dist(circuit_unitary(out), circuit_unitary(c)) < 1e-12


def test_rebase_circuit_approximates_within_budget(kitaev8):
    u = haar_unitary(2, np.random.default_rng(2))
    c = Circuit(2, [Gate(GateKind.GENERIC, (1,), u), Gate(GateKind.CZ, (0, 1))])
    eps = 1.0
    out, error_bound = rebase_circuit(c, kitaev8, eps=eps)
    assert {g.kind for g in out.gates} <= {GateKind.H, GateKind.CS}
    assert error_bound <= eps
    # Triangle inequality: whole-circuit distance is at most the bound.
    assert dist(circuit_unitary(out), circuit_unitary(c)) <= error_bound + 1e-9


def test_rebase_circuit_budget_failure_carries_best(kitaev8):
    c = Circuit(2, [Gate(GateKind.GENERIC, (0,), haar_unitary(2, np.random.default_rng(4)))])
    with pytest.raises(
        BudgetNotMet, match=r"^gates\[0\]: best approximation of GENERIC on \(0,\) reaches "
    ) as e:
        rebase_circuit(c, kitaev8, eps=1e-9)
    assert e.value.best_seq is not None
    assert e.value.achieved > 1e-9


def test_rebase_circuit_rejects_bad_eps(kitaev8):
    c = Circuit(2, [Gate(GateKind.X, (0,))])
    for eps in (0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError, match="eps must be positive"):
            rebase_circuit(c, kitaev8, eps=eps)


def test_rebase_rejects_three_qubit_gates(kitaev8):
    # CCX has an exact word; a three-qubit GENERIC gate has no route.
    u = haar_unitary(8, np.random.default_rng(2))
    c = Circuit(3, [Gate(GateKind.GENERIC, (0, 1, 2), u)])
    with pytest.raises(ValidationError, match="3-qubit gate"):
        rebase_circuit(c, kitaev8, eps=0.5)


def test_rebase_rejects_single_qubit_circuit(kitaev8):
    # Every gate but H needs a partner qubit, on both routes.
    u = haar_unitary(2, np.random.default_rng(2))
    for g in (Gate(GateKind.S, (0,)), Gate(GateKind.X, (0,)), Gate(GateKind.GENERIC, (0,), u)):
        with pytest.raises(ValidationError, match="needs a second qubit"):
            rebase_circuit(Circuit(1, [g]), kitaev8, eps=0.5)
    out, _ = rebase_circuit(Circuit(1, [Gate(GateKind.H, (0,))]), None, eps=0.5)
    assert out.gates == (Gate(GateKind.H, (0,)),)


def test_rebase_without_a_net_names_the_gate_that_needs_one():
    u = haar_unitary(2, np.random.default_rng(2))
    c = Circuit(2, [Gate(GateKind.X, (1,)), Gate(GateKind.GENERIC, (0,), u)])
    with pytest.raises(ValidationError, match=r"^approximating GENERIC on \(0,\) needs a net$"):
        rebase_circuit(c, None, eps=0.5)


def test_rebase_single_qubit_gate_on_wide_circuit(kitaev8):
    # A 1-qubit approximation target is padded with a deterministic partner.
    u = haar_unitary(2, np.random.default_rng(2))
    c = Circuit(3, [Gate(GateKind.GENERIC, (2,), u)])
    out, error_bound = rebase_circuit(c, kitaev8, eps=1.0)
    touched = {q for g in out.gates for q in g.qubits}
    assert touched <= {2, 0}
    assert dist(circuit_unitary(out), circuit_unitary(c)) <= error_bound + 1e-9


def test_rebase_circuit_searches_each_distinct_target_once(kitaev8, monkeypatch):
    rng = np.random.default_rng(11)
    g = haar_unitary(4, rng)
    x, s = haar_unitary(2, rng), haar_unitary(2, rng)

    def one(m, q):
        return Gate(GateKind.GENERIC, (q,), m)

    gates = [
        one(x, 0),
        Gate(GateKind.GENERIC, (0, 2), g),
        one(s, 2),
        one(x, 1),
        Gate(GateKind.CZ, (1, 2)),
        one(s, 0),
        Gate(GateKind.GENERIC, (2, 1), g),
        one(x, 2),
        Gate(GateKind.GENERIC, (0, 2), g),
    ]
    c = Circuit(3, gates)
    eps = 100.0
    searches = []
    nearest = sk._nearest

    def counted(net, u, *metric):
        searches.append(u)
        return nearest(net, u, *metric)

    monkeypatch.setattr(sk, "_nearest", counted)

    # Reference: each gate rebased on its own, so each approximated gate is
    # one search.  A 100 budget over 8 gates binds nowhere.
    want_gates, want_bound = [], 0.0
    for gate in gates:
        out, error_bound = rebase_circuit(Circuit(3, [gate]), kitaev8, eps)
        want_gates.extend(out.gates)
        want_bound += error_bound
    assert len(searches) == 8

    for call in (1, 2):
        searches.clear()
        out, error_bound = rebase_circuit(c, kitaev8, eps)
        # kron(x, I), kron(s, I) and g: three distinct targets, every call.
        assert len(searches) == 3
        assert out.gates == tuple(want_gates)
        assert error_bound == want_bound
