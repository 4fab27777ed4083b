import numpy as np
import pytest

from threbase import Circuit, Gate, GateKind, circuit_unitary, embed, gate_matrix
from threbase.errors import CapExceeded, ValidationError

H = Gate(GateKind.H, (0,))


def test_qubit_zero_is_most_significant():
    # X on qubit 1 of two flips the low bit: |00> -> |01>.
    u = embed(Gate(GateKind.X, (1,)), 2)
    assert np.array_equal(u[:, 0], np.eye(4)[1])
    u = embed(Gate(GateKind.X, (0,)), 2)
    assert np.array_equal(u[:, 0], np.eye(4)[2])


def test_embed_matches_kron_for_adjacent_operands():
    cs = gate_matrix(GateKind.CS)
    assert np.allclose(embed(Gate(GateKind.CS, (0, 1)), 3), np.kron(cs, np.eye(2)))
    assert np.allclose(embed(Gate(GateKind.CS, (1, 2)), 3), np.kron(np.eye(2), cs))


def test_embed_reversed_operands():
    # CS is symmetric in its operands; CNOT is not.
    assert np.allclose(
        embed(Gate(GateKind.CS, (1, 0)), 2), embed(Gate(GateKind.CS, (0, 1)), 2)
    )
    fwd = embed(Gate(GateKind.CNOT, (0, 1)), 2)
    rev = embed(Gate(GateKind.CNOT, (1, 0)), 2)
    assert np.array_equal(fwd[:, 2], np.eye(4)[3])
    assert np.array_equal(rev[:, 1], np.eye(4)[3])


def test_embed_scattered_operands_against_permutation():
    rng = np.random.default_rng(0)
    from threbase import haar_unitary

    m = haar_unitary(4, rng)
    g = Gate(GateKind.GENERIC, (2, 0), m)
    got = embed(g, 3)
    # Independent construction: build on (0, 1) then conjugate by the
    # permutation that maps logical (2, 0) onto adjacent slots.
    base = embed(Gate(GateKind.GENERIC, (0, 1), m), 3)
    perm = np.zeros((8, 8))
    for i in range(8):
        b2, b1, b0 = (i >> 2) & 1, (i >> 1) & 1, i & 1
        # logical qubits (2, 0, 1) -> positions (0, 1, 2)
        j = (b0 << 2) | (b2 << 1) | b1
        perm[j, i] = 1.0
    assert np.allclose(got, perm.T @ base @ perm, atol=1e-14)


def test_embed_preserves_unitarity():
    rng = np.random.default_rng(1)
    from threbase import haar_unitary, is_unitary

    for _ in range(10):
        qs = tuple(int(q) for q in rng.choice(4, size=3, replace=False))
        g = Gate(GateKind.GENERIC, qs, haar_unitary(8, rng))
        assert is_unitary(embed(g, 4))


def test_circuit_unitary_multiplies_on_the_left():
    c = Circuit(1, [H, Gate(GateKind.S, (0,))])
    want = gate_matrix(GateKind.S) @ gate_matrix(GateKind.H)
    assert np.allclose(circuit_unitary(c), want, atol=1e-15)


def test_empty_circuit_is_identity():
    assert np.array_equal(circuit_unitary(Circuit(3)), np.eye(8))


def test_circuit_validates_qubit_range():
    with pytest.raises(ValidationError):
        Circuit(1, [Gate(GateKind.CS, (0, 1))])
    with pytest.raises(ValidationError):
        Circuit(0)


def test_circuit_names_the_first_bad_gate():
    good = [Gate(GateKind.H, (0,)), Gate(GateKind.CS, (1, 2))] * 6
    not_gate = good[:5] + ["H"] + good[5:]
    with pytest.raises(ValidationError, match=r"^gates\[5\] is not a Gate$"):
        Circuit(3, not_gate)
    out_of_range = good[:7] + [Gate(GateKind.CS, (0, 3))] + good[7:]
    want = r"^gates\[7\] \(CS\) touches qubit 3 but the circuit has 3 qubits$"
    with pytest.raises(ValidationError, match=want):
        Circuit(3, out_of_range)
    # Whichever fault comes first is the one named.
    with pytest.raises(ValidationError, match=want):
        Circuit(3, out_of_range + [None])
    with pytest.raises(ValidationError, match=r"^gates\[5\] is not a Gate$"):
        Circuit(3, not_gate[:7] + [Gate(GateKind.CS, (0, 3))])


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        circuit_unitary(Circuit(3, [H]), max_qubits=2)
    with pytest.raises(CapExceeded):
        embed(H, 13)


def test_gates_are_immutable_tuple():
    c = Circuit(2, [H])
    assert isinstance(c.gates, tuple)
    assert len(c) == 1


def dense_product(c):
    """The circuit unitary as a product of embedded matrices."""
    u = np.eye(2**c.n_qubits, dtype=complex)
    for g in c.gates:
        u = embed(g, c.n_qubits) @ u
    return u


def test_row_gather_matches_dense_product(corpus):
    from threbase import haar_unitary

    rng = np.random.default_rng(2)
    generic = []
    for _ in range(40):
        k = int(rng.integers(1, 4))
        qs = tuple(int(q) for q in rng.choice(5, size=k, replace=False))
        generic.append(Gate(GateKind.GENERIC, qs, haar_unitary(2**k, rng)))
    for c in corpus[:30] + [Circuit(5, generic)]:
        assert np.max(np.abs(circuit_unitary(c) - dense_product(c))) <= 1e-14


def unblocked_product(c):
    """The row-gather product applied to the whole unitary at once."""
    from threbase.circuit import _operand_rows

    dim = 2**c.n_qubits
    u = np.eye(dim, dtype=complex)
    for g in c.gates:
        rows = _operand_rows(g.qubits, c.n_qubits)
        gathered = u[rows].reshape(len(rows), -1)
        u[rows] = (gate_matrix(g) @ gathered).reshape(rows.shape + (dim,))
    return u


def test_column_blocks_match_unblocked_product(corpus, monkeypatch):
    from threbase import circuit, haar_unitary

    rng = np.random.default_rng(3)
    generic = []
    for _ in range(40):
        k = int(rng.integers(1, 4))
        qs = tuple(int(q) for q in rng.choice(5, size=k, replace=False))
        generic.append(Gate(GateKind.GENERIC, qs, haar_unitary(2**k, rng)))
    for c in corpus[:30] + [Circuit(5, generic)]:
        want = unblocked_product(c).tobytes()
        assert circuit_unitary(c).tobytes() == want
        # Blocks four columns wide; at full size they are at least 16 wide.
        monkeypatch.setattr(circuit, "BLOCK_AMPLITUDES", 4 * 2**c.n_qubits)
        assert circuit_unitary(c).tobytes() == want
        monkeypatch.undo()


def runs_circuit(rng, n, operands, runs):
    """Runs of 1 to 5 gates on one operand tuple, a new tuple for each run."""
    from threbase import haar_unitary

    named = {1: (GateKind.H, GateKind.S), 2: (GateKind.CNOT,), 3: (GateKind.CCX,)}
    gates, last = [], None
    for _ in range(runs):
        qs = last
        while qs == last:
            qs = operands[int(rng.integers(len(operands)))]
        last = qs
        for _ in range(int(rng.integers(1, 6))):
            kinds = named[len(qs)] if rng.random() < 0.5 else (GateKind.GENERIC,)
            kind = kinds[int(rng.integers(len(kinds)))]
            m = haar_unitary(2 ** len(qs), rng) if kind is GateKind.GENERIC else None
            gates.append(Gate(kind, qs, m))
    return Circuit(n, gates)


# How far a long run's product tree may be from the per-gate loop, entry by
# entry; runs shorter than LONG_RUN give the loop's bytes.
TREE_ATOL = 1e-13


def longest_run(c):
    from threbase.circuit import _support_runs

    return max((sum(len(group) for _, group in groups) for _, _, groups in _support_runs(c.gates)),
               default=0)


def assert_tree_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TREE_ATOL


def test_runs_match_per_gate_product_bitwise(monkeypatch):
    from threbase import circuit, demo_1q_gate_set

    rng = np.random.default_rng(5)
    ht = demo_1q_gate_set()
    word = Circuit(1, [ht.gate(lab) for lab in rng.choice(ht.labels, 1200)])
    # A 1,200-gate word is one long run, multiplied as a product tree.
    assert longest_run(word) >= circuit.LONG_RUN
    assert_tree_close(circuit_unitary(word), unblocked_product(word))
    # (0, 1) and (1, 0) share a frozenset but not a row table; so do the
    # two 3-qubit orders.  Adjacent runs may share a kind.
    mixed = runs_circuit(rng, 3, [(0, 1), (1, 0), (2,), (0, 1, 2), (2, 0, 1)], 40)
    assert longest_run(mixed) < circuit.LONG_RUN
    assert circuit_unitary(mixed).tobytes() == unblocked_product(mixed).tobytes()
    wide = runs_circuit(rng, 9, [(0,), (8,), (3, 5), (5, 3), (7, 1, 4), (2, 6)], 16)
    assert longest_run(wide) < circuit.LONG_RUN
    want = unblocked_product(wide).tobytes()
    # Four columns per block: every run is applied to 128 blocks.
    monkeypatch.setattr(circuit, "BLOCK_AMPLITUDES", 4 * 2**9)
    assert circuit_unitary(wide).tobytes() == want


def pair_runs_circuit(rng, n, runs):
    """Runs on one pair each: one-qubit gates on either qubit of the pair
    and two-qubit gates in one operand order per run, the order drawn."""
    from threbase import haar_unitary

    one = (GateKind.H, GateKind.X, GateKind.Z, GateKind.S, GateKind.SDG, GateKind.GENERIC)
    two = (GateKind.CS, GateKind.CZ, GateKind.CNOT, GateKind.GENERIC)
    gates = []
    for _ in range(runs):
        pair = tuple(int(q) for q in rng.choice(n, 2, replace=False))
        for _ in range(int(rng.integers(2, 9))):
            qs = (pair[int(rng.integers(2))],) if rng.random() < 0.6 else pair
            kinds = one if len(qs) == 1 else two
            kind = kinds[int(rng.integers(len(kinds)))]
            m = haar_unitary(2 ** len(qs), rng) if kind is GateKind.GENERIC else None
            gates.append(Gate(kind, qs, m))
    return Circuit(n, gates)


def test_support_runs_merge_within_two_qubits_and_one_order():
    from threbase.circuit import _support_runs

    def g(kind, *qs):
        return Gate(kind, qs)

    gates = [
        g(GateKind.H, 0), g(GateKind.H, 1), g(GateKind.CS, 1, 0), g(GateKind.X, 0),
        g(GateKind.CNOT, 0, 1),  # the other order starts a run
        g(GateKind.S, 1), g(GateKind.H, 2),  # a third qubit starts a run
        g(GateKind.H, 1), g(GateKind.CCX, 0, 1, 2), g(GateKind.H, 0),
    ]
    frames = [(frame, sum(len(group) for _, group in groups))
              for frame, _, groups in _support_runs(gates)]
    assert frames == [((1, 0), 4), ((0, 1), 2), ((2, 1), 2), ((0, 1, 2), 1), ((0,), 1)]


def test_one_qubit_gates_in_two_qubit_runs_match_per_gate_product_bitwise(monkeypatch):
    from threbase import circuit
    from threbase.circuit import _support_runs

    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 6):
        c = pair_runs_circuit(rng, n, 12)
        runs = _support_runs(c.gates)
        assert any(len(groups) > 1 for _, _, groups in runs)
        want = unblocked_product(c)
        # The 2- and 3-qubit circuits hold a run of 24 and 18 gates, which
        # is multiplied as a product tree; the others are bitwise the loop.
        long = longest_run(c) >= circuit.LONG_RUN
        assert long == (n <= 3)
        if long:
            assert_tree_close(circuit_unitary(c), want)
        else:
            assert circuit_unitary(c).tobytes() == want.tobytes()
        if n == 2:
            continue
        # Four columns per block.  Narrower blocks take other matmul
        # kernels, whose rounding differs from the whole-matrix product
        # even for runs on one operand tuple.
        monkeypatch.setattr(circuit, "BLOCK_AMPLITUDES", 4 * 2**n)
        if long:
            assert_tree_close(circuit_unitary(c), want)
        else:
            assert circuit_unitary(c).tobytes() == want.tobytes()
        monkeypatch.undo()


def frame_run(rng, frame, length):
    """`length` gates that _support_runs keeps in one run on `frame`.

    On one qubit: H, S and two GENERIC gates repeated as shared objects,
    as an interned Solovay-Kitaev word is, plus a fresh GENERIC gate now
    and then.  On an ordered pair: one-qubit gates on either qubit and
    two-qubit gates in that order.
    """
    from threbase import haar_unitary

    shared = [Gate(GateKind.GENERIC, (q,), haar_unitary(2, rng)) for q in frame]
    if len(frame) == 2:
        shared.append(Gate(GateKind.GENERIC, frame, haar_unitary(4, rng)))
        shared += [Gate(GateKind.CS, frame), Gate(GateKind.CNOT, frame)]
    shared += [Gate(kind, (q,)) for kind in (GateKind.H, GateKind.S) for q in frame]
    gates = []
    for _ in range(length):
        if rng.random() < 0.05:
            qs = frame if len(frame) == 1 or rng.random() < 0.5 else frame[:1]
            gates.append(Gate(GateKind.GENERIC, qs, haar_unitary(2 ** len(qs), rng)))
        else:
            gates.append(shared[int(rng.integers(len(shared)))])
    return gates


@pytest.mark.parametrize("frame", [(1,), (2, 0)], ids=["one", "pair"])
def test_long_runs_are_a_product_tree_within_tolerance(frame, monkeypatch):
    from threbase import circuit
    from threbase.circuit import LONG_RUN, _support_runs

    calls = []
    tree = circuit._run_product
    monkeypatch.setattr(circuit, "_run_product", lambda mats: calls.append(len(mats)) or tree(mats))
    rng = np.random.default_rng(11)
    # CCX starts and ends a run of its own, so the middle run has `length` gates.
    ccx = Gate(GateKind.CCX, (0, 1, 2))
    for length in (LONG_RUN - 1, LONG_RUN, LONG_RUN + 1, 2 * LONG_RUN + 1, 64, 5000):
        c = Circuit(3, [ccx] + frame_run(rng, frame, length) + [ccx])
        assert [sum(len(g) for _, g in groups) for _, _, groups in _support_runs(c.gates)] == [
            1, length, 1]
        calls.clear()
        got, want = circuit_unitary(c), unblocked_product(c)
        if length < LONG_RUN:
            assert calls == []
            assert got.tobytes() == want.tobytes()
        else:
            assert calls == [length]
            assert_tree_close(got, want)
        assert circuit_unitary(c).tobytes() == got.tobytes()


def test_long_runs_in_column_blocks_match_the_default_blocking(monkeypatch):
    from threbase import circuit

    rng = np.random.default_rng(12)
    ccx = Gate(GateKind.CCX, (4, 2, 6))
    gates = [*runs_circuit(rng, 9, [(0,), (3, 5), (7, 1, 4)], 6).gates, ccx]
    gates += frame_run(rng, (4,), 300) + [ccx] + frame_run(rng, (8, 2), 40) + [ccx]
    gates += runs_circuit(rng, 9, [(5,), (0, 8)], 4).gates
    c = Circuit(9, gates)
    assert longest_run(c) == 300
    default = circuit_unitary(c)
    assert_tree_close(default, unblocked_product(c))
    # Four columns per block: each run is applied to 128 blocks, the long
    # runs' products formed once.
    monkeypatch.setattr(circuit, "BLOCK_AMPLITUDES", 4 * 2**9)
    assert_tree_close(circuit_unitary(c), default)


def test_circuit_unitary_peak_memory_is_bounded():
    import tracemalloc

    from threbase import haar_unitary

    n = 10
    rng = np.random.default_rng(4)
    gates = [Gate(GateKind.H, (q,)) for q in range(n)]
    gates += [Gate(GateKind.CCX, tuple(int(q) for q in rng.choice(n, 3, replace=False)))
              for _ in range(4)]
    # Runs of three gates on one pair: a run holds no block beyond the two
    # a single gate does.
    runs = []
    for _ in range(4):
        qs = tuple(int(q) for q in rng.choice(n, 2, replace=False))
        runs += [Gate(GateKind.GENERIC, qs, haar_unitary(4, rng)) for _ in range(3)]
    # And one run of 2,000 gates, whose product tree is formed before the
    # blocks.
    long = frame_run(rng, (3, 7), 2000)
    size = 16 * 4**n
    for c in (Circuit(n, gates), Circuit(n, runs), Circuit(n, long)):
        tracemalloc.start()
        try:
            u = circuit_unitary(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert u.nbytes == size
        # The result plus two column blocks; whole-matrix temporaries would
        # take it to three times the unitary.
        assert peak < 1.5 * size


def test_circuit_owns_its_width():
    from threbase.circuit import MAX_WIDTH

    for n in (2.5, True, 0, -3, "3", None):
        with pytest.raises(ValidationError, match=r"^qubits must be a positive integer, got "):
            Circuit(n, [])
    # Past the ceiling the count is not echoed, however many digits it has.
    for n in (MAX_WIDTH + 1, -(MAX_WIDTH + 1), 10**4000):
        with pytest.raises(ValidationError) as e:
            Circuit(n, [])
        assert str(e.value) == f"qubits must be a positive integer of at most {MAX_WIDTH}"
    assert Circuit(MAX_WIDTH, [H]).n_qubits == MAX_WIDTH
    c = Circuit(np.int64(3), [Gate(GateKind.CS, (np.int64(2), 0))])
    assert type(c.n_qubits) is int and c.n_qubits == 3
