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
    # The corpus circuits lifted to 5 qubits, where runs are gathered and
    # scattered in blocks of columns.
    for c in [Circuit(5, c.gates) for c in corpus[:30]] + [Circuit(5, generic)]:
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
    """Gates in the longest run; at most DENSE_WIDTH qubits, the circuit is
    one product on the register."""
    from threbase.circuit import DENSE_WIDTH, _support_runs

    if c.n_qubits <= DENSE_WIDTH:
        return len(c)
    return max((sum(len(group) for _, group in groups)
                for _, _, groups in _support_runs(c.gates)), default=0)


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
    # two 3-qubit orders.  Adjacent runs may share a kind.  Five qubits, so
    # that each operand tuple is a run of its own.
    mixed = runs_circuit(rng, 5, [(0, 1), (1, 0), (2,), (0, 1, 2), (2, 0, 1)], 40)
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
    # Five qubits and more, where runs are gathered on their frames; every
    # run is shorter than LONG_RUN, so each product is bitwise the loop's.
    for n in (5, 6, 7, 8):
        c = pair_runs_circuit(rng, n, 12)
        assert any(len(groups) > 1 for _, _, groups in _support_runs(c.gates))
        assert longest_run(c) < circuit.LONG_RUN
        want = unblocked_product(c).tobytes()
        assert circuit_unitary(c).tobytes() == want
        # Four columns per block.
        monkeypatch.setattr(circuit, "BLOCK_AMPLITUDES", 4 * 2**n)
        assert circuit_unitary(c).tobytes() == want
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
    # CCX starts and ends a run of its own, so the middle run has `length`
    # gates: on five qubits, where runs are gathered on their frames.
    ccx = Gate(GateKind.CCX, (0, 1, 2))
    for length in (LONG_RUN - 1, LONG_RUN, LONG_RUN + 1, 2 * LONG_RUN + 1, 64, 5000):
        c = Circuit(5, [ccx] + frame_run(rng, frame, length) + [ccx])
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


def register_product(c):
    """A narrow circuit's register matrices multiplied in turn onto the
    identity: each gate's matrix when its operands are the register in
    order, else its embedding, and from LONG_RUN gates on their product
    tree."""
    from threbase.circuit import LONG_RUN, _run_product

    register = tuple(range(c.n_qubits))
    mats = [gate_matrix(g) if g.qubits == register else embed(g, c.n_qubits) for g in c.gates]
    if len(mats) >= LONG_RUN:
        mats = [_run_product(mats)]
    u = np.eye(2**c.n_qubits, dtype=complex)
    for m in mats:
        u = m @ u
    return u


def test_dense_width_is_the_boundary_of_one_run_on_the_register(monkeypatch):
    from threbase import circuit, haar_unitary
    from threbase.circuit import DENSE_WIDTH, LONG_RUN, _support_runs
    from threbase.gates import ARITY

    assert DENSE_WIDTH == 4
    rng = np.random.default_rng(13)
    # At 4 qubits GENERIC gates in both operand orders of each pair, and on
    # one qubit, are one plain product on the register: their embeddings
    # multiplied in turn onto the identity below LONG_RUN gates, and their
    # product tree from it.
    gates = []
    for _ in range(10):
        qs = tuple(int(q) for q in rng.choice(4, size=2, replace=False))
        m = haar_unitary(4, rng)
        gates += [Gate(GateKind.GENERIC, qs, m), Gate(GateKind.GENERIC, qs[::-1], m),
                  Gate(GateKind.GENERIC, qs[:1], haar_unitary(2, rng))]
    for c in (Circuit(4, gates[:LONG_RUN - 1]), Circuit(4, gates)):
        got = circuit_unitary(c)
        assert got.tobytes() == register_product(c).tobytes()
        assert np.max(np.abs(got - unblocked_product(c))) <= 1e-14
    # At 5 qubits, named gates in runs shorter than LONG_RUN give the loop's
    # bytes.
    kinds = [k for k in ARITY if k is not GateKind.GENERIC] * 3
    wide = Circuit(5, [Gate(kinds[i], tuple(int(q) for q in rng.choice(5, ARITY[kinds[i]], False)))
                       for i in rng.permutation(len(kinds))])
    assert len(_support_runs(wide.gates)) > 1
    assert longest_run(wide) < LONG_RUN
    assert circuit_unitary(wide).tobytes() == unblocked_product(wide).tobytes()
    # GENERIC gates never enter the embedding table, at any width up to 5:
    # embedded in the register at 2-4 qubits or in a frame at 5.
    table = {}
    monkeypatch.setattr(circuit, "_EMBEDDED", table)
    for n in range(1, 6):
        circuit_unitary(Circuit(n, frame_run(rng, (0,) if n == 1 else (n - 1, 0), 40)))
    assert {width for _, _, width in table} == {2, 3, 4}
    assert all(kind is not GateKind.GENERIC for kind, _, _ in table)


def test_narrow_unitaries_build_no_row_table_and_split_no_runs(monkeypatch):
    from threbase import circuit, haar_unitary
    from threbase.circuit import DENSE_WIDTH, LONG_RUN
    from threbase.gates import ARITY

    rows, runs, placed = circuit._operand_rows, circuit._support_runs, circuit._placed
    placing, calls = [], []

    def refuse(*args):
        raise AssertionError(f"scaffolding built: {args}")

    def placed_marked(*args):
        placing.append(args)
        try:
            return placed(*args)
        finally:
            placing.pop()

    def operand_rows(*args):
        # A gate's embedding places its entries through the row table of its
        # positions; any other table is the gathers' scaffolding.
        return rows(*args) if placing else refuse(*args)

    rng = np.random.default_rng(17)
    monkeypatch.setattr(circuit, "_placed", placed_marked)
    monkeypatch.setattr(circuit, "_operand_rows", operand_rows)
    monkeypatch.setattr(circuit, "_support_runs", refuse)
    for n in range(1, DENSE_WIDTH + 1):
        # Named gates and GENERIC gates, each GENERIC gate on two or more
        # qubits followed by the same matrix on its operands reversed.
        named = [k for k in ARITY if k is not GateKind.GENERIC and ARITY[k] <= n]
        gates = []
        while len(gates) < 2 * LONG_RUN:
            qs = tuple(int(q) for q in rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)),
                                                  replace=False))
            kinds = [k for k in named if ARITY[k] == len(qs)]
            if kinds and rng.random() < 0.5:
                gates.append(Gate(kinds[int(rng.integers(len(kinds)))], qs))
                continue
            m = haar_unitary(2 ** len(qs), rng)
            gates.append(Gate(GateKind.GENERIC, qs, m))
            if len(qs) > 1:
                gates.append(Gate(GateKind.GENERIC, qs[::-1], m))
        for c in (Circuit(n, gates[:LONG_RUN - 1]), Circuit(n, gates)):
            assert circuit_unitary(c).tobytes() == register_product(c).tobytes()
    # Wider, both build the gathers.
    monkeypatch.setattr(circuit, "_operand_rows", lambda *args: calls.append("rows") or rows(*args))
    monkeypatch.setattr(circuit, "_support_runs", lambda *args: calls.append("runs") or runs(*args))
    circuit_unitary(Circuit(5, [Gate(GateKind.H, (4,)), Gate(GateKind.CS, (0, 3))]))
    assert {"rows", "runs"} <= set(calls)


def test_narrow_unitaries_are_fresh_writable_arrays():
    from threbase import circuit, haar_unitary

    rng = np.random.default_rng(19)
    spans = [Gate(GateKind.H, (0,)), Gate(GateKind.SDG, (0,)), Gate(GateKind.CS, (0, 1)),
             Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.CCX, (0, 1, 2))]
    spans += [Gate(GateKind.GENERIC, tuple(range(k)), haar_unitary(2**k, rng)) for k in (1, 2, 3)]
    cases = [Circuit(n, []) for n in range(1, 5)] + [Circuit(len(g.qubits), [g]) for g in spans]
    for c in cases:
        u = circuit_unitary(c)
        assert u.dtype == np.complex128 and u.flags.writeable
        assert not any(np.shares_memory(u, gate_matrix(g)) for g in c.gates)
        assert not any(np.shares_memory(u, m) for m in circuit._EMBEDDED.values())
        want = u.tobytes()
        u[...] = 7
        assert circuit_unitary(c).tobytes() == want
    # Multiplied onto the identity, SDG's -0.0 real part at [1, 1] becomes
    # +0.0.
    assert np.signbit(gate_matrix(GateKind.SDG)[1, 1].real)
    sdg = circuit_unitary(Circuit(1, [Gate(GateKind.SDG, (0,))]))
    assert sdg[1, 1] == -1j and not np.signbit(sdg[1, 1].real)


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
