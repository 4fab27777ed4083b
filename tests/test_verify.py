import numpy as np
import pytest

from threbase import (
    Circuit,
    EquivalenceReport,
    Gate,
    GateKind,
    StateVector,
    check_exact,
    check_measurement_stats,
    check_realified,
    circuit_unitary,
    haar_unitary,
    realify_circuit,
    run,
)
from threbase.gates import ARITY, gate_matrix
from threbase.errors import CapExceeded, ValidationError


def test_run_toffoli_basis_table():
    c = Circuit(3, [Gate(GateKind.CCX, (0, 1, 2))])
    for i in range(8):
        out = run(c, i)
        want = {6: 7, 7: 6}.get(i, i)
        assert out.probability(want) == pytest.approx(1.0, abs=1e-12)


def test_run_hadamard_superposition():
    c = Circuit(1, [Gate(GateKind.H, (0,))])
    amps = run(c, 0).amplitudes
    assert np.allclose(amps, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
    amps = run(c, 1).amplitudes
    assert np.allclose(amps, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)


def test_run_preserves_norm(corpus):
    for c in corpus[:15]:
        sv = run(c, 0)
        assert np.linalg.norm(sv.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_run_agrees_with_matrix_route(corpus):
    # Dual-route consistency: tensor-update simulator vs embedded-matrix product.
    for c in corpus[:25]:
        u = circuit_unitary(c)
        for i in (0, 2**c.n_qubits - 1):
            got = run(c, i).amplitudes
            assert np.max(np.abs(got - u[:, i])) < 1e-12


def test_run_validates_inputs():
    c = Circuit(2, [Gate(GateKind.H, (0,))])
    with pytest.raises(ValidationError):
        run(c, 4)
    with pytest.raises(ValidationError):
        run(c, -1)
    with pytest.raises(CapExceeded):
        run(c, 0, max_qubits=1)


def test_statevector_norm_validation():
    with pytest.raises(ValidationError):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        StateVector(2, np.array([1.0, 0.0]))


def test_check_exact_passes_commuting_diagonals():
    a = Circuit(2, [Gate(GateKind.S, (0,)), Gate(GateKind.CZ, (0, 1))])
    b = Circuit(2, [Gate(GateKind.CZ, (1, 0)), Gate(GateKind.S, (0,))])
    rep = check_exact(a, b)
    assert rep.passed and rep.kind == "exact-unitary"
    assert rep.max_deviation < 1e-12
    assert rep.worst_input is None


def test_check_exact_is_phase_insensitive():
    # Z then X differs from X then Z by a global -1 only.
    a = Circuit(1, [Gate(GateKind.Z, (0,)), Gate(GateKind.X, (0,))])
    b = Circuit(1, [Gate(GateKind.X, (0,)), Gate(GateKind.Z, (0,))])
    assert check_exact(a, b).passed


def test_check_exact_detects_difference():
    a = Circuit(1, [Gate(GateKind.H, (0,))])
    b = Circuit(1, [Gate(GateKind.X, (0,))])
    rep = check_exact(a, b)
    assert not rep.passed
    assert rep.max_deviation == pytest.approx(np.sqrt(2 - np.sqrt(2)), abs=1e-12)
    with pytest.raises(ValidationError):
        check_exact(a, Circuit(2, []))


def test_check_realified_accepts_realify_output(corpus):
    for c in corpus[:10]:
        rep = check_realified(c, realify_circuit(c)[0])
        assert rep.passed
        assert len(rep.deviations) == 2**c.n_qubits
        assert rep.worst_input == int(np.argmax(rep.deviations))


def test_check_realified_catches_dropped_gate():
    c = Circuit(2, [Gate(GateKind.H, (0,)), Gate(GateKind.CS, (0, 1))])
    full, _ = realify_circuit(c)
    broken = Circuit(full.n_qubits, full.gates[:-1])
    rep = check_realified(c, broken)
    assert not rep.passed
    assert rep.max_deviation > 0.1
    with pytest.raises(ValidationError):
        check_realified(c, c)


def test_measurement_stats_marginalize_flag_qubit(corpus):
    for c in corpus[:10]:
        assert check_measurement_stats(c, realify_circuit(c)[0]).passed


def test_measurement_stats_blind_to_flag_and_phase():
    # CS only shifts phases, so rotating the flag qubit alone is invisible
    # to the marginal distribution; moving population on a data qubit is not.
    c = Circuit(2, [Gate(GateKind.CS, (0, 1))])
    flag_only = Circuit(3, [Gate(GateKind.H, (2,))])
    assert check_measurement_stats(c, flag_only).passed
    wrong = Circuit(3, [Gate(GateKind.H, (0,))])
    rep = check_measurement_stats(c, wrong)
    assert not rep.passed
    assert rep.max_deviation == pytest.approx(0.5, abs=1e-12)


def test_report_passed_flag_must_match():
    with pytest.raises(ValidationError):
        EquivalenceReport("exact-unitary", 1.0, (1.0,), 1e-10, None, True)
    with pytest.raises(ValidationError):
        EquivalenceReport("exact-unitary", 0.0, (0.0,), 1e-10, None, False)


# --- batched checkers against the per-input loop ---------------------------


def reference_realified(original, realified, inputs=None):
    """One simulator run per basis input: realified and stats deviations."""
    u = circuit_unitary(original)
    dim = 2**original.n_qubits
    real_dev, stats_dev = [], []
    for i in range(dim) if inputs is None else inputs:
        got = run(realified, 2 * i).amplitudes
        expected = np.zeros(2 * dim, dtype=complex)
        expected[0::2] = u[:, i].real
        expected[1::2] = u[:, i].imag
        real_dev.append(float(np.linalg.norm(got - expected)))
        p_real = np.abs(got[0::2]) ** 2 + np.abs(got[1::2]) ** 2
        stats_dev.append(float(np.max(np.abs(p_real - np.abs(u[:, i]) ** 2))))
    return real_dev, stats_dev


def drop_gate(c, rng):
    k = int(rng.integers(len(c.gates)))
    return Circuit(c.n_qubits, c.gates[:k] + c.gates[k + 1 :])


def realified_pairs(corpus):
    rng = np.random.default_rng(7)
    pairs = []
    for i, c in enumerate(corpus):
        real = realify_circuit(c)[0]
        pairs.append((c, real))
        if i % 2 == 0:
            pairs.append((c, drop_gate(real, rng)))
    return pairs


def test_batched_checkers_match_per_input_loop(corpus):
    planted = 0
    for c, real in realified_pairs(corpus):
        want_real, want_stats = reference_realified(c, real)
        rep = check_realified(c, real)
        stats = check_measurement_stats(c, real)
        assert np.max(np.abs(np.subtract(rep.deviations, want_real))) <= 1e-15
        assert np.max(np.abs(np.subtract(stats.deviations, want_stats))) <= 1e-15
        assert rep.worst_input == int(np.argmax(want_real))
        assert stats.worst_input == int(np.argmax(want_stats))
        planted += not rep.passed
    assert planted > 0


def test_batched_columns_equal_run(corpus):
    from threbase.verify import _simulate

    for c, real in realified_pairs(corpus[:20]):
        inputs = 2 * np.arange(2**c.n_qubits)
        cols = _simulate(real, inputs)
        for j, i in enumerate(inputs):
            assert np.array_equal(cols[:, j], run(real, int(i)).amplitudes)


def random_hcs(n, gates, rng):
    out = []
    for _ in range(gates):
        if rng.random() < 0.5:
            out.append(Gate(GateKind.H, (int(rng.integers(n)),)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            out.append(Gate(GateKind.CS, (int(a), int(b))))
    return Circuit(n, out)


def test_batched_checkers_span_several_chunks(monkeypatch):
    from threbase import verify

    rng = np.random.default_rng(9)
    c = random_hcs(9, 40, rng)
    real = drop_gate(realify_circuit(c)[0], rng)
    assert 2 ** real.n_qubits * 2**c.n_qubits > verify.BATCH_AMPLITUDES
    rep = check_realified(c, real)
    stats = check_measurement_stats(c, real)
    chunk = verify.BATCH_AMPLITUDES >> real.n_qubits
    sample = sorted({0, 1, chunk - 1, chunk, chunk + 1, 2**c.n_qubits - 1}
                    | {int(i) for i in rng.integers(2**c.n_qubits, size=10)})
    want_real, want_stats = reference_realified(c, real, sample)
    got_real = [rep.deviations[i] for i in sample]
    got_stats = [stats.deviations[i] for i in sample]
    assert np.max(np.abs(np.subtract(got_real, want_real))) <= 1e-15
    assert np.max(np.abs(np.subtract(got_stats, want_stats))) <= 1e-15
    # Smaller chunks leave every deviation, hence the worst input, unchanged.
    monkeypatch.setattr(verify, "BATCH_AMPLITUDES", 1 << 13)
    assert check_realified(c, real) == rep
    assert check_measurement_stats(c, real) == stats


def test_batched_norm_check_names_the_input():
    # Each gate passes the unitarity check but grows the norm by 4e-11;
    # ten of them push every column past NORM_ATOL.
    grow = Gate(GateKind.GENERIC, (0,), np.eye(2) * (1 + 4e-11))
    c = Circuit(1, [])
    real = Circuit(2, [grow] * 10)
    with pytest.raises(ValidationError, match="for input 0 is not 1"):
        check_realified(c, real)
    with pytest.raises(ValidationError, match="is not 1"):
        run(real, 3)


@pytest.mark.parametrize("check", [check_realified, check_measurement_stats])
def test_realified_checks_fail_fast_at_the_cap(check):
    import tracemalloc

    # The realified circuit has 13 qubits, one over the default cap, so a
    # 12-qubit original is refused before its 256 MiB unitary is built.
    c = Circuit(12, [Gate(GateKind.H, (0,)), Gate(GateKind.CS, (0, 11))])
    real = realify_circuit(c)[0]
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            check(c, real)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # At a cap of 3 the largest original these modes accept has 2 qubits.
    small = Circuit(3, [Gate(GateKind.H, (0,))])
    with pytest.raises(CapExceeded):
        check(small, realify_circuit(small)[0], max_qubits=3)
    two = Circuit(2, [Gate(GateKind.H, (0,))])
    assert check(two, realify_circuit(two)[0], max_qubits=3).passed


# --- the simulator's routes against the complex moveaxis loop --------------


def reference_simulate(c, inputs):
    """Every gate as a complex moveaxis-and-matmul update: the reference."""
    n = c.n_qubits
    batch = len(inputs)
    psi = np.zeros((2**n, batch), dtype=complex)
    psi[inputs, np.arange(batch)] = 1.0
    psi = psi.reshape((2,) * n + (batch,))
    for g in c.gates:
        m = gate_matrix(g)
        k = len(g.qubits)
        moved = np.moveaxis(psi, g.qubits, range(k))
        shape = moved.shape
        moved = m @ moved.reshape(2**k, -1)
        psi = np.moveaxis(moved.reshape(shape), range(k), g.qubits)
    return psi.reshape(2**n, batch)


def assert_matches_reference(c, inputs, dtype):
    from threbase.verify import _simulate

    want = reference_simulate(c, inputs)
    got = _simulate(c, inputs)
    assert got.dtype == dtype
    assert np.max(np.abs(got - want)) <= 1e-15
    for j in (0, len(inputs) - 1):
        one = _simulate(c, inputs[j : j + 1])
        assert np.max(np.abs(one[:, 0] - want[:, j])) <= 1e-15


def test_real_route_matches_complex_loop_on_realified_pairs(corpus):
    planted = 0
    for c, real in realified_pairs(corpus):
        inputs = 2 * np.arange(2**c.n_qubits)
        assert_matches_reference(real, inputs, np.float64)
        u = circuit_unitary(c)
        want = reference_simulate(real, inputs)
        expected = np.zeros(want.shape, dtype=complex)
        expected[0::2] = u.real
        expected[1::2] = u.imag
        want_dev = [float(np.linalg.norm(col)) for col in (want - expected).T]
        rep = check_realified(c, real)
        assert np.max(np.abs(np.subtract(rep.deviations, want_dev))) <= 1e-15
        assert rep.worst_input == int(np.argmax(want_dev))
        planted += not rep.passed
    assert planted > 0


def random_matrix(k, rng, real):
    """A GENERIC matrix on k qubits: a permutation, a signed or phased
    permutation, or a dense orthogonal or unitary one."""
    dim = 2**k
    perm = np.eye(dim)[:, rng.permutation(dim)]
    forms = ["perm", "signed", "orthogonal"] + ([] if real else ["phased", "haar"])
    form = forms[int(rng.integers(len(forms)))]
    if form == "perm":
        return perm
    if form == "signed":
        return perm * np.where(np.arange(dim) == 0, -1.0, rng.choice([-1.0, 1.0], dim))
    if form == "orthogonal":
        return np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    if form == "phased":
        return perm * np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
    return haar_unitary(dim, rng)


REAL_KINDS = [GateKind.H, GateKind.X, GateKind.Z, GateKind.CZ, GateKind.CNOT,
              GateKind.CCX, GateKind.GENERIC]


def random_mixed(n, gates, rng, real):
    kinds = REAL_KINDS if real else list(GateKind)
    out = []
    for _ in range(gates):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind is GateKind.GENERIC:
            k = int(rng.integers(1, 4))
            qubits = rng.choice(n, size=k, replace=False)
            out.append(Gate(kind, tuple(qubits), random_matrix(k, rng, real)))
        else:
            qubits = rng.choice(n, size=ARITY[kind], replace=False)
            out.append(Gate(kind, tuple(qubits)))
    return Circuit(n, out)


@pytest.mark.parametrize("real", [True, False])
def test_routes_match_complex_loop_on_mixed_circuits(real):
    rng = np.random.default_rng(11 if real else 12)
    kinds = set()
    for _ in range(40):
        c = random_mixed(int(rng.integers(3, 6)), 30, rng, real)
        kinds |= {g.kind for g in c.gates}
        if not real and all(not np.any(gate_matrix(g).imag) for g in c.gates):
            continue
        assert_matches_reference(c, np.arange(2**c.n_qubits), np.float64 if real else complex)
    assert kinds == (set(REAL_KINDS) if real else set(GateKind))


@pytest.mark.parametrize("odd", [
    Gate(GateKind.CS, (0, 2)),
    Gate(GateKind.GENERIC, (1,), np.diag([1, np.exp(1e-9j)])),
    Gate(GateKind.GENERIC, (2, 0), np.eye(4)[:, [1, 0, 3, 2]] * [1, 1j, 1, 1]),
])
def test_one_complex_gate_keeps_the_complex_route(odd):
    real_part = [Gate(GateKind.H, (0,)), Gate(GateKind.CCX, (0, 1, 2)),
                 Gate(GateKind.H, (1,)), Gate(GateKind.CNOT, (1, 2))]
    c = Circuit(3, real_part[:2] + [odd] + real_part[2:])
    assert_matches_reference(c, np.arange(8), complex)
