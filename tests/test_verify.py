import itertools

import numpy as np
import pytest

from threbase import (
    Circuit,
    EquivalenceReport,
    Gate,
    GateKind,
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
        assert abs(out[want]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_run_hadamard_superposition():
    c = Circuit(1, [Gate(GateKind.H, (0,))])
    amps = run(c, 0)
    assert np.allclose(amps, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
    amps = run(c, 1)
    assert np.allclose(amps, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)


def test_run_preserves_norm(corpus):
    for c in corpus[:15]:
        amps = run(c, 0)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)


def test_run_agrees_with_matrix_route(corpus):
    # Dual-route consistency: tensor-update simulator vs embedded-matrix product.
    for c in corpus[:25]:
        u = circuit_unitary(c)
        for i in (0, 2**c.n_qubits - 1):
            got = run(c, i)
            assert np.max(np.abs(got - u[:, i])) < 1e-12


def test_run_validates_inputs():
    c = Circuit(2, [Gate(GateKind.H, (0,))])
    with pytest.raises(ValidationError):
        run(c, 4)
    with pytest.raises(ValidationError):
        run(c, -1)
    with pytest.raises(CapExceeded):
        run(c, 0, max_qubits=1)


def test_package_exports_resolve():
    import threbase

    names = threbase.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(threbase, n)] == []
    assert "StateVector" not in names and not hasattr(threbase, "StateVector")


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


def test_report_derives_its_verdict_from_the_deviations():
    rep = EquivalenceReport("realified", [0.25, 0.5, 0.125, 0.5], 0.5)
    assert rep.deviations == (0.25, 0.5, 0.125, 0.5)
    # Ties go to the first input that reaches the maximum.
    assert (rep.max_deviation, rep.worst_input, rep.passed) == (0.5, 1, True)
    rep = EquivalenceReport("measurement-stats", (0.0, 1e-9), 1e-10)
    assert (rep.max_deviation, rep.worst_input, rep.passed) == (1e-9, 1, False)
    rep = EquivalenceReport("exact-unitary", (2e-10,), 1e-10)
    assert (rep.max_deviation, rep.worst_input, rep.passed) == (2e-10, None, False)
    # A NaN deviation is the worst and fails, wherever it stands.
    rep = EquivalenceReport("realified", (1.0, float("nan"), 0.5), 1.0)
    assert np.isnan(rep.max_deviation) and (rep.worst_input, rep.passed) == (1, False)
    with pytest.raises(TypeError):
        EquivalenceReport("exact-unitary", (1.0,), 1e-10, 1.0, None, True)


# --- batched checkers against the per-input loop ---------------------------


def reference_realified(original, realified, inputs=None):
    """One simulator run per basis input: realified and stats deviations."""
    u = circuit_unitary(original)
    dim = 2**original.n_qubits
    real_dev, stats_dev = [], []
    for i in range(dim) if inputs is None else inputs:
        got = run(realified, 2 * i)
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
            assert np.array_equal(cols[:, j], run(real, int(i)))


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


def test_batched_norm_check_names_the_input(monkeypatch):
    from threbase import verify

    # Gate validation refuses a matrix off unitary by 1e-3, so the gate's
    # matrix is scaled where the simulator reads it: every column's norm
    # is then 1 + 1e-3, past the UNITARY_TOL that simulated states obey.
    monkeypatch.setattr(verify, "gate_matrix", lambda g: gate_matrix(g) * (1 + 1e-3))
    c = Circuit(1, [])
    real = Circuit(2, [Gate(GateKind.H, (0,))])
    with pytest.raises(ValidationError, match="for input 0 is not 1 within 1e-06"):
        check_realified(c, real)
    with pytest.raises(ValidationError, match="for input 3 is not 1 within 1e-06"):
        run(real, 3)


@pytest.mark.parametrize("check", [check_exact, check_realified, check_measurement_stats])
def test_checkers_refuse_nan_and_negative_tolerance(check):
    c = Circuit(2, [Gate(GateKind.H, (0,)), Gate(GateKind.CS, (0, 1))])
    other = c if check is check_exact else realify_circuit(c)[0]
    for tol in (float("nan"), -1.0, -0.5e-300):
        with pytest.raises(ValidationError, match=f"tol must be >= 0, got {tol}"):
            check(c, other, tol)
    rep = check(c, other, 0.0)
    assert rep.tolerance == 0.0 and rep.passed == (rep.max_deviation == 0.0)
    assert check(c, other, float("inf")).passed


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


# --- the planned simulator against the per-gate moveaxis loop --------------


def moveaxis_simulate(c, inputs):
    """The simulator as a per-gate loop, bit for bit what the plans must
    give: every occurrence looks up its matrix and tests the permutation
    rule again, a permutation moves slices, and any other gate is two
    np.moveaxis calls around a matmul, on float64 when every matrix is
    real."""
    n = c.n_qubits
    batch = len(inputs)
    mats = [gate_matrix(g) for g in c.gates]
    real = not any(np.any(m.imag) for m in mats)
    psi = np.zeros((2**n, batch), dtype=float if real else complex)
    psi[inputs, np.arange(batch)] = 1.0
    psi = psi.reshape((2,) * n + (batch,))
    for g, m in zip(c.gates, mats):
        k = len(g.qubits)
        src = []
        for row in m.tolist():
            cols = [j for j, x in enumerate(row) if x]
            if len(cols) != 1 or row[cols[0]] != 1:
                src = None
                break
            src.append(cols[0])
        if src is not None and sorted(src) == list(range(len(src))):
            bits = list(itertools.product((0, 1), repeat=k))

            def index(r):
                idx = [slice(None)] * (n + 1)
                for q, bit in zip(g.qubits, bits[r]):
                    idx[q] = bit
                return tuple(idx)

            moves = [(index(r), index(s)) for r, s in enumerate(src) if r != s]
            slabs = [psi[s].copy() for _, s in moves]
            for (dst, _), slab in zip(moves, slabs):
                psi[dst] = slab
            continue
        moved = np.moveaxis(psi, g.qubits, range(k))
        shape = moved.shape
        moved = (m.real if real else m) @ moved.reshape(2**k, -1)
        psi = np.moveaxis(moved.reshape(shape), range(k), g.qubits)
    return psi.reshape(2**n, batch)


def assert_bitwise_as_loop(c, inputs, amplitudes):
    """_simulate equals the loop bytewise on the chunks that a check at
    this BATCH_AMPLITUDES feeds it, and on a batch of one."""
    from threbase.verify import _simulate

    size = max(1, amplitudes >> c.n_qubits)
    for start in range(0, len(inputs), size):
        chunk = inputs[start : start + size]
        got, want = _simulate(c, chunk), moveaxis_simulate(c, chunk)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    for j in (0, len(inputs) - 1):
        one = inputs[j : j + 1]
        assert _simulate(c, one).tobytes() == moveaxis_simulate(c, one).tobytes()


@pytest.mark.parametrize("amplitudes", [1 << 18, 1 << 8, 1 << 5])
def test_simulate_is_the_moveaxis_loop_bitwise(corpus, amplitudes):
    # Realified circuits take the float64 route, their {H, CS} originals
    # the complex one; mixed circuits add GENERIC permutations and dense
    # matrices on up to three operands.
    routes = set()
    for c, real in realified_pairs(corpus[:20]):
        for circ, inputs in ((real, 2 * np.arange(2**c.n_qubits)),
                             (c, np.arange(2**c.n_qubits))):
            assert_bitwise_as_loop(circ, inputs, amplitudes)
            routes.add(moveaxis_simulate(circ, inputs[:1]).dtype)
    rng = np.random.default_rng(13)
    for real in (True, False):
        for _ in range(6):
            c = random_mixed(int(rng.integers(3, 6)), 30, rng, real)
            assert_bitwise_as_loop(c, np.arange(2**c.n_qubits), amplitudes)
    assert routes == {np.dtype(float), np.dtype(complex)}
    # Rows that hold an exact 1 beside a tiny entry: not a permutation, so
    # the matmul route applies the tiny entries.
    near = np.array([[1, 1e-11], [-1e-11, 1]])
    c = Circuit(3, [Gate(GateKind.H, (0,)), Gate(GateKind.H, (2,)),
                    Gate(GateKind.GENERIC, (2,), near), Gate(GateKind.CCX, (0, 2, 1))])
    assert_bitwise_as_loop(c, np.arange(8), amplitudes)


def test_realified_deviations_are_the_row_norm_loop_bitwise(corpus, monkeypatch):
    from threbase import verify

    planted = 0
    for c, real in realified_pairs(corpus):
        u = circuit_unitary(c)
        got = moveaxis_simulate(real, 2 * np.arange(2**c.n_qubits))
        expected = np.empty(got.shape)
        expected[0::2] = u.real
        expected[1::2] = u.imag
        diff = np.ascontiguousarray((got - expected).T, dtype=complex)
        want = np.array([float(np.linalg.norm(row)) for row in diff])
        rep = check_realified(c, real)
        assert np.array(rep.deviations).tobytes() == want.tobytes()
        planted += not rep.passed
    assert planted > 0
    monkeypatch.setattr(verify, "BATCH_AMPLITUDES", 1 << 5)
    assert check_realified(c, real).deviations == rep.deviations


def test_simulate_plans_each_distinct_gate_once(monkeypatch):
    from threbase import verify

    calls = {"gate_matrix": [], "_slice_moves": []}
    for name in calls:
        real_fn = getattr(verify, name)

        def counted(g, *rest, _fn=real_fn, _log=calls[name]):
            _log.append(g)
            return _fn(g, *rest)

        monkeypatch.setattr(verify, name, counted)
    rng = np.random.default_rng(17)
    c = realify_circuit(random_hcs(4, 40, rng))[0]
    distinct = len(set(c.gates))
    assert distinct < len(c.gates)
    for k in (1, 2):
        verify._simulate(c, 2 * np.arange(16))
        assert len(calls["gate_matrix"]) == k * distinct
        assert len(calls["_slice_moves"]) == k * distinct


def per_gate_unitary(c, max_qubits=12):
    """The circuit unitary with one matmul per gate, as circuit_unitary
    formed it before long runs became a product tree: each gate's rows of
    the running matrix gathered, multiplied and scattered back."""
    from threbase.circuit import _check_cap, _operand_rows

    _check_cap(c.n_qubits, max_qubits)
    u = np.eye(2**c.n_qubits, dtype=complex)
    for g in c.gates:
        rows = _operand_rows(g.qubits, c.n_qubits)
        gathered = u[rows].reshape(len(rows), -1)
        u[rows] = (gate_matrix(g) @ gathered).reshape(rows.shape + (-1,))
    return u


def test_verdicts_match_the_per_gate_loop(demo12, monkeypatch):
    from pathlib import Path

    from threbase import io, verify
    from threbase.circuit import DENSE_WIDTH, LONG_RUN
    from threbase.sk import SKConfig, sk_trace

    golden = Path(__file__).parent / "data" / "transpile"

    def read(name):
        return io.parse_circuit((golden / f"{name}.json").read_text())

    def bound(name):
        report = (golden / f"{name}.report").read_text()
        return float(report.split("error_bound: ")[1])

    cases = [(check_exact, read("mixed.in"), read("mixed.kitaev.out"), bound("mixed.kitaev"))]
    for name in ("mixed", "mixed_ccx", "h_ccx"):
        cases.append((check_realified, read(f"{name}.in"), read(f"{name}.th.out"),
                      bound(f"{name}.th")))
    # Solovay-Kitaev words as the sk_1q benchmark makes them: Haar targets
    # refined to depth 3 over the ht net of length 12, read back from text.
    rng = np.random.default_rng(23)
    gs = demo12.gateset
    for _ in range(4):
        u = haar_unitary(2, rng)
        seq = sk_trace(u, SKConfig(net=demo12, depth=3))[-1][0]
        word = io.parse_circuit(io.emit_circuit(Circuit(1, [gs.gate(lab) for lab in seq])))
        cases.append((check_exact, Circuit(1, [Gate(GateKind.GENERIC, (0,), u)]), word, 1e-2))
    def reference(check, a, b, tol):
        with monkeypatch.context() as m:
            m.setattr(verify, "circuit_unitary", per_gate_unitary)
            return check(a, b, tol)

    long = 0
    for check, a, b, tol in cases:
        # The flag-qubit checks form the original's unitary alone.
        unitaries = (a, b) if check is check_exact else (a,)
        # Each is at most DENSE_WIDTH qubits wide, so one product on the
        # register: long from LONG_RUN gates.
        assert all(c.n_qubits <= DENSE_WIDTH for c in unitaries)
        long += any(len(c) >= LONG_RUN for c in unitaries)
        got = check(a, b, tol)
        want = reference(check, a, b, tol)
        dev = want.max_deviation
        # Just either side of the per-gate deviation, too.
        edges = [reference(check, a, b, dev * (1 + s)).passed for s in (-1e-6, 1e-6)]
        assert got.passed == want.passed
        assert got.worst_input == want.worst_input
        assert abs(got.max_deviation - dev) <= 1e-12
        assert [check(a, b, dev * (1 + s)).passed for s in (-1e-6, 1e-6)] == edges
    # The kitaev golden output, the 16-gate mixed_ccx input and every word
    # are long.
    assert long == 6


# --- one run on the register at 1-4 qubits ---------------------------------


def named_circuit(rng, n):
    """Two of every named gate that fits in n qubits, in seeded order on
    seeded operands, so multi-qubit kinds come in both operand orders."""
    kinds = [k for k in ARITY if k is not GateKind.GENERIC and ARITY[k] <= n] * 2
    gates = []
    for i in rng.permutation(len(kinds)):
        qs = rng.choice(n, size=ARITY[kinds[i]], replace=False)
        gates.append(Gate(kinds[i], tuple(int(q) for q in qs)))
    return Circuit(n, gates)


def generic_circuit(rng, n, count=12):
    """Seeded 1-3-qubit Haar GENERIC gates; each gate on two or more qubits
    is followed by the same matrix on its operands reversed."""
    gates = []
    for _ in range(count):
        k = int(rng.integers(1, min(n, 3) + 1))
        qs = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
        m = haar_unitary(2**k, rng)
        gates.append(Gate(GateKind.GENERIC, qs, m))
        if k > 1:
            gates.append(Gate(GateKind.GENERIC, qs[::-1], m))
    return Circuit(n, gates)


def narrow_circuits(corpus):
    from threbase.circuit import DENSE_WIDTH

    rng = np.random.default_rng(41)
    circuits = [c for c in corpus if c.n_qubits <= DENSE_WIDTH]
    for n in range(1, DENSE_WIDTH + 1):
        circuits += [named_circuit(rng, n) for _ in range(3)]
        circuits += [generic_circuit(rng, n) for _ in range(3)]
    return circuits


def test_narrow_unitaries_match_the_per_gate_loop(corpus):
    circuits = narrow_circuits(corpus)
    # Every corpus circuit has 2-4 qubits.
    assert len(circuits) == len(corpus) + 24
    for c in circuits:
        assert np.max(np.abs(circuit_unitary(c) - per_gate_unitary(c))) <= 1e-14


def test_check_exact_matches_the_two_matrix_dist(corpus):
    from threbase import rebase_circuit
    from threbase.linalg import dist

    pairs = []
    for c in narrow_circuits(corpus):
        pairs.append((c, Circuit(c.n_qubits, c.gates[:-1])))
        if c.n_qubits > 1 and all(g.matrix is None for g in c.gates):
            # Past one qubit every named gate has an exact word: an
            # equivalent pair.
            pairs.append((c, rebase_circuit(c, None, 1.0)[0]))
    verdicts = set()
    for a, b in pairs:
        want = dist(per_gate_unitary(a), per_gate_unitary(b))
        got = check_exact(a, b)
        assert got.passed == (want <= got.tolerance)
        assert abs(got.max_deviation - want) <= 1e-14
        verdicts.add(got.passed)
    assert verdicts == {True, False}


def test_check_exact_checks_width_then_cap_before_any_product(monkeypatch):
    from threbase import circuit

    built = []
    monkeypatch.setattr(circuit, "_embedded", lambda *args: built.append(args))
    monkeypatch.setattr(circuit, "_support_runs", lambda *args: built.append(args))
    four = Circuit(4, [Gate(GateKind.H, (0,)), Gate(GateKind.CS, (0, 3))])
    three = Circuit(3, [Gate(GateKind.H, (0,))])
    with pytest.raises(ValidationError, match="^qubit counts differ: 4 vs 3$"):
        check_exact(four, three, max_qubits=2)
    with pytest.raises(CapExceeded, match="^4 qubits exceeds the dense-matrix cap of 3$"):
        check_exact(four, four, max_qubits=3)
    assert built == []
    monkeypatch.undo()
    assert check_exact(three, three, max_qubits=3).passed


def test_embedding_table_holds_named_gates_once_and_read_only(corpus, monkeypatch):
    from threbase import circuit
    from threbase.circuit import _embedded, _placed

    table = {}
    monkeypatch.setattr(circuit, "_EMBEDDED", table)
    one_qubit = [k for k in ARITY if k is not GateKind.GENERIC and ARITY[k] == 1]
    # Past 4 qubits circuit_unitary multiplies a one-qubit gate beside a
    # two-qubit gate as its embedding in that gate's frame: here in both
    # positions of both operand orders.
    framed = [Gate(GateKind.CNOT, (1, 0))]
    for kind in one_qubit:
        framed += [Gate(kind, (0,)), Gate(kind, (1,)), Gate(GateKind.CS, (0, 1))]
    circuit_unitary(Circuit(5, framed))
    assert set(table) == {(kind, (q,), 2) for kind in one_qubit for q in (0, 1)}
    for c in narrow_circuits(corpus):
        check_exact(c, c)
    assert {n for _, _, n in table} == {2, 3, 4}
    for (kind, qubits, n), m in table.items():
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0
        # A repeat lookup is the same object, with the bytes of a fresh
        # placement.
        assert _embedded(Gate(kind, qubits), qubits, n) is m
        assert m.tobytes() == _placed(gate_matrix(kind), qubits, n).tobytes()
    # GENERIC gates, framed or not, never enter the table.
    size = len(table)
    rng = np.random.default_rng(43)
    u2 = haar_unitary(2, rng)
    in_frame = Circuit(5, [Gate(GateKind.GENERIC, (2, 1), haar_unitary(4, rng)),
                           Gate(GateKind.GENERIC, (1,), u2), Gate(GateKind.GENERIC, (2,), u2)])
    for c in [in_frame] + [generic_circuit(rng, n) for n in (2, 3, 4, 5)]:
        check_exact(c, c)
        circuit_unitary(c)
    assert len(table) == size
