"""End-to-end acceptance checks.

Each test covers one released guarantee, asserts it at its stated
tolerance, and appends a one-line measured summary that pytest prints
after the run.  The slow approximation checks share the session-scoped
length-22 single-qubit net; its build time is fixture setup and is not
counted against the per-check budgets.
"""

import time

import numpy as np

from threbase import (
    Circuit,
    Gate,
    GateKind,
    SKConfig,
    build_net,
    check_measurement_stats,
    check_realified,
    circuit_unitary,
    dist,
    emit_circuit,
    gate_matrix,
    haar_unitary,
    kitaev_gate_set,
    nearest,
    realify_circuit,
    realify_matrix,
    rebase_exact,
    run,
    sk_trace,
)
from threbase.cli import main as cli_main

CS4 = np.diag([1.0, 1.0, 1.0, 1j])
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_realified_cs_acts_as_doubly_controlled_xz(acceptance_log):
    """Criterion 1: the real encoding of CS permutes the eight basis states
    like a doubly-controlled XZ, max deviation <= 1e-12, under 1 s."""
    t0 = time.perf_counter()
    r = realify_matrix(CS4)
    expected = np.eye(8)
    expected[6, 6] = expected[7, 7] = 0.0
    expected[7, 6] = 1.0
    expected[6, 7] = -1.0
    deviation = float(np.max(np.abs(r - expected)))
    elapsed = time.perf_counter() - t0
    assert deviation <= 1e-12
    assert elapsed < 1.0
    acceptance_log.append(
        f"PASS [1/10] basis-state table of realified CS: "
        f"max deviation {deviation:.3g} (tol 1e-12, {elapsed:.2f}s)"
    )


def test_hadamard_toffoli_square_reproduces_realified_cs(acceptance_log):
    """Criterion 2: H(anc) CCX H(anc) CCX equals the real encoding of CS to
    1e-12, and XZ = XHXH to 1e-14, under 1 s."""
    t0 = time.perf_counter()
    c = Circuit(3, [
        Gate(GateKind.H, (2,)),
        Gate(GateKind.CCX, (0, 1, 2)),
        Gate(GateKind.H, (2,)),
        Gate(GateKind.CCX, (0, 1, 2)),
    ])
    d_circuit = dist(circuit_unitary(c), realify_matrix(CS4))
    d_identity = float(np.max(np.abs(X @ H2 @ X @ H2 - X @ Z)))
    elapsed = time.perf_counter() - t0
    assert d_circuit <= 1e-12
    assert d_identity <= 1e-14
    assert elapsed < 1.0
    acceptance_log.append(
        f"PASS [2/10] four-gate expansion of CS: circuit dist {d_circuit:.3g} "
        f"(tol 1e-12), XZ=XHXH to {d_identity:.3g} (tol 1e-14, {elapsed:.2f}s)"
    )


def test_realify_overhead_and_equivalence_on_corpus(corpus, acceptance_log):
    """Criterion 3: 100 random {H, CS} circuits realify to n+1 qubits and
    <= 4t gates, each passing the basis-state check at 1e-10, under 30 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for c in corpus:
        out, error_bound = realify_circuit(c)
        assert out.n_qubits == c.n_qubits + 1
        assert len(out) <= 4 * len(c)
        assert error_bound == 0.0
        rep = check_realified(c, out, 1e-10)
        assert rep.passed
        worst = max(worst, rep.max_deviation)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    acceptance_log.append(
        f"PASS [3/10] realify overhead + equivalence on 100 circuits: "
        f"worst deviation {worst:.3g} (tol 1e-10, {elapsed:.1f}s)"
    )


def test_measurement_statistics_preserved_on_corpus(corpus, acceptance_log):
    """Criterion 4: outcome distributions on the original qubits survive
    realification at 1e-10 across the corpus."""
    t0 = time.perf_counter()
    worst = 0.0
    for c in corpus:
        out, _ = realify_circuit(c)
        rep = check_measurement_stats(c, out, 1e-10)
        assert rep.passed
        worst = max(worst, rep.max_deviation)
    elapsed = time.perf_counter() - t0
    acceptance_log.append(
        f"PASS [4/10] measurement statistics preserved on 100 circuits: "
        f"worst deviation {worst:.3g} (tol 1e-10, {elapsed:.1f}s)"
    )


def test_realified_unitaries_are_real_on_corpus(corpus, acceptance_log):
    """Criterion 5: every realified circuit's unitary is real to 1e-12."""
    t0 = time.perf_counter()
    worst = 0.0
    for c in corpus:
        out, _ = realify_circuit(c)
        worst = max(worst, float(np.max(np.abs(circuit_unitary(out).imag))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    acceptance_log.append(
        f"PASS [5/10] realified unitaries real on 100 circuits: "
        f"max imaginary entry {worst:.3g} (tol 1e-12, {elapsed:.1f}s)"
    )


def test_exact_rewrites_for_cz_and_cnot(acceptance_log):
    """Criterion 6: CZ -> CS CS and CNOT -> H CS CS H at dist <= 1e-12."""
    t0 = time.perf_counter()
    worst = 0.0
    for kind in (GateKind.CZ, GateKind.CNOT):
        for qubits in ((0, 1), (1, 0)):
            g = Gate(kind, qubits)
            expansion = rebase_exact(g)
            assert expansion is not None
            d = dist(
                circuit_unitary(Circuit(2, expansion)),
                circuit_unitary(Circuit(2, [g])),
            )
            worst = max(worst, d)
    assert rebase_exact(Gate(GateKind.CZ, (0, 1))) == [
        Gate(GateKind.CS, (0, 1)),
        Gate(GateKind.CS, (0, 1)),
    ]
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    acceptance_log.append(
        f"PASS [6/10] exact CZ/CNOT rewrites: worst dist {worst:.3g} "
        f"(tol 1e-12, {elapsed:.2f}s)"
    )


def test_recursion_tightens_with_depth_on_random_targets(demo22, acceptance_log):
    """Criterion 7: on the single-qubit demo set, achieved distance is
    monotone non-increasing in depth for every gated target, and a single
    scale factor c fitted to d_k+1 = c * d_k^1.5 across all gated
    transitions is < 10.  Targets are gated on their depth-0 distance
    falling below the measured covering radius.  Under 5 min with the
    session net."""
    t0 = time.perf_counter()
    probe_rng = np.random.default_rng(99)
    probes = [haar_unitary(2, probe_rng) for _ in range(200)]
    radius = max(dist(nearest(demo22, p).matrix, p) for p in probes)

    rng = np.random.default_rng(20250825)
    cfg = SKConfig(net=demo22, eps=1e-12, depth=4)
    gated = 0
    log_residuals = []
    max_ratio = 0.0
    max_len = 0
    for _ in range(60):
        u = haar_unitary(2, rng)
        trace = sk_trace(u, cfg)
        ds = [d for _, d in trace]
        max_len = max(max_len, max(len(seq) for seq, _ in trace))
        if ds[0] >= radius:
            continue
        gated += 1
        for k in range(4):
            assert ds[k + 1] <= ds[k], f"distance grew at depth {k + 1}"
            if ds[k] > 0 and ds[k + 1] > 0:
                log_residuals.append(np.log(ds[k + 1]) - 1.5 * np.log(ds[k]))
                max_ratio = max(max_ratio, ds[k + 1] / ds[k] ** 1.5)
    fitted_c = float(np.exp(np.mean(log_residuals)))
    elapsed = time.perf_counter() - t0
    assert gated >= 50
    assert fitted_c < 10.0
    assert max_len <= demo22.max_length * 5**4
    assert elapsed < 300.0
    acceptance_log.append(
        f"PASS [7/10] depth scaling on {gated}/60 gated targets "
        f"(radius {radius:.3g}): monotone, fitted c {fitted_c:.2f} < 10 "
        f"(worst single-step ratio {max_ratio:.1f}), longest sequence "
        f"{max_len} <= {demo22.max_length * 5**4}, {elapsed:.1f}s"
    )


def test_two_qubit_net_hits_cliffords_and_tightens_with_length(acceptance_log):
    """Criterion 8: the length-3 two-qubit net contains CZ and the CS
    inverse exactly, and net-search distance is non-increasing in net
    length over 20 random targets.  Under 10 min."""
    t0 = time.perf_counter()
    net3 = build_net(kitaev_gate_set(), 3)
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    d_cz = dist(nearest(net3, cz).matrix, cz)
    d_csdg = dist(nearest(net3, CS4.conj().T).matrix, CS4.conj().T)
    assert d_cz <= 1e-12
    assert d_csdg <= 1e-12

    rng = np.random.default_rng(8)
    targets = [haar_unitary(4, rng) for _ in range(20)]
    nets = {length: build_net(kitaev_gate_set(), length) for length in (4, 6, 8)}
    worst_final = 0.0
    for u in targets:
        prev = None
        for length in (4, 6, 8):
            d = dist(nearest(nets[length], u).matrix, u)
            if prev is not None:
                assert d <= prev + 1e-12
            prev = d
        worst_final = max(worst_final, prev)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    acceptance_log.append(
        f"PASS [8/10] two-qubit net: CZ/CS-inverse dist {max(d_cz, d_csdg):.3g} "
        f"(tol 1e-12), search non-increasing over lengths 4/6/8 on 20 targets "
        f"(worst at length 8: {worst_final:.3f}), {elapsed:.1f}s"
    )


def test_simulator_agrees_with_matrix_oracle_on_corpus(corpus, acceptance_log):
    """Criterion 9: the tensor-update simulator matches every column of the
    embedded-matrix product at 1e-10 across the corpus."""
    t0 = time.perf_counter()
    worst = 0.0
    for c in corpus:
        u = circuit_unitary(c)
        for i in range(2**c.n_qubits):
            got = run(c, i)
            worst = max(worst, float(np.max(np.abs(got - u[:, i]))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    acceptance_log.append(
        f"PASS [9/10] simulator vs matrix oracle on 100 circuits, all columns: "
        f"max deviation {worst:.3g} (tol 1e-10, {elapsed:.1f}s)"
    )


def test_cli_outputs_are_byte_identical_across_runs(
    tmp_path, capsys, acceptance_log
):
    """Criterion 10: repeated transpile and net-build invocations with the
    same inputs produce byte-identical files and reports."""
    t0 = time.perf_counter()
    src = tmp_path / "in.json"
    src.write_text(
        emit_circuit(
            Circuit(2, [Gate(GateKind.H, (0,)), Gate(GateKind.CS, (1, 0))])
        )
    )
    outs = []
    reports = []
    for i in (1, 2):
        out = tmp_path / f"out{i}.json"
        assert cli_main(["transpile", str(src), "--to", "th", "-o", str(out)]) == 0
        outs.append(out.read_bytes())
        reports.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert reports[0] == reports[1]

    caches = []
    for i in (1, 2):
        cache = tmp_path / f"net{i}.json"
        args = ["net", "build", "--set", "kitaev", "--max-len", "4", "-o", str(cache)]
        assert cli_main(args) == 0
        capsys.readouterr()
        caches.append(cache.read_bytes())
    assert caches[0] == caches[1]
    elapsed = time.perf_counter() - t0
    acceptance_log.append(
        f"PASS [10/10] byte-identical repeated transpile ({len(outs[0])} bytes) "
        f"and net build ({len(caches[0])} bytes), {elapsed:.1f}s"
    )
