import json
from pathlib import Path

import numpy as np
import pytest

from threbase import (
    BudgetNotMet,
    Gate,
    GateKind,
    GateSet,
    Net,
    SKConfig,
    build_net,
    demo_1q_gate_set,
    dist,
    gate_matrix,
    gc_decompose,
    haar_unitary,
    kitaev_gate_set,
    nearest,
    sk_approx,
    sk_trace,
)
from threbase import io, sk
from threbase.errors import CapExceeded, CompileError, ValidationError
from threbase.sk import (
    COMMUTATOR_TOL,
    GC_MAX_DIST,
    NetEntry,
    _angle_axis,
    _nearest,
    _rotation,
    _to_su2,
)

CS4 = np.diag([1, 1, 1, 1j])


def arc_dists(stack, m):
    """dist(a, m) for every a in the stack: 2 sin(W/4), W the smallest arc
    that holds the eigenphases of a^dag m."""
    phases = np.sort(np.angle(np.linalg.eigvals(np.conj(np.swapaxes(stack, 1, 2)) @ m)))
    gaps = np.diff(phases, axis=1, append=phases[:, :1] + 2 * np.pi)
    return 2 * np.sin(np.maximum(2 * np.pi - gaps.max(axis=1), 0.0) / 4)


def naive_net(gateset, max_length, tol):
    """Quadratic reference build: same BFS and keep-first rule, no index."""
    entries = [NetEntry((), np.eye(gateset.dim, dtype=complex))]
    mats = np.array([entries[0].matrix])
    frontier = list(entries)
    for _ in range(max_length):
        nxt = []
        for e in frontier:
            for lab in gateset.labels:
                m = gateset.matrix(lab) @ e.matrix
                if np.any(arc_dists(mats, m) < tol):
                    continue
                new = NetEntry(e.seq + (lab,), m)
                entries.append(new)
                mats = np.concatenate([mats, m[None]])
                nxt.append(new)
        frontier = nxt
    return entries


def test_length_one_net_contents():
    net = build_net(kitaev_gate_set(), 1)
    seqs = [e.seq for e in net.entries]
    assert seqs == [(), ("H0",), ("H1",), ("CS",)]
    assert np.array_equal(net.entries[0].matrix, np.eye(4))
    assert np.array_equal(net.entries[3].matrix, CS4)


def test_controlled_z_and_inverse_appear_exactly():
    net = build_net(kitaev_gate_set(), 3)
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    k, achieved = _nearest(net, cz)
    assert net.seqs[k] == ("CS", "CS")
    assert achieved < 1e-12
    k, achieved = _nearest(net, CS4.conj().T)
    assert net.seqs[k] == ("CS", "CS", "CS")
    assert achieved < 1e-12


def test_entry_counts_monotone_in_length():
    counts = [len(build_net(kitaev_gate_set(), L)) for L in (1, 2, 3, 4)]
    assert counts == sorted(counts)
    assert counts[0] == 4


def test_shorter_build_is_a_prefix_of_longer():
    # Dedup decisions for a length-l candidate only consult entries of
    # length <= l, so a shorter build is the longer one cut at its bound.
    full = build_net(kitaev_gate_set(), 4)
    short = build_net(kitaev_gate_set(), 2)
    assert_same_entries(short, [e for e in full.entries if e.length <= 2])


def test_build_is_deterministic():
    a = build_net(demo_1q_gate_set(), 7)
    b = build_net(demo_1q_gate_set(), 7)
    assert [e.seq for e in a.entries] == [e.seq for e in b.entries]
    assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(a.entries, b.entries))


def assert_same_entries(got, want):
    assert [e.seq for e in got.entries] == [e.seq for e in want]
    assert all(a.matrix.tobytes() == b.matrix.tobytes() for a, b in zip(got.entries, want))


def test_dedupe_matches_naive_reference():
    # Wide tolerances widen the key windows and send pairs through the
    # eigenphase border test; dimension 4 has its own key weights.
    cases = [(demo_1q_gate_set(), 8, tol) for tol in (1e-4, 1e-2, 0.3)]
    cases.append((kitaev_gate_set(), 4, 1e-4))
    for gs, length, tol in cases:
        assert_same_entries(build_net(gs, length, tol), naive_net(gs, length, tol))


def test_chunked_build_matches_naive_reference(monkeypatch):
    # Seven candidates per chunk: layers straddle chunk boundaries, so
    # duplicates are found both in earlier chunks of a layer and inside one.
    monkeypatch.setattr(sk, "_CHUNK", 7)
    gs = demo_1q_gate_set()
    got = build_net(gs, 6)
    assert_same_entries(got, naive_net(gs, 6, got.dedupe_tol))


def band_pairs(d, tol, rng):
    """Pairs (a, b) of unitaries with phase-free Frobenius distance in
    [tol, 2 tol), where _duplicates must consult the eigenphases.

    b = a q diag(e^{i theta}) q^dag with eigenphases theta = (+-w/2, +-x),
    0 <= x <= w/2, so dist(a, b) = 2 sin(w/4) and frob runs from sqrt(2)
    to 2 times that as x goes from 0 to w/2.
    """
    pairs = []
    while len(pairs) < 60:
        # Many of the distances lie within a few parts in 1e7 of tol.
        target = tol * (1 + rng.choice([-1, 1]) * 10 ** rng.uniform(-7, -0.5))
        w = 4 * np.arcsin(target / 2)
        x = w / 2 * rng.uniform() if d == 4 else w / 2
        theta = np.array([w / 2, -w / 2, x, -x])[:d]
        frob = np.sqrt(2 * d - 2 * abs(np.exp(1j * theta).sum()))
        if not tol <= frob < 2 * tol:
            continue
        a, q = haar_unitary(d, rng), haar_unitary(d, rng)
        pairs.append((a, a @ (q * np.exp(1j * theta)) @ q.conj().T))
    return np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("tol", [1e-3, 0.05])
def test_duplicates_decides_the_band_by_dist(monkeypatch, d, tol):
    # No standard build sends a dimension-4 pair through the band, so the
    # pairs are made to order.  At d = 2 frob = sqrt(2) dist, so the band
    # holds duplicates only, and the pairs past it are decided by frob.
    a, b = band_pairs(d, tol, np.random.default_rng(41))
    want = np.array([dist(x, y) < tol for x, y in zip(a, b)])
    assert want.any() and not want.all()
    assert sk._duplicates(a, b, tol).tolist() == want.tolist()
    # An empty band makes no eigenphase call.
    monkeypatch.setattr(sk, "phase_dist", None)
    assert sk._duplicates(a[:0], b[:0], tol).tolist() == []
    assert sk._duplicates(a, 1j * a, tol).all()


def test_net_entries_respect_dedupe_gap():
    net = build_net(kitaev_gate_set(), 3)
    ms = [e.matrix for e in net.entries]
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            assert dist(ms[i], ms[j]) >= net.dedupe_tol


def test_net_entries_reevaluate_from_sequences(demo12):
    gs = demo12.gateset
    idx = np.linspace(0, len(demo12) - 1, 60).astype(int)
    for i in idx:
        e = demo12.entries[i]
        assert np.max(np.abs(gs.evaluate(e.seq) - e.matrix)) < 1e-10


def test_entry_cap(monkeypatch):
    # The cap fires in the layer where the naive build would pass it,
    # also when that layer spans several chunks.
    for chunk in (sk._CHUNK, 7):
        monkeypatch.setattr(sk, "_CHUNK", chunk)
        monkeypatch.setattr(sk, "MAX_ENTRIES", 50)
        with pytest.raises(CapExceeded, match=r"^net exceeded 50 entries at length 5$"):
            build_net(demo_1q_gate_set(), 8)
        monkeypatch.setattr(sk, "MAX_ENTRIES", 0)
        with pytest.raises(CapExceeded, match=r"^net exceeded 0 entries at length 1$"):
            build_net(kitaev_gate_set(), 3)
    assert len(build_net(kitaev_gate_set(), 0)) == 1


def test_nearest_finds_generators_and_validates():
    net = build_net(kitaev_gate_set(), 2)
    h0 = net.gateset.matrix("H0")
    e = nearest(net, h0)
    assert e.seq == ("H0",)
    with pytest.raises(ValidationError):
        nearest(net, np.eye(2))
    with pytest.raises(ValidationError):
        nearest(Net(net.gateset, 0, 1e-4, [], np.empty((0, 4, 4), dtype=complex)), np.eye(4))


@pytest.mark.parametrize("gateset,length", [(kitaev_gate_set, 4), (demo_1q_gate_set, 10)])
def test_net_stack_is_one_read_only_array(gateset, length):
    built = build_net(gateset(), length)
    for net in (built, io.parse_net(io.emit_net(built))):
        assert not net.stack.flags.writeable
        with pytest.raises(ValueError):
            net.stack[0, 0, 0] = 0
        assert len(net.entries) == len(net.seqs) == len(net.stack) == len(net)
        for e, seq, m in zip(net.entries, net.seqs, net.stack):
            assert e.seq == seq and e.length == len(seq)
            assert e.matrix.tobytes() == m.tobytes()
    with pytest.raises(ValidationError, match="does not hold"):
        Net(built.gateset, length, 1e-4, built.seqs[:-1], built.stack)


@pytest.mark.parametrize("dim_fixture", ["demo12", "kitaev_small"])
def test_nearest_matches_linear_scan_oracle(request, dim_fixture):
    if dim_fixture == "demo12":
        net = request.getfixturevalue("demo12")
    else:
        net = build_net(kitaev_gate_set(), 4)
    rng = np.random.default_rng(20)
    for _ in range(15):
        u = haar_unitary(net.gateset.dim, rng)
        k, achieved = _nearest(net, u)
        brute = min(dist(e.matrix, u) for e in net.entries)
        assert achieved == pytest.approx(brute, abs=1e-9)
        assert dist(net.stack[k], u) == pytest.approx(brute, abs=1e-9)


@pytest.mark.parametrize("kind,want", [("X", ("H0",)), ("Z", ("H0",)), ("S", ()), ("SDG", ())])
def test_nearest_breaks_exact_ties_by_length(kitaev8, kind, want):
    # Each target sits at 2 sin(pi/8) from several entries of different
    # lengths; the shortest must win however the distances round, and a
    # global phase on the target changes how they round.
    for phase in (0.0, -0.7, 2.5):
        u = np.exp(1j * phase) * np.kron(gate_matrix(kind), np.eye(2))
        k, achieved = _nearest(kitaev8, u)
        assert kitaev8.seqs[k] == want
        assert achieved == pytest.approx(2 * np.sin(np.pi / 8), abs=1e-12)
        assert nearest(kitaev8, u).seq == want


def test_nearest_breaks_rounded_ties_by_length_at_dimension_2():
    # diag(1, e^{i pi/8}) lies halfway between I and T, and a global phase
    # on the target changes which of the two distances rounds lower; the
    # empty word must win either way.
    net = build_net(demo_1q_gate_set(), 3)
    for phase in (0.0, -0.7, 1.0, 2.5):
        u = np.exp(1j * phase) * np.diag([1, np.exp(1j * np.pi / 8)])
        k, achieved = _nearest(net, u)
        assert net.seqs[k] == ()
        assert achieved == pytest.approx(2 * np.sin(np.pi / 32), abs=1e-12)


def test_nearest_finds_exact_hits_up_to_phase(kitaev8):
    rng = np.random.default_rng(28)
    for i in rng.choice(len(kitaev8), size=12, replace=False):
        e = kitaev8.entries[i]
        u = np.exp(1j * rng.uniform(0, 2 * np.pi)) * e.matrix
        got, achieved = _nearest(kitaev8, u)
        assert achieved < 1e-12
        assert kitaev8.seqs[got] == e.seq


GOLDEN_NEAREST = Path(__file__).parent / "data" / "nearest.json"


def golden_targets(net, seed):
    """Seeded search targets: Haar unitaries, near-identity rotations with
    angles 1e-7 to 0.5, and net entries times a global phase (exact hits)."""
    rng = np.random.default_rng(seed)
    d = net.dim
    targets = [haar_unitary(d, rng) for _ in range(40)]
    for angle in np.geomspace(1e-7, 0.5, 40):
        q = haar_unitary(d, rng)
        phases = angle * rng.uniform(-1, 1, size=d)
        targets.append((q * np.exp(1j * phases)) @ q.conj().T)
    for i in rng.choice(len(net), size=40, replace=False):
        targets.append(np.exp(1j * rng.uniform(0, 2 * np.pi)) * net.stack[i])
    return targets


@pytest.mark.parametrize("name", ["ht12", "kitaev8"])
def test_nearest_matches_golden_results_bitwise(name, demo12, kitaev8):
    # The expected (index, distance bits) are the output of the search as it
    # stood when the net also held a conjugated copy of its stack.
    net, seed = {"ht12": (demo12, 12), "kitaev8": (kitaev8, 8)}[name]
    want = json.loads(GOLDEN_NEAREST.read_text())[name]
    got = [[k, d.hex()] for k, d in (_nearest(net, u) for u in golden_targets(net, seed))]
    assert got == want


@pytest.mark.parametrize("name", ["ht12", "kitaev8"])
def test_phase_fixed_nearest_matches_exhaustive_search(name, demo12, kitaev8):
    # The oracle takes ||e - u||_2 of every entry, with no bound to prune
    # by, and the same tie rule: shorter, then lexicographically first.
    net, seed = {"ht12": (demo12, 12), "kitaev8": (kitaev8, 8)}[name]
    targets = golden_targets(net, seed)[::4]
    targets.append(np.exp(0.3j) * np.diag([1, 1, 1, -1])[: net.dim, : net.dim])
    for u in targets:
        norms = np.linalg.norm(net.stack - u, ord=2, axis=(1, 2))
        ties = np.flatnonzero(norms <= norms.min() + 1e-12)
        want = min(ties.tolist(), key=lambda k: (len(net.seqs[k]), net.seqs[k]))
        got, achieved = _nearest(net, u, phase_fixed=True)
        assert got == want
        assert achieved == pytest.approx(norms[want], abs=1e-15)
        # The phase-fixed distance never undercuts the phase-free one.
        assert achieved >= _nearest(net, u)[1] - 1e-15


def test_build_net_validates_arguments():
    with pytest.raises(ValidationError, match="max_length"):
        build_net(demo_1q_gate_set(), -1)
    for tol in (0.0, -1e-4, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="dedupe_tol must be positive"):
            build_net(demo_1q_gate_set(), 4, dedupe_tol=tol)


def test_nearest_rejects_non_unitary_target(kitaev8):
    with pytest.raises(ValidationError):
        nearest(kitaev8, 2 * np.eye(4))


def test_covering_radius_shrinks_with_length(demo12):
    rng = np.random.default_rng(21)
    probes = [haar_unitary(2, rng) for _ in range(40)]
    demo8 = build_net(demo_1q_gate_set(), 8)
    r8 = max(_nearest(demo8, p)[1] for p in probes)
    r12 = max(_nearest(demo12, p)[1] for p in probes)
    assert 0 < r12 <= r8 < 2.0


# --- balanced group commutator -------------------------------------------

def rotation(axis, angle):
    sig = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    axis = np.asarray(axis) / np.linalg.norm(axis)
    na = sum(a * s for a, s in zip(axis, sig))
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * na


def random_small_rotation(rng, max_dist):
    axis = rng.normal(size=3)
    angle = rng.uniform(0, 4 * np.arcsin(max_dist / 2))
    return rotation(axis, angle)


SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def sigma_sum_rotation(axis, angle):
    """Reference: cos(angle/2) I - i sin(angle/2) (x X + y Y + z Z), formed
    as a sum of Pauli matrices in numpy, the way gc_decompose once did."""
    na = axis[0] * SIGMA[0] + axis[1] * SIGMA[1] + axis[2] * SIGMA[2]
    return np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * na


def test_rotation_matches_sigma_sum_bitwise():
    rng = np.random.default_rng(31)
    axes = rng.normal(size=(20_000, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(0.0, np.pi, size=20_000)
    for axis, angle in zip(axes, angles):
        want = sigma_sum_rotation(axis, angle)
        assert _rotation(axis.tolist(), angle).tobytes() == want.tobytes()


def test_commutator_identity_input():
    v, w = gc_decompose(np.eye(2))
    assert np.array_equal(v, np.eye(2))
    assert np.array_equal(w, np.eye(2))


def test_commutator_residuals_on_random_rotations():
    rng = np.random.default_rng(22)
    for _ in range(100):
        delta = random_small_rotation(rng, 0.3)
        v, w = gc_decompose(delta)
        residual = dist(delta, v @ w @ v.conj().T @ w.conj().T)
        assert residual <= 1e-10


@pytest.mark.parametrize("angle", [1e-9, 1e-6, 1e-4, 1e-2])
def test_commutator_residuals_on_tiny_rotations(angle):
    # Near identity the angle must come from a well-conditioned formula:
    # arccos of the trace is off by about eps/angle, which at 1e-6 already
    # exceeds the default residual tolerance.
    rng = np.random.default_rng(29)
    for _ in range(20):
        delta = rotation(rng.normal(size=3), angle)
        v, w = gc_decompose(delta)
        residual = dist(delta, v @ w @ v.conj().T @ w.conj().T)
        assert residual <= 1e-12


def test_commutator_halves_are_balanced_and_orthogonal():
    rng = np.random.default_rng(23)
    for _ in range(25):
        delta = random_small_rotation(rng, 0.3)
        v, w = gc_decompose(delta)
        tv, av = _angle_axis(_to_su2(v))
        tw, aw = _angle_axis(_to_su2(w))
        assert tv == pytest.approx(tw, abs=1e-9)
        assert abs(float(np.dot(av, aw))) < 1e-8


@pytest.mark.parametrize("theta", [1e-6, 0.3, 1.0])
def test_commutator_on_coordinate_and_commutator_axes(theta):
    # The coordinate axes, and the axis of the commutator of rotations by
    # the target's own phi about x and y, (s, -s, c) / r, either way round.
    phi = 2 * np.arcsin(np.sqrt(np.sin(theta / 4)))
    s, c = np.sin(phi / 2), np.cos(phi / 2)
    own = np.array([s, -s, c]) / np.sqrt(1 + s * s)
    axes = [sign * e for e in (*np.eye(3), own) for sign in (1, -1)]
    for axis in axes:
        delta = rotation(axis, theta)
        v, w = gc_decompose(delta)
        assert dist(delta, v @ w @ v.conj().T @ w.conj().T) <= COMMUTATOR_TOL
        tv, av = _angle_axis(_to_su2(v))
        tw, aw = _angle_axis(_to_su2(w))
        assert tv == pytest.approx(phi, abs=1e-12)
        assert tw == pytest.approx(phi, abs=1e-12)
        assert abs(float(np.dot(av, aw))) < 1e-12


def test_commutator_halves_scale_like_square_root():
    rng = np.random.default_rng(24)
    for _ in range(100):
        delta = random_small_rotation(rng, 0.04)
        gap = dist(delta, np.eye(2))
        v, w = gc_decompose(delta)
        for half in (v, w):
            assert dist(half, np.eye(2)) <= 4.0 * np.sqrt(gap) + 1e-12


def test_commutator_preconditions():
    with pytest.raises(ValidationError):
        gc_decompose(rotation([0, 0, 1], 2.5))
    with pytest.raises(ValidationError):
        gc_decompose(np.eye(4))
    with pytest.raises(ValidationError):
        gc_decompose(np.array([[1, 1], [0, 1]], dtype=complex))


def test_commutator_threshold_agrees_with_dist():
    # dist(delta, I) = 2 sin(theta/4) reaches GC_MAX_DIST at the angle
    # below; a hair either side, gc_decompose refuses exactly the rotations
    # that dist puts above the threshold, whatever the axis or global phase.
    edge = 4 * np.arcsin(GC_MAX_DIST / 2)
    refused = []
    for angle in (edge - 1e-6, edge + 1e-6):
        for axis in ([0, 0, 1], [1, -2, 0.5]):
            delta = np.exp(0.7j) * rotation(axis, angle)
            above = dist(delta, np.eye(2)) > GC_MAX_DIST
            refused.append(above)
            if above:
                with pytest.raises(ValidationError, match="dist"):
                    gc_decompose(delta)
            else:
                v, w = gc_decompose(delta)
                assert dist(delta, v @ w @ v.conj().T @ w.conj().T) <= COMMUTATOR_TOL
    assert refused == [False, False, True, True]


def test_commutator_residual_check_catches_a_perturbed_rotation(monkeypatch):
    # One entry of each rotation off by 1e-8 leaves a commutator about
    # 1e-8 from delta, above COMMUTATOR_TOL, which the check must refuse.
    real_rotation = sk._rotation

    def perturbed(axis, angle):
        r = real_rotation(axis, angle)
        r[0, 0] += 1e-8
        return r

    delta = rotation([1, -2, 0.5], 0.3)
    gc_decompose(delta)
    monkeypatch.setattr(sk, "_rotation", perturbed)
    with pytest.raises(CompileError, match="group commutator residual"):
        gc_decompose(delta)


# --- recursion ------------------------------------------------------------

def test_config_validation(demo12):
    for eps in (0.0, float("nan")):
        with pytest.raises(ValidationError):
            SKConfig(net=demo12, eps=eps)
    with pytest.raises(ValidationError):
        SKConfig(net=demo12, depth=-1)


def test_generator_target_is_a_single_label(demo12):
    h = demo12.gateset.matrix("H")
    seq, achieved = sk_approx(h, SKConfig(net=demo12, eps=1e-6, depth=0))
    assert seq == ("H",)
    assert achieved < 1e-12


def test_trace_is_monotone_and_self_consistent(demo12):
    rng = np.random.default_rng(25)
    cfg = SKConfig(net=demo12, eps=1e-12, depth=3)
    for _ in range(8):
        u = haar_unitary(2, rng)
        trace = sk_trace(u, cfg)
        assert len(trace) == 4
        ds = [d for _, d in trace]
        assert all(ds[k + 1] <= ds[k] for k in range(3))
        for seq, achieved in trace:
            m = demo12.gateset.evaluate(seq)
            assert dist(m, u) <= achieved + 1e-9
            assert len(seq) <= demo12.max_length * 5 ** 3


def test_depth_zero_trace_is_net_lookup(demo12):
    u = haar_unitary(2, np.random.default_rng(26))
    k, d0 = _nearest(demo12, u)
    trace = sk_trace(u, SKConfig(net=demo12, eps=1.0, depth=0))
    assert trace == [(demo12.seqs[k], d0)]


def test_budget_failure_carries_best(demo12):
    u = haar_unitary(2, np.random.default_rng(27))
    with pytest.raises(BudgetNotMet) as e:
        sk_approx(u, SKConfig(net=demo12, eps=1e-9, depth=0))
    assert e.value.best_seq is not None
    assert e.value.achieved > 1e-9


def test_trace_rejects_wrong_dimension(kitaev8):
    with pytest.raises(ValidationError):
        sk_trace(np.eye(4), SKConfig(net=kitaev8, eps=0.1, depth=1))


def test_trace_rejects_non_unitary_target(demo12):
    with pytest.raises(ValidationError, match="^target must be unitary$"):
        sk_trace(np.diag([1.0, 2.0]), SKConfig(net=demo12, eps=0.1, depth=1))


def test_refinement_keeps_a_word_it_cannot_improve(monkeypatch):
    calls = []
    decompose = sk.gc_decompose
    monkeypatch.setattr(sk, "gc_decompose", lambda d: calls.append(d) or decompose(d))
    h = gate_matrix(GateKind.H)
    net0, net2 = build_net(demo_1q_gate_set(), 0), build_net(demo_1q_gate_set(), 2)
    # An exact word, and one farther than GC_MAX_DIST, are kept untried.
    assert sk_trace(h, SKConfig(net=net2, eps=0.1, depth=2)) == [(("H",), 0.0)] * 3
    assert sk_trace(h, SKConfig(net=net0, eps=0.1, depth=1)) == [((), 2**0.5)] * 2
    assert calls == []
    # On the length-2 net the commutator of two coarse approximations lands
    # farther from this target than the depth-0 word does, so depth 1 keeps
    # that word and its distance.
    rng = np.random.default_rng(1)
    haar_unitary(2, rng)
    u = haar_unitary(2, rng)
    trace = sk_trace(u, SKConfig(net=net2, eps=0.1, depth=1))
    assert trace == [(("TDG", "H"), 0.3210629150055901)] * 2
    assert len(calls) == 1


def test_hadamard_phase_pair_saturates():
    # {H, S} on one qubit generates a finite group: 24 classes up to phase.
    gs = GateSet(
        name="hs1",
        n_qubits=1,
        generators=(
            ("H", Gate(GateKind.H, (0,))),
            ("S", Gate(GateKind.S, (0,))),
        ),
    )
    n10 = build_net(gs, 10)
    n13 = build_net(gs, 13)
    assert len(n10) == len(n13) == 24


GOLDEN_SK_TRACE = Path(__file__).parent / "data" / "sk_trace.json"
# One letter per label in the recorded words.
SK_LETTERS = {"H": "H", "T": "T", "TDG": "D"}


def test_sk_trace_matches_recorded_outputs_bitwise(demo12):
    # Recorded from the recursion as it stood before gc_decompose, is_unitary
    # and the 2x2 dist were computed on Python scalars.  Each depth's word
    # is a prefix of the deepest one, so a target stores its deepest word,
    # the word length at every depth and the achieved distances' bits.
    doc = json.loads(GOLDEN_SK_TRACE.read_text())
    for run in doc.values():
        rng = np.random.default_rng(run["seed"])
        cfg = SKConfig(net=demo12, depth=run["depth"])
        for want in run["targets"]:
            trace = sk_trace(haar_unitary(2, rng), cfg)
            words = ["".join(SK_LETTERS[label] for label in seq) for seq, _ in trace]
            assert words == [want["word"][:n] for n in want["lengths"]]
            assert [a.hex() for _, a in trace] == want["achieved"]
