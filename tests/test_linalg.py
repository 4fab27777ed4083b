import math
import warnings

import numpy as np
import pytest

from threbase import Gate, GateKind, dist, haar_unitary, is_unitary, phase_dist
from threbase.linalg import ATOL, UNITARY_TOL, _dist_2x2_unitary, aligned_frob_2x2, as_matrix
from threbase.errors import ValidationError

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def eigenphase_dist(a, b):
    """Smallest arc containing the eigenphases of a^dag b.

    The phase-minimized distance is 2 sin(W/4) where W is the width of that
    arc, found through the largest circular gap between sorted eigenphases.
    This is the formula `dist` itself uses, so `grid_dist` below is the
    independent oracle; this one still pins the 2x2 closed form.
    """
    phases = np.sort(np.angle(np.linalg.eigvals(a.conj().T @ b)))
    gaps = np.diff(np.concatenate([phases, [phases[0] + 2 * np.pi]]))
    width = 2 * np.pi - gaps.max()
    return 2 * math.sin(width / 4)


def grid_dist(a, b, k=20001):
    """Independent oracle: the largest singular value on a dense phase grid."""
    phis = np.arange(k) * (2 * np.pi / k)
    diffs = a[None] - np.exp(1j * phis)[:, None, None] * b[None]
    return float(np.linalg.svd(diffs, compute_uv=False)[:, 0].min())


def frob_phase_dist(a, b):
    """Phase-minimized Frobenius distance; for unitaries it brackets dist."""
    overlap = abs(np.einsum("ij,ij->", a.conj(), b))
    return float(np.sqrt(max(2.0 * a.shape[0] - 2.0 * overlap, 0.0)))


def test_exact_anchor_values():
    assert dist(I2, X) == pytest.approx(math.sqrt(2), abs=1e-14)
    assert dist(H, X) == pytest.approx(math.sqrt(2 - math.sqrt(2)), abs=1e-14)
    t = np.diag([1, np.exp(1j * np.pi / 4)])
    assert dist(I2, t) == pytest.approx(2 * math.sin(np.pi / 16), abs=1e-14)


def test_phase_equal_matrices_have_zero_distance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = haar_unitary(4, rng)
        assert dist(u, np.exp(1j * rng.uniform(0, 2 * np.pi)) * u) < 1e-12


def test_dist_matches_eigenphase_oracle_dim2():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b = haar_unitary(2, rng), haar_unitary(2, rng)
        assert dist(a, b) == pytest.approx(eigenphase_dist(a, b), abs=1e-10)


def test_dist_matches_eigenphase_oracle_dim4():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = haar_unitary(4, rng), haar_unitary(4, rng)
        assert dist(a, b) == pytest.approx(eigenphase_dist(a, b), abs=1e-9)


def test_dist_beats_every_grid_sample():
    rng = np.random.default_rng(4)
    for dim in (2, 4):
        for _ in range(10):
            a, b = haar_unitary(dim, rng), haar_unitary(dim, rng)
            g = grid_dist(a, b)
            d = dist(a, b)
            assert d <= g + 1e-12
            assert abs(d - g) <= 2 * np.pi / 20001


def test_dist_is_symmetric_and_unitarily_invariant():
    rng = np.random.default_rng(5)
    a, b = haar_unitary(2, rng), haar_unitary(2, rng)
    w = haar_unitary(2, rng)
    assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-12)
    assert dist(w @ a, w @ b) == pytest.approx(dist(a, b), abs=1e-12)
    assert dist(a @ w, b @ w) == pytest.approx(dist(a, b), abs=1e-12)


def test_dist_dimension_mismatch():
    with pytest.raises(ValidationError):
        dist(I2, np.eye(4))


def test_closed_form_agrees_with_scan_path():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a, b = haar_unitary(2, rng), haar_unitary(2, rng)
        fast = dist(a, b)
        g = grid_dist(a, b)
        assert fast <= g + 1e-12
        assert g - fast <= np.pi / 20001
        assert fast == pytest.approx(eigenphase_dist(a, b), abs=1e-12)


def test_frobenius_distance_brackets_spectral():
    rng = np.random.default_rng(7)
    for dim in (2, 4):
        for _ in range(30):
            a, b = haar_unitary(dim, rng), haar_unitary(dim, rng)
            d, f = dist(a, b), frob_phase_dist(a, b)
            assert f / math.sqrt(dim) - 1e-12 <= d <= f + 1e-12


@pytest.mark.parametrize("dim,k", [(8, 4001), (16, 1001)])
def test_dist_beats_every_grid_sample_at_larger_dimensions(dim, k):
    rng = np.random.default_rng(8 + dim)
    for _ in range(4):
        a, b = haar_unitary(dim, rng), haar_unitary(dim, rng)
        g = grid_dist(a, b, k)
        d = dist(a, b)
        assert d <= g + 1e-12
        assert g - d <= 2 * np.pi / k


@pytest.mark.parametrize("dim", [8, 16])
def test_phase_equal_matrices_have_zero_distance_at_larger_dimensions(dim):
    rng = np.random.default_rng(30 + dim)
    for _ in range(10):
        u = haar_unitary(dim, rng)
        assert dist(np.exp(1j * rng.uniform(0, 2 * np.pi)) * u, u) < 1e-12


def test_phase_dist_takes_a_stack():
    rng = np.random.default_rng(11)
    pairs = [(haar_unitary(4, rng), haar_unitary(4, rng)) for _ in range(6)]
    stack = np.stack([a.conj().T @ b for a, b in pairs])
    got = phase_dist(stack)
    assert got.shape == (6,)
    for g, (a, b) in zip(got, pairs):
        assert g == pytest.approx(grid_dist(a, b), abs=2 * np.pi / 20001)
    assert phase_dist(np.eye(4)) == 0.0


def test_dist_rejects_non_unitary_inputs():
    m = np.diag([1.0, 1.0, 1.0, 1.1]).astype(complex)
    with pytest.raises(ValidationError):
        dist(m, np.eye(4))
    with pytest.raises(ValidationError):
        dist(I2, np.array([[1, 1], [0, 1]], dtype=complex))
    # Products of validated gates drift far less than the tolerance.
    assert dist(np.eye(4) * (1 + 1e-9), np.eye(4)) < 1e-12


def test_haar_unitary_is_unitary_and_seeded():
    rng = np.random.default_rng(9)
    for dim in (2, 4, 8):
        u = haar_unitary(dim, rng)
        assert is_unitary(u)
    a = haar_unitary(4, np.random.default_rng(10))
    b = haar_unitary(4, np.random.default_rng(10))
    assert np.array_equal(a, b)


def test_is_unitary_rejects_non_unitary():
    assert not is_unitary(np.array([[1, 0], [0, 2]], dtype=complex))
    assert is_unitary(np.exp(0.4j) * H)


def dense_is_unitary(m, tol):
    """Reference: the largest entry of |m^dag m - I|, as numpy forms it."""
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(len(m)))) <= tol)


@pytest.mark.parametrize("tol", [ATOL, UNITARY_TOL])
def test_is_unitary_2x2_decides_as_the_dense_formula(tol):
    # Seeded unitaries, then perturbations that move m^dag m - I to about
    # tol / 2 and 2 tol: a scaled column moves one diagonal entry, a
    # random additive term moves all four.
    rng = np.random.default_rng(41)
    decided = []
    for _ in range(200):
        u = haar_unitary(2, rng)
        cases = [u]
        for k in (0.5, 2.0):
            col = int(rng.integers(2))
            scale = np.ones(2)
            scale[col] = math.sqrt(1.0 + k * tol)
            cases.append(u * scale)
            r = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            cases.append(u + (k * tol / 2.0) * r / np.abs(r).max())
        for m in cases:
            want = dense_is_unitary(m, tol)
            assert is_unitary(m, tol) is want
            decided.append(want)
    assert any(decided) and not all(decided)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
@pytest.mark.parametrize("pos", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_is_unitary_2x2_refuses_non_finite_entries(bad, pos):
    # A NaN compares false against the tolerance, so max() over the four
    # entries could skip it; each entry is compared on its own.
    m = H.copy()
    m[pos] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_unitary(m)
        assert not is_unitary(m, UNITARY_TOL)
    assert not is_unitary(np.diag([1.0, bad]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, complex(0, math.inf), math.nan])
@pytest.mark.parametrize("dim", [4, 8])
def test_is_unitary_dense_refuses_non_finite_entries_without_warning(bad, dim):
    # inf * 0 in m^dag m warns "invalid value encountered in matmul"; the
    # dense branch rejects a non-finite entry before forming the product.
    m = np.eye(dim, dtype=complex)
    m[0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_unitary(m)
        assert not is_unitary(m, UNITARY_TOL)
        if dim == 4:
            with pytest.raises(ValidationError, match="not unitary"):
                Gate(GateKind.GENERIC, (0, 1), m)


def test_aligned_frobenius_bounds_dist():
    # gc_decompose judges its commutator residual by this bound, so it must
    # never read below dist: on Haar pairs, and on pairs a small rotation
    # apart, from 1e-9 to 1e-2 (the residual's own scale is far below).
    rng = np.random.default_rng(41)
    Y = np.array([[0, -1j], [1j, 0]])
    Z = np.diag([1.0, -1.0])
    for _ in range(200):
        a = haar_unitary(2, rng)
        b = haar_unitary(2, rng)
        assert aligned_frob_2x2(a, b) >= dist(a, b)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        t = 10 ** rng.uniform(-9, -2)
        r = math.cos(t / 2) * I2 - 1j * math.sin(t / 2) * (n[0] * X + n[1] * Y + n[2] * Z)
        near = np.exp(1j * rng.uniform(0, 2 * np.pi)) * r @ a
        assert aligned_frob_2x2(near, a) >= dist(near, a)
    # A zero trace leaves the phase at 1: X against Z.
    assert aligned_frob_2x2(X, Z) == 2.0 >= dist(X, Z)


def numpy_scalar_dist_2x2(a, b):
    """Reference: the closed form of _dist_2x2_unitary on numpy scalars."""
    m00 = a[0, 0].conjugate() * b[0, 0] + a[1, 0].conjugate() * b[1, 0]
    m01 = a[0, 0].conjugate() * b[0, 1] + a[1, 0].conjugate() * b[1, 1]
    m10 = a[0, 1].conjugate() * b[0, 0] + a[1, 1].conjugate() * b[1, 0]
    m11 = a[0, 1].conjugate() * b[0, 1] + a[1, 1].conjugate() * b[1, 1]
    tr = abs(m00 + m11)
    det = abs(m00 * m11 - m01 * m10)
    folded = min(1.0, tr / (2.0 * math.sqrt(det)))
    return math.sqrt(max(0.0, 2.0 - 2.0 * folded))


def test_dist_2x2_closed_form_matches_numpy_scalar_reference_bitwise():
    rng = np.random.default_rng(43)
    for _ in range(2000):
        a = haar_unitary(2, rng)
        # Near pairs as well as far ones: the closed form's cancellation
        # regime is where a changed rounding would show first.
        b = a @ haar_unitary(2, rng) if rng.random() < 0.5 else a * np.exp(1j * rng.normal())
        got = _dist_2x2_unitary(a, b)
        assert got.hex() == numpy_scalar_dist_2x2(a, b).hex()


@pytest.mark.parametrize(
    "shape, message",
    [
        ((2, 3), r"^expected a square matrix, got shape \(2, 3\)$"),
        ((4,), r"^expected a square matrix, got shape \(4,\)$"),
        ((3, 3), "^matrix dimension 3 is not a power of two$"),
        ((0, 0), "^matrix dimension 0 is not a power of two$"),
    ],
)
def test_as_matrix_refuses_bad_shapes(shape, message):
    with pytest.raises(ValidationError, match=message):
        as_matrix(np.zeros(shape))
