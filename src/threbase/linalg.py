"""Dense complex matrix helpers.

Matrices are plain complex128 numpy arrays of shape (2**k, 2**k).
`dist` is the phase-invariant operator-norm metric used everywhere in this
package: dist(a, b) = min over phi of the largest singular value of
a - exp(i*phi)*b.  It is a pseudometric on unitaries (zero iff the two
matrices agree up to global phase).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ValidationError

ATOL = 1e-10

# Coarse scan resolution for the phase minimization.  The refinement stage
# needs to report ~1e-15 distances for matrices that agree up to phase, so
# its tolerance sits near the float64 floor rather than at ATOL.
_SCAN_MIN = 64
_SCAN_MAX = 512
_REFINE_XATOL = 1e-13


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array, validating the shape."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    d = m.shape[0]
    if d < 1 or d & (d - 1):
        raise ValidationError(f"matrix dimension {d} is not a power of two")
    return m


def is_unitary(m, tol: float = ATOL) -> bool:
    m = as_matrix(m)
    eye = np.eye(m.shape[0])
    return bool(np.max(np.abs(m.conj().T @ m - eye)) <= tol)


def _spectral_norm(m: np.ndarray) -> float:
    if m.shape[-1] == 2:
        return float(_sigma_max_2x2(m))
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _sigma_max_2x2(m: np.ndarray) -> np.ndarray:
    # Largest singular value from the Gram matrix eigenvalues, closed form.
    t = np.sum(np.abs(m) ** 2, axis=(-2, -1))
    det2 = np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]) ** 2
    disc = np.sqrt(np.maximum(t * t - 4.0 * det2, 0.0))
    return np.sqrt(np.maximum(0.5 * (t + disc), 0.0))


def _dist_objective_2x2(a: np.ndarray, b: np.ndarray):
    # Scalar-arithmetic twin of _sigma_max_2x2; the golden-section loop
    # below calls this ~100 times per dist(), where numpy overhead dominates.
    a00, a01, a10, a11 = (complex(x) for x in a.ravel())
    b00, b01, b10, b11 = (complex(x) for x in b.ravel())

    def f(phi: float) -> float:
        e = cmath.exp(1j * phi)
        m00, m01 = a00 - e * b00, a01 - e * b01
        m10, m11 = a10 - e * b10, a11 - e * b11
        t = (
            m00.real**2 + m00.imag**2 + m01.real**2 + m01.imag**2
            + m10.real**2 + m10.imag**2 + m11.real**2 + m11.imag**2
        )
        det = m00 * m11 - m01 * m10
        disc = math.sqrt(max(t * t - 4.0 * (det.real**2 + det.imag**2), 0.0))
        return math.sqrt(max(0.5 * (t + disc), 0.0))

    return f


def frob_phase_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Phase-minimized Frobenius distance, in closed form.

    For unitaries it brackets `dist`: frob/sqrt(d) <= dist <= frob.  Used to
    prune nearest-neighbour scans; never a substitute for `dist` itself.
    """
    d = a.shape[0]
    overlap = abs(np.einsum("ij,ij->", a.conj(), b))
    return float(np.sqrt(max(2.0 * d - 2.0 * overlap, 0.0)))


def dist(a, b) -> float:
    """min over phi of || a - exp(i*phi) b ||_2 (largest singular value).

    Unitary 2x2 pairs take a closed form: a^dag b has eigenphases that fold
    to +-psi with |cos psi| = |tr| / (2 sqrt(|det|)), and centering the phase
    on the narrower arc gives 2 sin(psi/2).  Everything else goes through a
    coarse scan over [0, 2pi) plus bounded local refinement of every
    near-optimal scan point.
    """
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a.shape[0]
    if d == 2 and is_unitary(a, tol=1e-9) and is_unitary(b, tol=1e-9):
        fast = _dist_2x2_unitary(a, b)
        # The closed form loses absolute accuracy like eps/dist near zero
        # (the value lives in a cancellation of tr against 2*sqrt(det)), so
        # only trust it away from zero; the scan below subtracts matrices
        # elementwise and stays accurate to ~1e-15 absolutely.
        if fast >= _CLOSED_FORM_MIN:
            return fast
    k = min(max(_SCAN_MIN, 4 * d), _SCAN_MAX)
    phis = np.arange(k) * (2.0 * np.pi / k)
    diffs = a[None, :, :] - np.exp(1j * phis)[:, None, None] * b[None, :, :]
    if d == 2:
        vals = _sigma_max_2x2(diffs)
    else:
        vals = np.linalg.svd(diffs, compute_uv=False)[:, 0]
    step = 2.0 * np.pi / k

    if d == 2:
        f = _dist_objective_2x2(a, b)
    else:

        def f(phi: float) -> float:
            return _spectral_norm(a - np.exp(1j * phi) * b)

    # The scan objective is 1-Lipschitz in phi for unitary b, so any basin
    # holding the global minimum has a sample within `step` of the best one.
    best = float(vals.min())
    for i in np.nonzero(vals <= best + step)[0]:
        best = min(best, _golden_min(f, phis[i] - step, phis[i] + step))
    return best


_CLOSED_FORM_MIN = 1e-5


def _dist_2x2_unitary(a: np.ndarray, b: np.ndarray) -> float:
    m00 = a[0, 0].conjugate() * b[0, 0] + a[1, 0].conjugate() * b[1, 0]
    m01 = a[0, 0].conjugate() * b[0, 1] + a[1, 0].conjugate() * b[1, 1]
    m10 = a[0, 1].conjugate() * b[0, 0] + a[1, 1].conjugate() * b[1, 0]
    m11 = a[0, 1].conjugate() * b[0, 1] + a[1, 1].conjugate() * b[1, 1]
    tr = abs(m00 + m11)
    det = abs(m00 * m11 - m01 * m10)
    folded = min(1.0, tr / (2.0 * math.sqrt(det)))
    return math.sqrt(max(0.0, 2.0 - 2.0 * folded))


_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, xtol: float = _REFINE_XATOL) -> float:
    """Golden-section minimum of f on [lo, hi]; returns the best f seen.

    Hand-rolled because the minimum can sit in a non-smooth V (exactly
    phase-equal matrices), where parabolic-fit minimizers stall at ~1e-8.
    """
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best = min(f1, f2)
    while hi - lo > xtol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
        best = min(best, f1, f2)
    return best


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unitary from the QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q @ np.diag(r.diagonal() / np.abs(r.diagonal()))
