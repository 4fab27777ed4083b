"""Dense complex matrix helpers.

Matrices are plain complex128 numpy arrays of shape (2**k, 2**k).
`dist` is the phase-invariant operator-norm metric used everywhere in this
package: dist(a, b) = min over phi of the largest singular value of
a - exp(i*phi)*b.  It is a pseudometric on unitaries (zero iff the two
matrices agree up to global phase), computed from the eigenphases of
a^dag b by `phase_dist`, which also takes whole stacks at once.

2x2 inputs, the single-qubit recursion's, take closed forms on Python
scalars read through .tolist(): `is_unitary` compares the four entries of
m^dag m - I one by one, so a NaN or infinite entry fails, and `dist` folds
the eigenphases of a^dag b from its trace and determinant.
`aligned_frob_2x2` bounds the 2x2 `dist` from above with no eigensolver.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

ATOL = 1e-10
# Unitarity tolerance of `dist`, and the norm bound on every state the
# simulator in `verify` computes.  Loose enough for long products of gates
# validated at ATOL; tight enough that the eigenphase formula, which says
# nothing about the norm of a non-unitary matrix, is never applied to one.
UNITARY_TOL = 1e-6
# Smallest 2x2 distance taken from the closed form, here and in the batched
# nearest-entry search of `sk`; nearer pairs go through the eigenphases.
CLOSED_FORM_MIN = 1e-5


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
    """Whether every entry of m^dag m - I has modulus <= tol.

    A 2x2 input takes the four entries in closed form on Python scalars;
    each is compared on its own, so a NaN or infinite entry fails.  A
    larger input with a non-finite entry fails before the product, which
    would warn on inf * 0.
    """
    m = as_matrix(m)
    if m.shape[0] == 2:
        (a, b), (c, d) = m.tolist()
        ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
        return (
            abs(ac * a + cc * c - 1.0) <= tol
            and abs(ac * b + cc * d) <= tol
            and abs(bc * a + dc * c) <= tol
            and abs(bc * b + dc * d - 1.0) <= tol
        )
    if not np.isfinite(m).all():
        return False
    eye = np.eye(m.shape[0])
    return bool(np.max(np.abs(m.conj().T @ m - eye)) <= tol)


def phase_dist(m) -> np.ndarray:
    """2 sin(W/4) for a stack of unitaries m of shape (..., d, d).

    W is the width of the smallest arc that holds the eigenphases of each
    matrix: 2 pi minus the largest circular gap between sorted phases.
    For m = a^dag b this is dist(a, b), since centering the global phase on
    that arc makes the largest |1 - e^{i(theta - phi)}| equal 2 sin(W/4).
    """
    phases = np.sort(np.angle(np.linalg.eigvals(m)), axis=-1)
    gaps = np.diff(phases, axis=-1, append=phases[..., :1] + 2.0 * np.pi)
    width = np.maximum(2.0 * np.pi - gaps.max(axis=-1), 0.0)
    return 2.0 * np.sin(width / 4.0)


def dist(a, b) -> float:
    """min over phi of || a - exp(i*phi) b ||_2 (largest singular value).

    Both inputs must be unitary to UNITARY_TOL; for unitaries the minimum is
    the eigenphase arc formula of `phase_dist` applied to a^dag b.  2x2
    pairs take a cheaper closed form: a^dag b has eigenphases that fold to
    +-psi with |cos psi| = |tr| / (2 sqrt(|det|)), giving 2 sin(psi/2).
    """
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not (is_unitary(a, UNITARY_TOL) and is_unitary(b, UNITARY_TOL)):
        raise ValidationError("dist is defined on unitary matrices only")
    if a.shape[0] == 2:
        fast = _dist_2x2_unitary(a, b)
        # The closed form loses absolute accuracy like eps/dist near zero
        # (the value lives in a cancellation of tr against 2*sqrt(det)), so
        # only trust it away from zero; the eigenphases stay accurate to
        # ~1e-16 absolutely.
        if fast >= CLOSED_FORM_MIN:
            return fast
    return float(phase_dist(a.conj().T @ b))


def _dist_2x2_unitary(a: np.ndarray, b: np.ndarray) -> float:
    (a00, a01), (a10, a11) = a.conjugate().tolist()
    (b00, b01), (b10, b11) = b.tolist()
    m00 = a00 * b00 + a10 * b10
    m01 = a00 * b01 + a10 * b11
    m10 = a01 * b00 + a11 * b10
    m11 = a01 * b01 + a11 * b11
    tr = abs(m00 + m11)
    det = abs(m00 * m11 - m01 * m10)
    folded = min(1.0, tr / (2.0 * math.sqrt(det)))
    return math.sqrt(max(0.0, 2.0 - 2.0 * folded))


def aligned_frob_2x2(a: np.ndarray, b: np.ndarray) -> float:
    """||a - p b||_F for 2x2 a and b, with p the phase of tr(b^dag a), or 1
    when that trace is 0, on Python scalars.

    p is the phase that minimizes the Frobenius distance, and the Frobenius
    norm bounds the largest singular value, so for unitaries this is an
    upper bound on dist(a, b), found with no eigensolver.
    """
    a_ = a.ravel().tolist()
    b_ = b.ravel().tolist()
    t = sum(y.conjugate() * x for x, y in zip(a_, b_))
    p = t / abs(t) if t else 1.0
    return math.sqrt(sum(abs(x - p * y) ** 2 for x, y in zip(a_, b_)))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unitary from the QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q @ np.diag(r.diagonal() / np.abs(r.diagonal()))
