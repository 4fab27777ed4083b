"""Statevector simulation and circuit equivalence checks.

The simulator applies each gate as a local update on the amplitude tensor,
never forming the 2^n x 2^n embedded matrix.  Each distinct gate of a
circuit gets its matrix and its update plan once per simulation, and every
occurrence runs that plan.  A gate whose matrix is a permutation (one
entry per row, exactly 1: CCX, CNOT, X, or such a GENERIC matrix) copies
each slice it moves to its new place through basic-index views, with no
matmul and no full copy.  Any other gate is one transpose, planned with
its inverse, that puts the operand axes first, then a small matmul and the
inverse transpose.  When every gate matrix is real, as on every circuit
that `transpile --to th` emits, the state is float64 and the matmuls use
the real parts; otherwise it is complex.  The route follows from the
matrices, not from an option.  That keeps the simulator an independent
oracle against circuit_unitary, which gathers rows of a running matrix:
the two routes share no state-update or index code, so their agreement
is a real check rather than a tautology.

The tensor carries a trailing batch axis, shape (2,)*n + (B,), so one pass
over the gates applies the circuit to B basis inputs at once, and `run`
is a batch of one.

Realified circuits carry the ancilla as the last (least significant)
qubit, so a complex map U on n qubits is validated against
|i>|0> -> (Re U|i>)|0> + (Im U|i>)|1> for every basis input i.  Both
flag-qubit checks (realified and measurement-stats) read one loop,
`_flag_outputs`: it checks the tolerance, the widths and the cap, builds
U and yields its columns beside the simulated outputs in chunks of at
most BATCH_AMPLITUDES amplitudes, and each check turns a chunk into
deviations.  The realified check takes a whole chunk's deviation norms in
one stacked product, summed per input as np.linalg.norm sums one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .circuit import MAX_QUBITS, Circuit, _check_cap, circuit_unitary
from .errors import ValidationError
from .gates import gate_matrix
from .linalg import dist

NORM_ATOL = 1e-10
DEFAULT_TOL = 1e-10
# Cap on the amplitudes of one batched pass (inputs x 2**n): 4 MiB of
# complex128, so a complex pass holds about 12 MiB (the state, its moved
# copy and the matmul product) at any width, and a float64 pass half that.
# On a 12-qubit realified check, caps from 2**17 to 2**20 ran at the same
# speed per input; the cap bounds memory, not time.
BATCH_AMPLITUDES = 1 << 18


@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (2**self.n_qubits,):
            raise ValidationError(
                f"expected {2**self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValidationError(f"state norm {norm} is not 1 within {NORM_ATOL}")


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one equivalence check.

    kind is one of "exact-unitary", "realified", "measurement-stats".
    deviations has one entry per basis input (a single entry for the
    exact-unitary mode, which has no per-input structure), worst_input is
    the argmax, and passed holds exactly when max_deviation <= tolerance.
    """

    kind: str
    max_deviation: float
    deviations: tuple[float, ...]
    tolerance: float
    worst_input: int | None
    passed: bool

    def __post_init__(self):
        object.__setattr__(self, "deviations", tuple(self.deviations))
        expected = self.max_deviation <= self.tolerance
        if self.passed != expected:
            raise ValidationError("passed flag contradicts max_deviation vs tolerance")


def _check_tol(tol: float):
    # A NaN tolerance would fail every comparison and report "not
    # equivalent", which blames the circuits for a bad argument.
    if not tol >= 0:
        raise ValidationError(f"tol must be >= 0, got {tol}")


def _report(kind: str, deviations, tol: float, worst: int | None) -> EquivalenceReport:
    mx = float(max(deviations))
    return EquivalenceReport(kind, mx, tuple(deviations), tol, worst, mx <= tol)


def _slice_moves(m: np.ndarray, qubits: tuple[int, ...], n: int):
    """(destination, source) basic indices for a permutation matrix, else None.

    m is a permutation when each row has exactly one nonzero entry and that
    entry is exactly 1.  With as many nonzero entries as rows, a row that
    holds a 1 holds nothing else.  No two rows then take the same column:
    such an m has a zero column, so it is singular, and Gate refuses it as
    not unitary.
    Output slice r of the operand axes is then input slice src[r]; fixed
    points, where src[r] == r, need no move and are left out.
    """
    if np.count_nonzero(m) != len(m):
        return None
    try:
        src = [row.index(1) for row in m.tolist()]
    except ValueError:
        return None
    k = len(qubits)

    def index(r: int) -> tuple:
        # Local index r sets operand i to bit k-1-i of r: the first
        # operand is the most significant.
        idx = [slice(None)] * (n + 1)
        for i, q in enumerate(qubits):
            idx[q] = r >> (k - 1 - i) & 1
        return tuple(idx)

    return [(index(r), index(s)) for r, s in enumerate(src) if r != s]


def _apply_moves(moves, psi: np.ndarray) -> np.ndarray:
    # Copy every source before writing any destination, so a slice that is
    # both read and written is read as it was.
    slabs = [psi[src].copy() for _, src in moves]
    for (dst, _), slab in zip(moves, slabs):
        psi[dst] = slab
    return psi


def _apply_matrix(m: np.ndarray, front: tuple, back: tuple, psi: np.ndarray) -> np.ndarray:
    # front puts the operand axes first and back undoes it: the same views
    # as np.moveaxis there and back, so the copy and the matmul are too.
    moved = psi.transpose(front)
    shape = moved.shape
    moved = m @ moved.reshape(len(m), -1)
    return moved.reshape(shape).transpose(back)


def _plan(m: np.ndarray, qubits: tuple[int, ...], n: int, real: bool):
    """One gate's update psi -> psi': slice moves when m is a permutation,
    else a matmul by m (its real part on a float64 state) between the
    transpose that puts the operand axes first and its inverse."""
    moves = _slice_moves(m, qubits, n)
    if moves is not None:
        return partial(_apply_moves, moves)
    front = qubits + tuple(a for a in range(n + 1) if a not in qubits)
    back = tuple(np.argsort(front).tolist())
    return partial(_apply_matrix, m.real if real else m, front, back)


def _simulate(c: Circuit, basis_indices: np.ndarray) -> np.ndarray:
    """Output states for a batch of basis inputs, one column per input.

    The columns are float64 when every gate matrix of c is real, complex
    otherwise.  Each distinct gate gets its matrix and its plan once.
    Raises ValidationError when a column's norm is off 1 by more than
    NORM_ATOL.
    """
    n = c.n_qubits
    batch = len(basis_indices)
    mats = {g: gate_matrix(g) for g in dict.fromkeys(c.gates)}
    real = not any(np.any(m.imag) for m in mats.values())
    plans = {g: _plan(m, g.qubits, n, real) for g, m in mats.items()}
    psi = np.zeros((2**n, batch), dtype=float if real else complex)
    psi[basis_indices, np.arange(batch)] = 1.0
    psi = psi.reshape((2,) * n + (batch,))
    for g in c.gates:
        psi = plans[g](psi)
    out = psi.reshape(2**n, batch)
    norms = np.linalg.norm(out, axis=0)
    bad = np.flatnonzero(np.abs(norms - 1.0) > NORM_ATOL)
    if bad.size:
        j = int(bad[0])
        raise ValidationError(
            f"state norm {float(norms[j])} for input {int(basis_indices[j])} "
            f"is not 1 within {NORM_ATOL}"
        )
    return out


def run(c: Circuit, basis_index: int, max_qubits: int = MAX_QUBITS) -> StateVector:
    """Apply the circuit to a computational basis state."""
    _check_cap(c.n_qubits, max_qubits)
    n = c.n_qubits
    if not 0 <= basis_index < 2**n:
        raise ValidationError(
            f"basis index {basis_index} out of range for {n} qubits"
        )
    return StateVector(n, _simulate(c, np.array([basis_index]))[:, 0])


def check_exact(
    a: Circuit, b: Circuit, tol: float = DEFAULT_TOL, max_qubits: int = MAX_QUBITS
) -> EquivalenceReport:
    """Phase-insensitive unitary distance between two circuits."""
    _check_tol(tol)
    if a.n_qubits != b.n_qubits:
        raise ValidationError(
            f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}"
        )
    d = dist(circuit_unitary(a, max_qubits), circuit_unitary(b, max_qubits))
    return _report("exact-unitary", [d], tol, None)


def _flag_outputs(original: Circuit, realified: Circuit, tol: float, max_qubits: int):
    """Yield (U columns, outputs) for the flag-qubit checks, in chunks of at
    most BATCH_AMPLITUDES amplitudes.

    U is the original's unitary; outputs[:, j] is the realified circuit
    applied to |i>|0>, where i is the index of U's j-th column in the chunk.
    The tolerance, the widths and the cap are checked first, in that order.
    """
    _check_tol(tol)
    if realified.n_qubits != original.n_qubits + 1:
        raise ValidationError(
            f"realified circuit must have exactly one extra qubit: "
            f"{original.n_qubits} -> {realified.n_qubits}"
        )
    # The wider circuit sets the limit; checking it before circuit_unitary
    # means an original at the cap fails before its 2**n unitary is built.
    _check_cap(realified.n_qubits, max_qubits)
    u = circuit_unitary(original, max_qubits)
    size = max(1, BATCH_AMPLITUDES >> realified.n_qubits)
    for start in range(0, u.shape[1], size):
        cols = u[:, start : start + size]
        yield cols, _simulate(realified, 2 * np.arange(start, start + cols.shape[1]))


def check_realified(
    original: Circuit,
    realified: Circuit,
    tol: float = DEFAULT_TOL,
    max_qubits: int = MAX_QUBITS,
) -> EquivalenceReport:
    """Basis-by-basis check of |i>|0> -> (Re U|i>)|0> + (Im U|i>)|1>."""
    deviations = []
    for u, got in _flag_outputs(original, realified, tol, max_qubits):
        expected = np.empty(got.shape)
        expected[0::2] = u.real
        expected[1::2] = u.imag
        # One contiguous complex row per input, whatever the chunk size and
        # the simulator's route, so each input's sum of squares runs in the
        # same order and deviations (and the argmax among near-equal ones)
        # do not depend on BATCH_AMPLITUDES.  The stacked (1, R) @ (R, 1)
        # products take the same strided dot over the real and imaginary
        # parts as np.linalg.norm on each row, bit for bit.
        diff = np.ascontiguousarray((got - expected).T, dtype=complex)
        re, im = diff.real[:, None, :], diff.imag[:, None, :]
        sq = re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2)
        deviations += np.sqrt(sq[:, 0, 0]).tolist()
    return _report("realified", deviations, tol, int(np.argmax(deviations)))


def check_measurement_stats(
    original: Circuit,
    realified: Circuit,
    tol: float = DEFAULT_TOL,
    max_qubits: int = MAX_QUBITS,
) -> EquivalenceReport:
    """Outcome distributions on the original qubits, flag qubit marginalized."""
    deviations = []
    for u, amps in _flag_outputs(original, realified, tol, max_qubits):
        p_real = np.abs(amps[0::2]) ** 2 + np.abs(amps[1::2]) ** 2
        deviations += np.max(np.abs(p_real - np.abs(u) ** 2), axis=0).tolist()
    return _report("measurement-stats", deviations, tol, int(np.argmax(deviations)))
