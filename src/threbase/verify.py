"""Statevector simulation and circuit equivalence checks.

The simulator applies each gate as a local update on the amplitude tensor,
never forming the 2^n x 2^n embedded matrix.  A gate whose matrix is a
permutation (one entry per row, exactly 1: CCX, CNOT, X, or such a GENERIC
matrix) moves the slices it permutes through basic-index views, with no
matmul and no full copy; any other gate is an axis permutation plus a
small matmul.  When every gate matrix is real, as on every circuit that
`transpile --to th` emits, the state is float64 and the matmuls use the
real parts; otherwise it is complex.  The route follows from the
matrices, not from an option.  That keeps the simulator an independent
oracle against circuit_unitary, which gathers rows of a running matrix:
the two routes share no state-update or index code, so their agreement
is a real check rather than a tautology.

The tensor carries a trailing batch axis, shape (2,)*n + (B,), so one pass
over the gates applies the circuit to B basis inputs at once.  The
checkers push all of their inputs through in chunks of at most
BATCH_AMPLITUDES amplitudes, and `run` is a batch of one.

Realified circuits carry the ancilla as the last (least significant)
qubit, so a complex map U on n qubits is validated against
|i>|0> -> (Re U|i>)|0> + (Im U|i>)|1> for every basis input i.
"""

from __future__ import annotations

import itertools
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

    def probability(self, index: int) -> float:
        return float(np.abs(self.amplitudes[index]) ** 2)


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


def _report(kind: str, deviations, tol: float, worst: int | None) -> EquivalenceReport:
    mx = float(max(deviations))
    return EquivalenceReport(kind, mx, tuple(deviations), tol, worst, mx <= tol)


def _slice_moves(m: np.ndarray, qubits: tuple[int, ...], n: int):
    """Cycles of basic indices for a permutation matrix, else None.

    m is a permutation when each row has exactly one nonzero entry, that
    entry is exactly 1, and no two rows take the same column.  Output slice
    r of the operand axes is then input slice src[r], so following each
    cycle of src moves the slices it permutes and leaves fixed points alone.
    """
    src = []
    for row in m.tolist():
        cols = [j for j, x in enumerate(row) if x]
        if len(cols) != 1 or row[cols[0]] != 1:
            return None
        src.append(cols[0])
    if sorted(src) != list(range(len(src))):
        return None
    # Local index r sets the operand bits bits[r], first operand most
    # significant, which is the order itertools.product counts in.
    bits = list(itertools.product((0, 1), repeat=len(qubits)))

    def index(r: int) -> tuple:
        idx = [slice(None)] * (n + 1)
        for q, bit in zip(qubits, bits[r]):
            idx[q] = bit
        return tuple(idx)

    cycles, seen = [], set()
    for start, s in enumerate(src):
        if start in seen or s == start:
            continue
        cycle = [start]
        while src[cycle[-1]] != start:
            cycle.append(src[cycle[-1]])
        seen.update(cycle)
        cycles.append([index(r) for r in cycle])
    return cycles


def _apply_moves(psi: np.ndarray, cycles) -> np.ndarray:
    for cycle in cycles:
        first = psi[cycle[0]].copy()
        for dst, src in zip(cycle, cycle[1:]):
            psi[dst] = psi[src]
        psi[cycle[-1]] = first
    return psi


def _apply_matrix(psi: np.ndarray, m: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    k = len(qubits)
    moved = np.moveaxis(psi, qubits, range(k))
    shape = moved.shape
    moved = m @ moved.reshape(2**k, -1)
    return np.moveaxis(moved.reshape(shape), range(k), qubits)


def _simulate(c: Circuit, basis_indices: np.ndarray) -> np.ndarray:
    """Output states for a batch of basis inputs, one column per input.

    The columns are float64 when every gate matrix of c is real, complex
    otherwise.  Raises ValidationError when a column's norm is off 1 by
    more than NORM_ATOL.
    """
    n = c.n_qubits
    batch = len(basis_indices)
    mats = {g: gate_matrix(g) for g in c.gates}
    real = not any(np.any(m.imag) for m in mats.values())
    plans = {}
    for g, m in mats.items():
        cycles = _slice_moves(m, g.qubits, n)
        if cycles is None:
            plans[g] = partial(_apply_matrix, m=m.real if real else m, qubits=g.qubits)
        else:
            plans[g] = partial(_apply_moves, cycles=cycles)
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


def _batched_outputs(c: Circuit, inputs: np.ndarray):
    """Yield (start, outputs) over chunks of at most BATCH_AMPLITUDES
    amplitudes, where outputs[:, j] is c applied to inputs[start + j]."""
    size = max(1, BATCH_AMPLITUDES >> c.n_qubits)
    for start in range(0, len(inputs), size):
        yield start, _simulate(c, inputs[start : start + size])


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
    if a.n_qubits != b.n_qubits:
        raise ValidationError(
            f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}"
        )
    d = dist(circuit_unitary(a, max_qubits), circuit_unitary(b, max_qubits))
    return _report("exact-unitary", [d], tol, None)


def _realified_pair(original: Circuit, realified: Circuit, max_qubits: int):
    """U of the original, after both widths are checked against the cap."""
    if realified.n_qubits != original.n_qubits + 1:
        raise ValidationError(
            f"realified circuit must have exactly one extra qubit: "
            f"{original.n_qubits} -> {realified.n_qubits}"
        )
    # The wider circuit sets the limit; checking it before circuit_unitary
    # means an original at the cap fails before its 2**n unitary is built.
    _check_cap(realified.n_qubits, max_qubits)
    return circuit_unitary(original, max_qubits)


def check_realified(
    original: Circuit,
    realified: Circuit,
    tol: float = DEFAULT_TOL,
    max_qubits: int = MAX_QUBITS,
) -> EquivalenceReport:
    """Basis-by-basis check of |i>|0> -> (Re U|i>)|0> + (Im U|i>)|1>."""
    u = _realified_pair(original, realified, max_qubits)
    deviations = np.empty(u.shape[1])
    for start, got in _batched_outputs(realified, 2 * np.arange(len(deviations))):
        cols = slice(start, start + got.shape[1])
        expected = np.empty(got.shape)
        expected[0::2] = u[:, cols].real
        expected[1::2] = u[:, cols].imag
        # One norm per contiguous row sums each input's difference in the
        # same order whatever the chunk size, so deviations (and the argmax
        # among near-equal ones) do not depend on BATCH_AMPLITUDES.  The rows
        # are complex even after a float64 pass, so the norm sums them the
        # same way on both simulator routes.
        diff = np.ascontiguousarray((got - expected).T, dtype=complex)
        deviations[cols] = [np.linalg.norm(row) for row in diff]
    worst = int(np.argmax(deviations))
    return _report("realified", deviations.tolist(), tol, worst)


def check_measurement_stats(
    original: Circuit,
    realified: Circuit,
    tol: float = DEFAULT_TOL,
    max_qubits: int = MAX_QUBITS,
) -> EquivalenceReport:
    """Outcome distributions on the original qubits, flag qubit marginalized."""
    u = _realified_pair(original, realified, max_qubits)
    deviations = np.empty(u.shape[1])
    for start, amps in _batched_outputs(realified, 2 * np.arange(len(deviations))):
        cols = slice(start, start + amps.shape[1])
        p_real = np.abs(amps[0::2]) ** 2 + np.abs(amps[1::2]) ** 2
        p_orig = np.abs(u[:, cols]) ** 2
        deviations[cols] = np.max(np.abs(p_real - p_orig), axis=0)
    worst = int(np.argmax(deviations))
    return _report("measurement-stats", deviations.tolist(), tol, worst)
