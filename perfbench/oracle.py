"""The benchmark's own correctness oracle.

It reads circuit files with its own JSON reader and gate table, builds
unitaries by applying each gate to a batch of columns, and measures
deviations with its own formulas.  It imports nothing from threbase (in
particular neither threbase.linalg nor threbase.verify), so a verdict it
agrees with is a check on the program, not a restatement of it.

Conventions follow the circuit file format: qubit 0 is the most
significant bit of a basis index, and a gate's first operand is the most
significant bit of the gate's own matrix index.
"""

from __future__ import annotations

import json
import math

import numpy as np

_R2 = 1.0 / math.sqrt(2.0)


def _perm(images):
    m = np.zeros((len(images), len(images)), dtype=complex)
    for src, dst in enumerate(images):
        m[dst, src] = 1.0
    return m


GATES = {
    "H": np.array([[_R2, _R2], [_R2, -_R2]], dtype=complex),
    "X": _perm([1, 0]),
    "Z": np.diag([1, -1]).astype(complex),
    "S": np.diag([1, 1j]),
    "SDG": np.diag([1, -1j]),
    "CS": np.diag([1, 1, 1, 1j]),
    "CSDG": np.diag([1, 1, 1, -1j]),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "CNOT": _perm([0, 1, 3, 2]),
    "CCX": _perm([0, 1, 2, 3, 4, 5, 7, 6]),
}


def read_circuit(path: str) -> tuple[int, list[tuple[np.ndarray, tuple[int, ...]]]]:
    """Qubit count and (matrix, operands) list of a circuit file."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    ops = []
    for g in doc["gates"]:
        qubits = tuple(g["qubits"])
        if g["name"] == "GENERIC":
            flat = np.array([complex(re, im) for re, im in g["matrix"]])
            dim = 2 ** len(qubits)
            ops.append((flat.reshape(dim, dim), qubits))
        else:
            ops.append((GATES[g["name"]], qubits))
    return doc["qubits"], ops


def apply(n: int, ops, columns: np.ndarray) -> np.ndarray:
    """Apply the gate list, in order, to every column of a (2**n, m) array."""
    m = columns.shape[1]
    t = columns.reshape((2,) * n + (m,))
    for mat, qubits in ops:
        k = len(qubits)
        local = mat.reshape((2,) * (2 * k))
        t = np.tensordot(local, t, axes=(list(range(k, 2 * k)), list(qubits)))
        t = np.moveaxis(t, list(range(k)), list(qubits))
    return t.reshape(2**n, m)


def unitary(n: int, ops) -> np.ndarray:
    return apply(n, ops, np.eye(2**n, dtype=complex))


def eigenphase_dist(a: np.ndarray, b: np.ndarray) -> float:
    """min over phi of ||a - e^{i phi} b||_2 for unitaries, as 2 sin(W/4).

    W is the narrowest arc of the unit circle holding every eigenphase of
    a^dagger b; centring the global phase on that arc leaves a largest
    eigenvalue deviation of |1 - e^{iW/2}| = 2 sin(W/4).
    """
    phases = np.sort(np.angle(np.linalg.eigvals(a.conj().T @ b)))
    gaps = np.diff(np.append(phases, phases[0] + 2.0 * math.pi))
    width = 2.0 * math.pi - float(gaps.max())
    return 2.0 * math.sin(max(width, 0.0) / 4.0)


def exact_error(original: str, rewritten: str) -> float:
    """Phase-free operator-norm distance between two circuit files."""
    n_a, ops_a = read_circuit(original)
    n_b, ops_b = read_circuit(rewritten)
    if n_a != n_b:
        raise ValueError(f"qubit counts differ: {n_a} vs {n_b}")
    return eigenphase_dist(unitary(n_a, ops_a), unitary(n_b, ops_b))


def realified_error(original: str, realified: str) -> float:
    """Largest column deviation of |i>|0> -> (Re U|i>)|0> + (Im U|i>)|1>.

    The flag qubit is the last (least significant) one of the realified
    circuit, so input i of the original is column 2i of the realified one.
    """
    n, ops = read_circuit(original)
    n_r, ops_r = read_circuit(realified)
    if n_r != n + 1:
        raise ValueError(f"realified circuit has {n_r} qubits, expected {n + 1}")
    u = unitary(n, ops)
    dim = 2**n
    inputs = np.zeros((2 * dim, dim), dtype=complex)
    inputs[2 * np.arange(dim), np.arange(dim)] = 1.0
    got = apply(n_r, ops_r, inputs)
    expected = np.empty((2 * dim, dim), dtype=complex)
    expected[0::2] = u.real
    expected[1::2] = u.imag
    return float(np.linalg.norm(got - expected, axis=0).max())
