"""Gate kinds, their matrices, and generating gate sets.

Conventions, used consistently across the package:
  - qubit 0 is the most significant bit of a basis-state index
  - a gate's operand list orders controls first, target last, and the first
    operand is the most significant bit of the gate's own matrix index
  - CS = controlled-S = diag(1, 1, 1, i); CCX swaps |110> and |111>

Matrix identities relied on elsewhere:
  CS @ CS = CZ        CS^3 = CS^-1        X @ Z = [[0, -1], [1, 0]]
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import linalg
from .errors import ValidationError

_SQ2 = 1.0 / np.sqrt(2.0)


class GateKind(str, Enum):
    H = "H"
    X = "X"
    Z = "Z"
    S = "S"
    SDG = "SDG"
    CS = "CS"
    CSDG = "CSDG"
    CZ = "CZ"
    CNOT = "CNOT"
    CCX = "CCX"
    GENERIC = "GENERIC"


_MATRICES = {
    GateKind.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    GateKind.CS: np.diag([1, 1, 1, 1j]).astype(complex),
    GateKind.CSDG: np.diag([1, 1, 1, -1j]).astype(complex),
    GateKind.CZ: np.diag([1, 1, 1, -1]).astype(complex),
    GateKind.CNOT: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    GateKind.CCX: np.eye(8, dtype=complex)[:, [0, 1, 2, 3, 4, 5, 7, 6]],
}
for _m in _MATRICES.values():
    _m.setflags(write=False)

# Operand count of each named gate, read off its matrix.
ARITY = {kind: len(m).bit_length() - 1 for kind, m in _MATRICES.items()}
_KINDS = {kind.value: kind for kind in GateKind}  # finds a GateKind too, since it is a str

GENERIC_MAX_QUBITS = 3
GENERIC_ATOL = 1e-10


def as_ints(values) -> tuple[int, ...] | None:
    """values as ints, numpy integers too; None if one is a bool or no integer."""
    try:
        values = tuple(values)
        if bool not in map(type, values):
            return tuple(map(operator.index, values))
    except TypeError:
        pass
    return None


@dataclass(frozen=True)
class Gate:
    """One gate application: a kind (or its name) plus the qubits it acts on.

    `matrix` is set only for GENERIC gates and is validated to be unitary.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    matrix: np.ndarray | None = None
    # Set once, since every per-call memo keyed by gates looks it up.  str
    # hashes are salted per process, so a pickle carries no hash:
    # __reduce__ rebuilds the gate through the constructor.
    _hash = None

    def __post_init__(self):
        try:
            kind = _KINDS[self.kind]
        except (KeyError, TypeError):
            raise ValidationError(f"unknown gate name {self.kind!r}") from None
        qubits = as_ints(self.qubits)
        if qubits is None:
            raise ValidationError("qubits must be a list of integers")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "qubits", qubits)
        if self.matrix is not None and kind is not GateKind.GENERIC:
            raise ValidationError("only generic gates may carry a matrix")
        if any(q < 0 for q in qubits):
            raise ValidationError(f"negative qubit index in {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValidationError(f"repeated operand in {qubits}")
        if kind is GateKind.GENERIC:
            if self.matrix is None:
                raise ValidationError("GENERIC gate requires a matrix")
            m = linalg.as_matrix(self.matrix)
            k = len(qubits)
            if not 1 <= k <= GENERIC_MAX_QUBITS:
                raise ValidationError(
                    f"GENERIC gate supports 1..{GENERIC_MAX_QUBITS} qubits, got {k}"
                )
            if m.shape[0] != 2**k:
                raise ValidationError(
                    f"matrix of shape {m.shape} does not act on {k} qubits"
                )
            if not linalg.is_unitary(m, GENERIC_ATOL):
                raise ValidationError("GENERIC matrix is not unitary")
            m = m.copy()
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
            # -0.0 folded into 0.0, which __eq__ treats as equal.
            matrix_key = (m + 0.0).tobytes()
        elif len(qubits) != ARITY[kind]:
            raise ValidationError(f"{kind.value} acts on {ARITY[kind]} qubits, got {qubits}")
        else:
            matrix_key = None
        object.__setattr__(self, "_hash", hash((kind, qubits, matrix_key)))

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        if (self.kind, self.qubits) != (other.kind, other.qubits):
            return False
        if self.matrix is None or other.matrix is None:
            return self.matrix is other.matrix
        return bool(np.array_equal(self.matrix, other.matrix))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Gate, (self.kind, self.qubits, self.matrix)


def gate_matrix(gate: Gate | GateKind | str) -> np.ndarray:
    """Matrix of a gate on its own operands (dimension 2**arity)."""
    if isinstance(gate, Gate):
        return _MATRICES[gate.kind] if gate.matrix is None else gate.matrix
    kind = GateKind(gate)
    if kind is GateKind.GENERIC:
        raise ValidationError("GENERIC has no fixed matrix")
    return _MATRICES[kind]


_MAX_GENERATOR_ORDER = 16


@dataclass(frozen=True)
class GateSet:
    """Named generators over a fixed-width qubit domain.

    Each generator's inverse is the first generator equal to its adjoint
    or, where there is none, a power of the generator itself (CS^-1 = CS^3),
    so a generator with neither an inverse generator nor a finite order is
    refused.
    """

    name: str
    n_qubits: int
    generators: tuple[tuple[str, Gate], ...]
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _gates: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _matrices: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _inverses: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        from .circuit import embed  # local import to avoid a cycle

        labels = [lab for lab, _ in self.generators]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate generator labels in {labels}")
        object.__setattr__(self, "labels", tuple(labels))
        for lab, g in self.generators:
            # embed refuses a gate outside the domain; Gate checked unitarity.
            m = embed(g, self.n_qubits)
            m.setflags(write=False)
            self._gates[lab] = g
            self._matrices[lab] = m
        for lab, m in self._matrices.items():
            target = m.conj().T
            inverse = next(
                (o for o in labels if np.allclose(self._matrices[o], target, atol=1e-12)),
                None,
            )
            if inverse is None:
                self._inverses[lab] = (lab,) * (_finite_order(m, lab) - 1)
            else:
                self._inverses[lab] = (inverse,)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def matrix(self, label: str) -> np.ndarray:
        try:
            return self._matrices[label]
        except KeyError:
            raise ValidationError(f"unknown generator {label!r}") from None

    def gate(self, label: str) -> Gate:
        try:
            return self._gates[label]
        except KeyError:
            raise ValidationError(f"unknown generator {label!r}") from None

    def inverse_labels(self, label: str) -> tuple[str, ...]:
        """Label sequence (application order) realizing the exact inverse."""
        try:
            return self._inverses[label]
        except KeyError:
            raise ValidationError(f"unknown generator {label!r}") from None

    def evaluate(self, seq) -> np.ndarray:
        """Product of a label sequence given in application order."""
        u = np.eye(self.dim, dtype=complex)
        for lab in seq:
            u = self.matrix(lab) @ u
        return u

    def fingerprint(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(f"{self.name}/{self.n_qubits}".encode())
        for lab in self.labels:
            h.update(lab.encode())
            h.update(np.ascontiguousarray(self.matrix(lab)).tobytes())
        return h.hexdigest()


def _finite_order(m: np.ndarray, label: str) -> int:
    p = m.copy()
    for order in range(1, _MAX_GENERATOR_ORDER + 1):
        if np.max(np.abs(p - np.eye(m.shape[0]))) <= 1e-12:
            return order
        p = p @ m
    raise ValidationError(
        f"generator {label} has no inverse generator and no order <= "
        f"{_MAX_GENERATOR_ORDER}; cannot synthesize its inverse"
    )


def kitaev_gate_set() -> GateSet:
    """{H on each qubit, CS} on two qubits."""
    return GateSet(
        name="kitaev",
        n_qubits=2,
        generators=(
            ("H0", Gate(GateKind.H, (0,))),
            ("H1", Gate(GateKind.H, (1,))),
            ("CS", Gate(GateKind.CS, (0, 1))),
        ),
    )


def demo_1q_gate_set() -> GateSet:
    """The dense single-qubit pair {H, diag(1, e^{i pi/4})}, inverse-closed.

    The explicit inverse label keeps approximation sequences from inflating:
    synthesizing it by powering would cost seven letters per occurrence and
    the recursion inverts half of everything it emits.
    """
    t = np.diag([1.0, np.exp(1j * np.pi / 4)])
    return GateSet(
        name="ht",
        n_qubits=1,
        generators=(
            ("H", Gate(GateKind.H, (0,))),
            ("T", Gate(GateKind.GENERIC, (0,), matrix=t)),
            ("TDG", Gate(GateKind.GENERIC, (0,), matrix=t.conj().T)),
        ),
    )


BUILTIN_GATE_SETS = {"kitaev": kitaev_gate_set, "ht": demo_1q_gate_set}
