"""Circuits and their unitaries.

A circuit is a gate list in application order.  The circuit unitary is the
product embed(g_t) @ ... @ embed(g_1): appending a gate multiplies on the
left.  Qubit 0 is the most significant bit of a basis-state index, so on
two qubits |01> is index 1 and embed(X on qubit 1) maps |00> to |01>.

circuit_unitary multiplies the circuit out run by run.  A run is a list
of consecutive gates on one frame, an operand tuple: each gate is
multiplied as its embedding in the frame, or as its own matrix when its
operands are the frame in order.  A circuit of at most DENSE_WIDTH = 4
qubits is one run whose frame is the whole register, so each gate is
its embedding in the register (a single-qubit Solovay-Kitaev word is a
run of gate matrices): there the gathers below cost more per run than
the arithmetic they save.

A wider circuit never forms an embedded matrix of the register.  A
k-qubit frame only mixes rows whose indices differ in its operand bits,
so a run gathers those rows of the running matrix in groups of 2**k,
multiplies each group by the run's matrices and scatters it back:
O(4**n * 2**k) per gate instead of the O(8**n) dense product.  The
row-index table (`_operand_rows`, one transpose of the index tensor) is
the same table that places a gate's entries in `embed`.  Columns of the
unitary evolve independently, so the circuit is applied to blocks of at
most BLOCK_AMPLITUDES entries of the identity in turn: beside the
result, a run then holds two blocks, not two more full matrices.  There
a run is a group of gates on the same operands, or adjacent groups
merged while their joint support stays within two qubits and every
two-qubit gate among them has the same operand order (an exact {H, CS}
word of a one-qubit gate is one run).  A gate on one qubit of the frame
is multiplied as its 4x4 embedding; the embedding's exact zeros add
nothing, and the tests check the result against the per-gate loop bit
for bit.

A long run, of LONG_RUN = 16 gates or more, is multiplied out once per
call, before the blocks, and its one matrix is applied through the same
gather and scatter.  The product is a tree: the run's matrices are
stacked, and each level multiplies neighbouring pairs for the whole
stack in batched numpy calls, an unpaired last one carried up, about
log2(L) levels in place of L matmuls on every block
(a 1,186-gate Solovay-Kitaev word over 3 distinct gates is one such
run).  The tree, and a dense product at 2-4 qubits, round differently
from the per-gate loop, so the contract is: at one qubit and at more
than DENSE_WIDTH qubits, a circuit whose runs are all shorter than
LONG_RUN gives the per-gate loop's bytes, and every unitary is within
1e-13 of it, entry by entry.  Below LONG_RUN the stack's fixed cost
loses to a few small matmuls.

Embeddings are built by one function, `_embedded`, and circuit_unitary
keeps each gate's in a frame once per call.  A named gate's is also kept
in one table, `_EMBEDDED`, keyed by (kind, positions in the frame, frame
width): built once per process and read-only.  A GENERIC gate's never
enters the table, which therefore stays bounded.

A Circuit's width is an integer, by the rule for gate operands, from 1 to
MAX_WIDTH = 2**20: far above what a dense check takes, the ceiling keeps a
count of thousands of digits out of every later message.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

import numpy as np

from .errors import CapExceeded, ValidationError
from .gates import Gate, GateKind, as_ints, gate_matrix

MAX_QUBITS = 12
MAX_WIDTH = 2**20
# 2**16 amplitudes (1 MiB): one block up to 8 qubits.
BLOCK_AMPLITUDES = 2**16
# A run of at least this many gates is multiplied out before the blocks.
LONG_RUN = 16
# Circuits of at most this many qubits are one run on the whole register,
# where the gathers' per-run cost exceeds the arithmetic they save.  Wider
# ones keep them: a dense product costs O(8**n) per gate against
# O(4**n * 2**k), and at 6 qubits it is already the slower (60 named
# gates, one BLAS thread: 2.2 against 1.2 ms).
DENSE_WIDTH = 4


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        (n,) = as_ints((self.n_qubits,)) or (0,)
        if abs(n) > MAX_WIDTH:
            # Not echoed: a count read from a file may have thousands of digits.
            raise ValidationError(f"qubits must be a positive integer of at most {MAX_WIDTH}")
        if n < 1:
            raise ValidationError(f"qubits must be a positive integer, got {self.n_qubits!r}")
        gates = tuple(self.gates)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "gates", gates)
        for i, g in enumerate(gates):
            if not isinstance(g, Gate):
                raise ValidationError(f"gates[{i}] is not a Gate")
            for q in g.qubits:
                if q >= n:
                    raise ValidationError(
                        f"gates[{i}] ({g.kind.value}) touches qubit {q} "
                        f"but the circuit has {n} qubits"
                    )

    def __len__(self) -> int:
        return len(self.gates)


def _check_cap(n_qubits: int, max_qubits: int):
    if n_qubits > max_qubits:
        raise CapExceeded(
            f"{n_qubits} qubits exceeds the dense-matrix cap of {max_qubits}"
        )


def _operand_rows(qubits: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Basis indices grouped by a gate's operands, shape (2**k, 2**(n-k)).

    rows[l, r] is the r-th index (in increasing order) whose operand bits
    are all clear, with those bits set to the local index l (first operand
    most significant).  Column r lists the 2**k indices the gate mixes.
    """
    # Axis q of the index tensor is qubit q's bit; moving the operands to the
    # front, in operand order, ahead of the other qubits in increasing order
    # gives that layout in one transpose.
    rest = [q for q in range(n_qubits) if q not in qubits]
    idx = np.arange(2**n_qubits, dtype=np.int64).reshape((2,) * n_qubits)
    return idx.transpose(list(qubits) + rest).reshape(2 ** len(qubits), -1)


def _placed(m: np.ndarray, qubits: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Full 2**n matrix of m acting on `qubits`, identity elsewhere."""
    rows = _operand_rows(qubits, n_qubits)
    dim = 2**n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    out[rows[:, None, :], rows[None, :, :]] = m[:, :, None]
    return out


# Named gates' embeddings by (kind, positions, frame width), built on first
# use; see the module docstring.
_EMBEDDED: dict[tuple[GateKind, tuple[int, ...], int], np.ndarray] = {}


def _embedded(g: Gate, qubits: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """_placed(gate_matrix(g), qubits, n_qubits).

    A named gate's is built once per process, in _EMBEDDED, and read-only;
    a GENERIC gate's is built on each call.
    """
    if g.matrix is not None:
        return _placed(gate_matrix(g), qubits, n_qubits)
    key = (g.kind, qubits, n_qubits)
    m = _EMBEDDED.get(key)
    if m is None:
        m = _EMBEDDED[key] = _placed(gate_matrix(g), qubits, n_qubits)
        m.flags.writeable = False
    return m


def embed(gate: Gate, n_qubits: int, max_qubits: int = MAX_QUBITS) -> np.ndarray:
    """Full 2**n matrix of a gate acting on its operands, identity elsewhere."""
    _check_cap(n_qubits, max_qubits)
    if any(q >= n_qubits for q in gate.qubits):
        raise ValidationError(
            f"gate on {gate.qubits} does not fit in {n_qubits} qubits"
        )
    return _placed(gate_matrix(gate), gate.qubits, n_qubits)


def _support_runs(gates, n_qubits: int) -> list[list]:
    """Gates split into runs of [frame, ordered, groups], in circuit order.

    groups are the (operands, gates) of groupby over operands, which runs
    at C speed.  On at most DENSE_WIDTH qubits they are one run on the
    whole register.  Wider, a group joins the run before it while the
    joint support stays within two qubits and, once a two-qubit group has
    fixed the frame's order (ordered), every two-qubit group has that order.
    """
    groups = [(qubits, list(group)) for qubits, group in groupby(gates, key=attrgetter("qubits"))]
    if n_qubits <= DENSE_WIDTH:
        return [[tuple(range(n_qubits)), True, groups]]
    runs: list[list] = []
    for qubits, group in groups:
        if runs and len(qubits) <= 2:
            run = runs[-1]
            frame, ordered = run[0], run[1]
            joint = frame + tuple(q for q in qubits if q not in frame)
            pair = len(qubits) == 2
            if len(joint) <= 2 and not (ordered and pair and qubits != frame):
                run[0] = qubits if pair else joint
                run[1] = ordered or pair
                run[2].append((qubits, group))
                continue
        runs.append([qubits, len(qubits) == 2, [(qubits, group)]])
    return runs


def _run_product(mats: list[np.ndarray]) -> np.ndarray:
    """mats[-1] @ ... @ mats[0] as a product tree.

    The stack is one fancy index into a table of the distinct matrices (the
    same object is one entry).  Each level multiplies every odd entry onto
    the even one before it in one stacked matmul, which makes one BLAS
    call per pair, and carries an unpaired last entry up as it is: the
    pairs, and so the bytes, of a stack padded with identities to a power
    of two, without its wasted products.  2x2 levels are summed from entry
    planes instead, two broadcast products over the whole level: on a long
    Solovay-Kitaev word about twice as fast.
    """
    ids = list(map(id, mats))
    table = dict(zip(ids, mats))
    slot = dict(zip(table, range(len(table))))
    stack = np.array(list(table.values()), dtype=complex)[list(map(slot.__getitem__, ids))]
    while len(stack) > 1:
        a, b = stack[1::2], stack[:-1:2]
        if len(a[0]) == 2:
            top = a[:, :, :1] * b[:, :1, :] + a[:, :, 1:] * b[:, 1:, :]
        else:
            top = a @ b
        stack = np.concatenate((top, stack[-1:])) if len(stack) % 2 else top
    return stack[0]


def circuit_unitary(c: Circuit, max_qubits: int = MAX_QUBITS) -> np.ndarray:
    _check_cap(c.n_qubits, max_qubits)
    dim = 2**c.n_qubits
    tables: dict[tuple[int, ...], np.ndarray] = {}
    placed: dict[tuple[Gate, tuple[int, ...]], np.ndarray] = {}
    runs = []
    for frame, _, groups in _support_runs(c.gates, c.n_qubits):
        rows = tables.get(frame)
        if rows is None:
            rows = tables[frame] = _operand_rows(frame, c.n_qubits)
        mats = []
        for qubits, group in groups:
            if qubits == frame:
                mats.extend(map(gate_matrix, group))
                continue
            at = tuple(map(frame.index, qubits))
            for g in group:
                m = placed.get((g, frame))
                if m is None:
                    m = placed[g, frame] = _embedded(g, at, len(frame))
                mats.append(m)
        if len(mats) >= LONG_RUN:
            mats = [_run_product(mats)]
        runs.append((rows, mats))
    u = np.eye(dim, dtype=complex)
    width = max(1, BLOCK_AMPLITUDES // dim)
    for start in range(0, dim, width):
        block = u[:, start:start + width]
        for rows, mats in runs:
            # Each row index appears once in `rows`, so writing the product
            # back in place updates every row exactly once.
            gathered = block[rows].reshape(len(rows), -1)
            for m in mats:
                gathered = m @ gathered
            block[rows] = gathered.reshape(rows.shape + (-1,))
    return u
