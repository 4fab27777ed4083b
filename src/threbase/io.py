"""JSON serialization for circuits and net caches.

Both formats are versioned and canonical: fixed field order, compact
separators, floats printed with %.17g so a document re-emitted from a
parse is byte-identical.  Circuit files carry gates by name with an
optional row-major matrix (as [re, im] pairs) for generic gates.  Net
caches store label sequences together with their matrices, plus a
fingerprint of the generating set so a stale cache cannot be reused
against different generators.

Documents are long lists of a few distinct gates, so the work scales with
the distinct gates rather than the total:
  - parse_circuit interns gates within one document: a gate whose raw JSON
    value equals that of an earlier gate that validated reuses its Gate
    (frozen, read-only matrix) instead of being validated again;
  - emit_circuit formats each distinct Gate once per call;
  - parse_net converts every entry's matrix in one numpy call, and falls
    back to the per-entry reader, which names the first bad entry, only
    when that conversion is not a well-formed (entries, d*d, 2) array.
Every memo lives for one call only; nothing is kept between calls.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .circuit import Circuit
from .errors import ValidationError
from .gates import BUILTIN_GATE_SETS, Gate, GateKind, GateSet
from .sk import Net, NetEntry

FORMAT_VERSION = 1


def _fmt(x: float) -> str:
    # -0.0 would print as "-0", which JSON reads back as integer 0; fold it.
    return format(float(x) + 0.0, ".17g")


def _fmt_matrix(m: np.ndarray) -> str:
    pairs = ",".join(f"[{_fmt(z.real)},{_fmt(z.imag)}]" for z in m.reshape(-1))
    return f"[{pairs}]"


def _parse_matrix(raw, where: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{where}: matrix must be a non-empty list")
    flat = []
    for j, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) for v in pair)
        ):
            raise ValidationError(f"{where}: matrix[{j}] must be a [re, im] pair")
        flat.append(complex(pair[0], pair[1]))
    dim = int(round(len(flat) ** 0.5))
    if dim * dim != len(flat):
        raise ValidationError(f"{where}: matrix has {len(flat)} entries, not a square")
    return np.array(flat, dtype=complex).reshape(dim, dim)


def _is_int(x) -> bool:
    """A JSON integer: bool is an int subclass, but `true` is not a count."""
    return isinstance(x, int) and not isinstance(x, bool)


def _load_json(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(
            f"malformed {what} at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object")
    if doc.get("version") != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported {what} version {doc.get('version')!r}, expected {FORMAT_VERSION}"
        )
    return doc


# --- circuits -------------------------------------------------------------

def _emit_gate(g: Gate) -> str:
    qubits = ",".join(str(q) for q in g.qubits)
    fields = f'"name":"{g.kind.value}","qubits":[{qubits}]'
    if g.matrix is not None:
        fields += f',"matrix":{_fmt_matrix(g.matrix)}'
    return "{" + fields + "}"


def emit_circuit(c: Circuit) -> str:
    # Equal gates emit equal bytes (_fmt folds -0.0), so each distinct gate
    # is formatted once.
    texts: dict[Gate, str] = {}
    parts = []
    for g in c.gates:
        text = texts.get(g)
        if text is None:
            text = texts[g] = _emit_gate(g)
        parts.append(text)
    gates = ",".join(parts)
    return (
        f'{{"version":{FORMAT_VERSION},"qubits":{c.n_qubits},"gates":[{gates}]}}\n'
    )


def _parse_gate(raw, where: str) -> Gate:
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: expected an object")
    unknown = set(raw) - {"name", "qubits", "matrix"}
    if unknown:
        raise ValidationError(f"{where}: unknown field {sorted(unknown)[0]!r}")
    name = raw.get("name")
    try:
        kind = GateKind(name)
    except ValueError:
        raise ValidationError(f"{where}: unknown gate name {name!r}") from None
    qs = raw.get("qubits")
    if not isinstance(qs, list) or not all(isinstance(q, int) for q in qs):
        raise ValidationError(f"{where}: qubits must be a list of integers")
    matrix = None
    if "matrix" in raw:
        if kind is not GateKind.GENERIC:
            raise ValidationError(f"{where}: only generic gates may carry a matrix")
        matrix = _parse_matrix(raw["matrix"], where)
    try:
        return Gate(kind, tuple(qs), matrix)
    except ValidationError as e:
        raise ValidationError(f"{where}: {e}") from None


def parse_circuit(text: str) -> Circuit:
    doc = _load_json(text, "circuit file")
    qubits = doc.get("qubits")
    if not _is_int(qubits) or qubits < 1:
        raise ValidationError(f"qubits must be a positive integer, got {qubits!r}")
    raw_gates = doc.get("gates")
    if not isinstance(raw_gates, list):
        raise ValidationError("gates must be a list")
    # repr tells apart any two JSON values that validation or the built
    # matrix would (1 from 1.0 and True, 0.0 from -0.0, "1" from 1), so a
    # gate whose repr matches an earlier one builds an equal Gate.  Only
    # validated gates enter the memo, so the first bad gate still raises
    # with its own index.
    interned: dict[str, Gate] = {}
    gates = []
    for i, raw in enumerate(raw_gates):
        key = repr(raw)
        gate = interned.get(key)
        if gate is None:
            gate = interned[key] = _parse_gate(raw, f"gates[{i}]")
        gates.append(gate)
    try:
        return Circuit(qubits, gates)
    except ValidationError as e:
        raise ValidationError(str(e)) from None


# --- net caches -----------------------------------------------------------

def emit_net(net: Net) -> str:
    head = (
        f'{{"version":{FORMAT_VERSION},'
        f'"gateset":"{net.gateset.name}",'
        f'"fingerprint":"{net.gateset.fingerprint()}",'
        f'"max_len":{net.max_length},'
        f'"dedupe_tol":{_fmt(net.dedupe_tol)},'
        f'"entries":['
    )
    rows = []
    for e in net.entries:
        seq = ",".join(f'"{label}"' for label in e.seq)
        rows.append(f'{{"seq":[{seq}],"matrix":{_fmt_matrix(e.matrix)}}}')
    return head + ",".join(rows) + "]}\n"


def parse_net(text: str, gateset: GateSet | None = None) -> Net:
    doc = _load_json(text, "net cache")
    name = doc.get("gateset")
    if gateset is None:
        factory = BUILTIN_GATE_SETS.get(name)
        if factory is None:
            raise ValidationError(
                f"unknown gate set {name!r}; pass one explicitly to load this cache"
            )
        gateset = factory()
    fingerprint = doc.get("fingerprint")
    if fingerprint != gateset.fingerprint():
        raise ValidationError(
            f"net cache fingerprint {fingerprint!r} does not match gate set "
            f"{gateset.name!r}; rebuild the cache"
        )
    max_len = doc.get("max_len")
    tol = doc.get("dedupe_tol")
    if not _is_int(max_len) or max_len < 0:
        raise ValidationError(f"bad max_len {max_len!r}")
    # json.loads reads bare NaN and Infinity, which emit_net cannot write
    # back as JSON; no comparison holds for NaN.
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
        raise ValidationError(f"bad dedupe_tol {tol!r}")
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise ValidationError("entries must be a non-empty list")
    dim = gateset.dim
    labels = gateset.labels
    matrices = _bulk_matrices(raw_entries, dim)
    entries = []
    for i, raw in enumerate(raw_entries):
        where = f"entries[{i}]"
        if not isinstance(raw, dict):
            raise ValidationError(f"{where}: expected an object")
        seq = raw.get("seq")
        if not isinstance(seq, list) or not all(isinstance(s, str) for s in seq):
            raise ValidationError(f"{where}: seq must be a list of labels")
        bad = [s for s in seq if s not in labels]
        if bad:
            raise ValidationError(f"{where}: unknown label {bad[0]!r}")
        if len(seq) > max_len:
            raise ValidationError(f"{where}: sequence longer than max_len")
        if matrices is not None:
            m = matrices[i]
        else:
            m = _parse_matrix(raw.get("matrix"), where)
            if m.shape != (dim, dim):
                raise ValidationError(
                    f"{where}: matrix is {m.shape[0]}x{m.shape[1]}, net dimension is {dim}"
                )
        entries.append(NetEntry(tuple(seq), m))
    net = Net(gateset, max_len, float(tol), entries)
    _spot_check(net)
    return net


def _bulk_matrices(raw_entries: list, dim: int) -> np.ndarray | None:
    """Every entry's matrix from one numpy call, or None if any is malformed.

    A numeric (entries, dim*dim, 2) array means every entry holds dim*dim
    [re, im] pairs of numbers, exactly what the per-entry reader accepts;
    strings, nulls, non-objects and ragged or wrong-sized matrices all fail
    here and are left to that reader to name.  Viewing the float pairs as
    complex gives the same bits as complex(re, im).
    """
    try:
        a = np.array([raw["matrix"] for raw in raw_entries])
    except (TypeError, KeyError, ValueError):
        return None
    if a.dtype.kind not in "biuf" or a.shape != (len(raw_entries), dim * dim, 2):
        return None
    a = np.ascontiguousarray(a, dtype=np.float64)
    return a.view(np.complex128).reshape(len(raw_entries), dim, dim)


def _spot_check(net: Net, samples: int = 16, tol: float = 1e-10):
    # Full re-evaluation of every entry is a test-suite job; loading only
    # guards against a corrupted or hand-edited cache.
    n = len(net.entries)
    for i in sorted({0, n - 1, *range(0, n, max(1, n // samples))}):
        e = net.entries[i]
        if np.max(np.abs(net.gateset.evaluate(e.seq) - e.matrix)) > tol:
            raise ValidationError(
                f"entries[{i}]: stored matrix does not match its sequence"
            )
