"""JSON serialization for circuits and net caches.

Both formats are versioned and canonical: fixed field order, compact
separators, floats printed with %.17g so a document re-emitted from a
parse is byte-identical.  Circuit files (version 1) carry gates by name
with an optional row-major matrix (as [re, im] pairs) for generic gates.
Net caches (version 2) store only label sequences, shortest-first, plus a
fingerprint of the generating set so a stale cache cannot be reused
against different generators.  A net's sequences are prefix-closed, so
parse_net checks that structure and rebuilds every matrix with
sk.net_from_sequences, bit for bit as build_net formed it, into one
read-only (N, d, d) stack beside the sequences; no per-entry object is
made.  emit_net writes the sequences straight from net.seqs.  A version-1
cache, which stored matrices, is refused.  In both formats a key repeated
within one object is refused rather than letting the last one win.

The readers check JSON shape: fields, JSON types, finite matrix entries.
A JSON type is tested by exact Python type, since json.loads makes no
subclasses and `true`, a bool, is not a number.  Gate and Circuit check
meaning (gate names, integer operands in range, a matrix only on
GENERIC, the width ceiling) for a file and a caller alike.

Documents are long lists of a few distinct gates, so the work scales with
the distinct gates rather than the total:
  - parse_circuit first tries the canonical reading, for documents that
    emit_circuit wrote: the fixed header, gate texts split on "},{", and
    the fixed tail.  Each distinct gate text is decoded once, by the same
    JSON reader and _parse_gate, and accepted only if _emit_gate writes
    its gate back as the same text.  An accepted document is then
    emit_circuit(result) byte for byte, and by the round trip the general
    reader would return an equal circuit.  Anything else, errors included,
    goes to the general reader, so every message comes from it;
  - the general reader interns gates within one document: a gate whose
    raw JSON value marshals to the same bytes as that of an earlier gate
    that validated reuses its Gate (frozen, read-only matrix) instead of
    being validated again;
  - emit_circuit formats each distinct Gate once per call;
  - parse_net makes a few C-level tests per entry and leaves naming the
    first bad entry to a helper that runs only on failure.
Every memo lives for one call only; nothing is kept between calls.
"""

from __future__ import annotations

import cmath
import json
import marshal
import math
import re

import numpy as np

from .circuit import Circuit
from .errors import ValidationError
from .gates import BUILTIN_GATE_SETS, Gate, GateSet
from .sk import Net, net_from_sequences

FORMAT_VERSION = 1
NET_FORMAT_VERSION = 2


def fmt_float(x: float) -> str:
    """x as %.17g, the one float format of every document and printed report.

    -0.0 would print as "-0", which JSON reads back as integer 0 and whose
    sign can depend on the BLAS kernel; it is folded into 0.
    """
    return format(float(x) + 0.0, ".17g")


def _fmt_matrix(m: np.ndarray) -> str:
    pairs = ",".join(f"[{fmt_float(z.real)},{fmt_float(z.imag)}]" for z in m.reshape(-1))
    return f"[{pairs}]"


def _parse_matrix(raw) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ValidationError("matrix must be a non-empty list")
    flat = []
    for j, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(type(v) in (int, float) for v in pair)
        ):
            raise ValidationError(f"matrix[{j}] must be a [re, im] pair")
        # json.loads reads NaN, Infinity and 1e999 (as inf); an integer
        # beyond the float range overflows here.  Refusing them before any
        # matrix arithmetic keeps numpy from warning on them.
        try:
            z = complex(pair[0], pair[1])
        except OverflowError:
            z = None
        if z is None or not cmath.isfinite(z):
            raise ValidationError(f"matrix[{j}] must be finite")
        flat.append(z)
    dim = int(round(len(flat) ** 0.5))
    if dim * dim != len(flat):
        raise ValidationError(f"matrix has {len(flat)} entries, not a square")
    return np.array(flat, dtype=complex).reshape(dim, dim)


def _object(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key is refused, not overwritten."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ValidationError(f"repeated key {repeated!r}")
    return obj


def _load_json(text: str, what: str, version: int, remedy: str = "") -> dict:
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as e:
        raise ValidationError(
            f"malformed {what} at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    except ValidationError as e:  # a repeated key
        raise ValidationError(f"malformed {what}: {e}") from None
    except ValueError:
        # An integer beyond Python's digit limit for int(), whose own
        # message advises a Python call.  Where there is no limit, the
        # integer reaches validation.
        raise ValidationError(f"malformed {what}: an integer has too many digits") from None
    except RecursionError:
        raise ValidationError(f"malformed {what}: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object")
    if type(doc.get("version")) is not int or doc["version"] != version:
        raise ValidationError(
            f"unsupported {what} version {doc.get('version')!r}, expected {version}{remedy}"
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
    # Equal gates emit equal bytes (fmt_float folds -0.0), so each distinct
    # gate is formatted once.
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
    qs = raw.get("qubits")
    try:
        matrix = _parse_matrix(raw["matrix"]) if "matrix" in raw else None
        # Gate refuses None as it refuses every operand list but integers.
        return Gate(raw.get("name"), qs if isinstance(qs, list) else None, matrix)
    except ValidationError as e:
        raise ValidationError(f"{where}: {e}") from None


# What emit_circuit writes around the gate texts; str() of a qubit count is
# ASCII digits with no leading zero.
_HEAD = re.compile(r'\{"version":%d,"qubits":([1-9][0-9]*),"gates":\[' % FORMAT_VERSION)
_TAIL = "]}\n"


def parse_circuit(text: str) -> Circuit:
    """The circuit in a version-1 document; ValidationError if it is malformed.

    A document that emit_circuit wrote is read with one JSON decode per
    distinct gate (_parse_canonical); any other goes to _parse_general.
    """
    c = _parse_canonical(text)
    return c if c is not None else _parse_general(text)


def _parse_canonical(text: str) -> Circuit | None:
    """The circuit of text if it is exactly what emit_circuit writes, else None.

    Gate texts hold no braces, so a canonical body splits on "},{" into
    them.  A piece is accepted only when _emit_gate writes its gate back as
    the same bytes; then the header, the pieces and the tail are
    emit_circuit(result).  A piece that fails to decode or validate, a
    qubit count int() refuses, or a Circuit error returns None, so that
    the general reader reports it with its gates[i] index.
    """
    head = _HEAD.match(text)
    if head is None or not text.endswith(_TAIL):
        return None
    body = text[head.end() : -len(_TAIL)]
    if body and not (body[0] == "{" and body[-1] == "}"):
        return None
    interned: dict[str, Gate] = {}
    gates = []
    try:
        for piece in body[1:-1].split("},{") if body else ():
            gate = interned.get(piece)
            if gate is None:
                raw = json.loads("{" + piece + "}", object_pairs_hook=_object)
                gate = _parse_gate(raw, "gate")
                if _emit_gate(gate) != "{" + piece + "}":
                    return None
                interned[piece] = gate
            gates.append(gate)
        return Circuit(int(head[1]), gates)
    except (ValueError, ValidationError, RecursionError):
        return None


def _parse_general(text: str) -> Circuit:
    doc = _load_json(text, "circuit file", FORMAT_VERSION)
    raw_gates = doc.get("gates")
    if not isinstance(raw_gates, list):
        raise ValidationError("gates must be a list")
    # marshal writes a type code for every value and the bits of every
    # float, so it tells apart any two JSON values that validation or the
    # built matrix would (1 from 1.0 and True, 0.0 from -0.0, "1" from 1),
    # and a gate whose bytes match an earlier one builds an equal Gate.
    # Equal values that marshal differently only miss the memo.  Only
    # validated gates enter the memo, so the first bad gate still raises
    # with its own index.
    interned: dict[bytes, Gate] = {}
    gates = []
    for i, raw in enumerate(raw_gates):
        key = marshal.dumps(raw)
        gate = interned.get(key)
        if gate is None:
            gate = interned[key] = _parse_gate(raw, f"gates[{i}]")
        gates.append(gate)
    return Circuit(doc.get("qubits"), gates)


# --- net caches -----------------------------------------------------------

def emit_net(net: Net) -> str:
    gs = net.gateset
    # Names and labels are arbitrary strings; each label is quoted once.
    quoted = {label: json.dumps(label) for label in gs.labels}
    head = (
        f'{{"version":{NET_FORMAT_VERSION},'
        f'"gateset":{json.dumps(gs.name)},'
        f'"fingerprint":{json.dumps(gs.fingerprint())},'
        f'"max_len":{net.max_length},'
        f'"dedupe_tol":{fmt_float(net.dedupe_tol)},'
        f'"entries":['
    )
    rows = ",".join(
        '{"seq":[' + ",".join(map(quoted.__getitem__, seq)) + "]}" for seq in net.seqs
    )
    return head + rows + "]}\n"


def parse_net(text: str, gateset: GateSet | None = None) -> Net:
    doc = _load_json(
        text, "net cache", NET_FORMAT_VERSION, "; rebuild it with `threbase net build`"
    )
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
    if type(max_len) is not int or max_len < 0:
        raise ValidationError(f"bad max_len {max_len!r}")
    # json.loads reads bare NaN and Infinity, which emit_net cannot write
    # back as JSON; no comparison holds for NaN.
    if type(tol) not in (int, float) or not 0 < tol < math.inf:
        raise ValidationError(f"bad dedupe_tol {tol!r}")
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise ValidationError("entries must be a non-empty list")
    label_ids = {label: g for g, label in enumerate(gateset.labels)}
    if raw_entries[0] != {"seq": []}:
        raise _entry_error(raw_entries, 0, {}, label_ids, max_len)
    # Each entry costs a few C-level tests.  An entry's sequence minus its
    # last label must already be in `known`, which holds only entries that
    # passed, so checking the last label checks them all.  Any failure,
    # including a TypeError from hashing a non-label, goes to _entry_error,
    # which finds and names what is wrong.
    known = {(): 0}
    seqs, parents, lasts = [()], [0], [0]
    length = 1  # an empty sequence after entries[0] repeats it
    i = 0
    try:
        for i in range(1, len(raw_entries)):
            raw = raw_entries[i]
            seq = raw.get("seq") if type(raw) is dict and len(raw) == 1 else None
            if type(seq) is list and length <= len(seq) <= max_len:
                key = tuple(seq)
                parent = known.get(key[:-1])
                last = label_ids.get(key[-1])
                if parent is not None and last is not None and known.setdefault(key, i) == i:
                    seqs.append(key)
                    parents.append(parent)
                    lasts.append(last)
                    length = len(key)
                    continue
            raise _entry_error(raw_entries, i, known, label_ids, max_len)
    except TypeError:
        raise _entry_error(raw_entries, i, known, label_ids, max_len) from None
    return net_from_sequences(gateset, max_len, float(tol), seqs, parents, lasts)


def _entry_error(
    raw_entries: list, i: int, known: dict, label_ids: dict, max_len: int
) -> ValidationError:
    """What is wrong with entries[i], given that every earlier entry passed."""
    where = f"entries[{i}]"
    raw = raw_entries[i]
    if not isinstance(raw, dict):
        return ValidationError(f"{where}: expected an object")
    unknown = set(raw) - {"seq"}
    if unknown:
        return ValidationError(f"{where}: unknown field {sorted(unknown)[0]!r}")
    seq = raw.get("seq")
    if not isinstance(seq, list) or not all(isinstance(s, str) for s in seq):
        return ValidationError(f"{where}: seq must be a list of labels")
    bad = [s for s in seq if s not in label_ids]
    if bad:
        return ValidationError(f"{where}: unknown label {bad[0]!r}")
    if i == 0:
        return ValidationError(f"{where}: the first entry must be the empty sequence")
    if len(seq) > max_len:
        return ValidationError(f"{where}: sequence longer than max_len")
    if len(seq) < len(raw_entries[i - 1]["seq"]):
        return ValidationError(
            f"{where}: shorter than entries[{i - 1}]; entries must be shortest-first"
        )
    key = tuple(seq)
    if key in known:
        return ValidationError(f"{where}: repeats entries[{known[key]}]")
    return ValidationError(
        f"{where}: its sequence without the last label is not an earlier entry"
    )
