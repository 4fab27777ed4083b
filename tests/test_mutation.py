"""Seeded mutations of every input file, through every subcommand in-process.

The readers check JSON shape and leave what a gate or a circuit must be to
Gate and Circuit, so this test drives damaged files through the whole CLI:
each run must end in an exit code, never an uncaught exception; exit 1
must come from a verify verdict or an unmet accuracy budget; and a file
that a reader accepts must re-emit to bytes that read back the same.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import random
import re
from pathlib import Path

import numpy as np

from threbase import (
    Circuit,
    Gate,
    GateKind,
    build_net,
    emit_circuit,
    emit_net,
    haar_unitary,
    kitaev_gate_set,
    parse_circuit,
    parse_net,
)
from threbase.circuit import MAX_WIDTH
from threbase.cli import main
from threbase.errors import ValidationError

DATA = Path(__file__).parent / "data"
MUTATION_SEED = 2021
MUTATIONS_PER_FILE = 20
# Nine inputs: the eight circuit files under tests/data and one net cache.
MUTATION_COUNT = 9 * MUTATIONS_PER_FILE


class Obj(list):
    """A JSON object as its (key, value) pairs, so a key may repeat."""


def load(text: str):
    return json.loads(text, object_pairs_hook=Obj)


def dump(v) -> str:
    if isinstance(v, Obj):
        return "{" + ",".join(json.dumps(k) + ":" + dump(x) for k, x in v) + "}"
    if isinstance(v, list):
        return "[" + ",".join(map(dump, v)) + "]"
    # json.dumps writes NaN and Infinity as json.loads reads them.
    return json.dumps(v)


def slots(v, out: list) -> list:
    """(container, index) of every value below v, in document order."""
    if isinstance(v, list):
        for i, x in enumerate(v):
            out.append((v, i))
            slots(x[1] if isinstance(v, Obj) else x, out)
    return out


def get(c, i):
    return c[i][1] if isinstance(c, Obj) else c[i]


def put(c, i, x):
    if isinstance(c, Obj):
        c[i] = (c[i][0], x)
    else:
        c[i] = x


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def mutate(text: str, rng: random.Random, count_key: str) -> tuple[str, str]:
    """(name, text) of one seeded mutation of text."""
    kind = rng.choice([
        "repeat-key", "drop-key", "swap-type", "bool-for-int", "nan-for-number",
        "nest", "truncate", "lengthen-count",
    ])
    if kind == "truncate":
        return kind, text[: rng.randrange(len(text))]
    if kind == "lengthen-count":
        # 5,000 digits pass Python's int() digit limit; 4,000 do not.
        new = rng.choice(["1" * 5000, "1" * 4000, str(MAX_WIDTH + 1), str(MAX_WIDTH), "5", "9"])
        return kind, re.sub(f'"{count_key}":[0-9]+', f'"{count_key}":{new}', text, count=1)
    doc = load(text)
    places = slots(doc, [])
    if kind in ("repeat-key", "drop-key"):
        objs = [o for o in [doc] + [get(c, i) for c, i in places] if isinstance(o, Obj) and o]
        o = rng.choice(objs)
        i = rng.randrange(len(o))
        if kind == "repeat-key":
            o.insert(rng.randrange(len(o) + 1), (o[i][0], rng.choice([o[i][1], 0, "H"])))
        else:
            del o[i]
        return kind, dump(doc)
    if rng.random() < 0.5:
        # A field of an object, not a matrix entry, half the time.
        places = [p for p in places if isinstance(p[0], Obj)]
    if kind == "bool-for-int":
        places = [p for p in places if type(get(*p)) is int] or places
    elif kind == "nan-for-number":
        places = [p for p in places if is_number(get(*p))] or places
    c, i = rng.choice(places)
    if kind == "swap-type":
        others = [x for x in ("s", 7, 0.5, None, [], Obj(), True) if type(x) is not type(get(c, i))]
        put(c, i, rng.choice(others))
    elif kind == "bool-for-int":
        put(c, i, rng.choice([True, False]))
    elif kind == "nan-for-number":
        put(c, i, rng.choice([math.nan, math.inf, -math.inf]))
    else:  # nest
        put(c, i, "NEST")
        return kind, dump(doc).replace('"NEST"', "[" * 100_000 + "]" * 100_000, 1)
    return kind, dump(doc)


def call(argv) -> tuple[int, str, str]:
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def same_circuit(a: Circuit, b: Circuit) -> bool:
    return (
        a.n_qubits == b.n_qubits
        and a.gates == b.gates
        and all(
            (g.matrix is None and h.matrix is None) or g.matrix.tobytes() == h.matrix.tobytes()
            for g, h in zip(a.gates, b.gates)
        )
    )


def same_net(a, b) -> bool:
    return (a.seqs, a.max_length, a.dedupe_tol, a.gateset.name) == (
        b.seqs, b.max_length, b.dedupe_tol, b.gateset.name
    )


def test_seeded_mutations_exit_cleanly_and_accepted_files_round_trip(monkeypatch, tmp_path):
    # A mutated width stays small enough for the dense checks.
    monkeypatch.setenv("TH_REBASE_MAX_QUBITS", "6")
    k4 = tmp_path / "k4.json"
    k4.write_text(emit_net(build_net(kitaev_gate_set(), 4)))
    generic = tmp_path / "generic.json"
    u = haar_unitary(2, np.random.default_rng(4))
    generic.write_text(emit_circuit(Circuit(2, [Gate(GateKind.GENERIC, (1,), u)])))
    circuits = [
        p for p in sorted(DATA.rglob("*.json")) if "gates" in json.loads(p.read_text())
    ]
    assert len(circuits) == 8
    inputs = [(p, "qubits") for p in circuits] + [(k4, "max_len")]

    rng = random.Random(MUTATION_SEED)
    bad = tmp_path / "bad.json"
    seen, accepted, failures = set(), 0, []
    for path, count_key in inputs:
        original = path.read_text()
        width = json.loads(original).get("qubits", 2)
        for _ in range(MUTATIONS_PER_FILE):
            kind, text = mutate(original, rng, count_key)
            seen.add(kind)
            bad.write_text(text)
            if count_key == "qubits":
                reader, emit, same = parse_circuit, emit_circuit, same_circuit
                runs = [
                    ["transpile", str(bad), "--to", "th", "--net", str(k4), "--eps", "4"],
                    ["transpile", str(bad), "--to", "kitaev", "--net", str(k4), "--eps", "4"],
                    ["verify", str(path), str(bad), "--mode",
                     rng.choice(["exact", "realified", "stats"])],
                    ["simulate", str(bad), "--input", "0" * width],
                ]
            else:
                reader, emit, same = parse_net, emit_net, same_net
                runs = [
                    ["net", "inspect", str(bad)],
                    ["transpile", str(generic), "--to", "kitaev", "--net", str(bad), "--eps", "4"],
                    ["bench", "--sk-scaling", "--targets", "1", "--max-depth", "1",
                     "--net", str(bad)],
                ]
            for argv in runs:
                try:
                    code, out, err = call(argv)
                except Exception as e:  # noqa: BLE001 - any escape is the failure
                    failures.append((kind, argv[0], f"uncaught {type(e).__name__}: {e}"[:200]))
                    continue
                if code not in (0, 1, 2, 3):
                    failures.append((kind, argv[0], f"exit {code}"))
                elif code == 1 and not (
                    (argv[0] == "verify" and out.endswith("passed: no\n"))
                    or (argv[0] != "verify" and "\nbest_achieved: " in err)
                ):
                    failures.append((kind, argv[0], f"exit 1 without a verdict: {err[:200]}"))
            try:
                got = reader(text)
            except ValidationError:
                continue
            accepted += 1
            if count_key == "qubits" and not got.n_qubits <= MAX_WIDTH:
                failures.append((kind, "read", "a width over MAX_WIDTH was accepted"))
            if not same(got, reader(emit(got))):
                failures.append((kind, "read", "the re-emitted file reads back differently"))
    assert not failures, failures[:10]
    assert len(seen) == 8
    # Some mutations leave a readable file and most do not.
    assert 0 < accepted < MUTATION_COUNT / 2
