import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from threbase import (
    Circuit,
    Gate,
    GateKind,
    GateSet,
    SKConfig,
    build_net,
    demo_1q_gate_set,
    emit_circuit,
    emit_net,
    haar_unitary,
    kitaev_gate_set,
    parse_circuit,
    parse_net,
    realify_circuit,
    rebase_circuit,
    sk_trace,
)
from threbase import io as tio
from threbase.errors import ValidationError

DATA = Path(__file__).parent / "data"


def golden(name: str) -> str:
    return (DATA / name).read_text()


def test_circuit_golden_bytes_are_stable():
    text = golden("golden_circuit.json")
    c = parse_circuit(text)
    assert c.n_qubits == 3
    assert [g.kind for g in c.gates] == [
        GateKind.H, GateKind.CS, GateKind.CCX, GateKind.GENERIC, GateKind.CNOT,
    ]
    assert emit_circuit(c) == text


def test_circuit_roundtrip_is_byte_identical(corpus):
    for c in corpus[:20]:
        text = emit_circuit(c)
        again = emit_circuit(parse_circuit(text))
        assert again == text
        assert text.endswith("]}\n")


def test_generic_matrix_survives_roundtrip():
    rng = np.random.default_rng(30)
    from threbase import haar_unitary

    u = haar_unitary(4, rng)
    c = Circuit(3, [Gate(GateKind.GENERIC, (2, 0), u)])
    back = parse_circuit(emit_circuit(c))
    assert np.max(np.abs(back.gates[0].matrix - u)) < 1e-15
    assert emit_circuit(back) == emit_circuit(c)


def test_empty_circuit_roundtrip():
    c = Circuit(2, [])
    assert parse_circuit(emit_circuit(c)).gates == ()


def test_malformed_json_reports_position():
    with pytest.raises(ValidationError, match=r"line 2 column 13"):
        parse_circuit('{"version":1,\n  "qubits": }')


def test_circuit_version_and_shape_errors():
    with pytest.raises(ValidationError, match="version"):
        parse_circuit('{"version":2,"qubits":1,"gates":[]}')
    for version in ("true", "1.0"):
        with pytest.raises(ValidationError, match="unsupported circuit file version"):
            parse_circuit('{"version":' + version + ',"qubits":1,"gates":[]}')
    with pytest.raises(ValidationError, match="JSON object"):
        parse_circuit("[1,2]")
    with pytest.raises(ValidationError, match="positive integer"):
        parse_circuit('{"version":1,"qubits":0,"gates":[]}')
    # bool is an int subclass; emit_circuit would write it back as True.
    with pytest.raises(ValidationError, match="positive integer, got True"):
        parse_circuit('{"version":1,"qubits":true,"gates":[]}')
    with pytest.raises(ValidationError, match="gates must be a list"):
        parse_circuit('{"version":1,"qubits":1,"gates":{}}')


def test_circuit_gate_level_errors():
    head = '{"version":1,"qubits":2,"gates":['
    with pytest.raises(ValidationError, match=r"gates\[0\]: unknown gate name 'CQ'"):
        parse_circuit(head + '{"name":"CQ","qubits":[0]}]}')
    with pytest.raises(ValidationError, match=r"gates\[1\].*repeated"):
        parse_circuit(
            head + '{"name":"H","qubits":[0]},{"name":"CS","qubits":[1,1]}]}'
        )
    with pytest.raises(ValidationError, match=r"gates\[0\]: only generic"):
        parse_circuit(head + '{"name":"H","qubits":[0],"matrix":[[1,0]]}]}')
    with pytest.raises(ValidationError, match=r"gates\[0\]: unknown field"):
        parse_circuit(head + '{"name":"H","qubits":[0],"extra":1}]}')
    with pytest.raises(ValidationError, match="list of integers"):
        parse_circuit(head + '{"name":"H","qubits":"0"}]}')
    with pytest.raises(ValidationError, match="not a square"):
        parse_circuit(
            head + '{"name":"GENERIC","qubits":[0],"matrix":[[1,0],[0,0],[1,0]]}]}'
        )
    with pytest.raises(ValidationError, match=r"matrix\[0\]"):
        parse_circuit(head + '{"name":"GENERIC","qubits":[0],"matrix":[[1]]}]}')
    with pytest.raises(ValidationError, match=r"^gates\[0\]: matrix must be a non-empty list$"):
        parse_circuit(head + '{"name":"GENERIC","qubits":[0],"matrix":[]}]}')


@pytest.mark.parametrize(
    "literal",
    ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "1e999", "-1e999", "int400"],
)
@pytest.mark.parametrize("part", [0, 1])
def test_circuit_refuses_non_finite_matrix_entries(literal, part):
    # Refused before any matrix arithmetic, so numpy warns of nothing; the
    # entry sits in a two-qubit gate, whose unitarity check is a matmul.
    pairs = [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0],
             [0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [1, 0]]
    pairs[6][part] = "X"
    matrix = json.dumps(pairs).replace('"X"', literal)
    text = (
        '{"version":1,"qubits":2,"gates":[{"name":"H","qubits":[0]},'
        f'{{"name":"GENERIC","qubits":[0,1],"matrix":{matrix}}}]}}'
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^gates\[1\]: matrix\[6\] must be finite$"):
            parse_circuit(text)


@pytest.mark.parametrize("text", [
    '{"version":1,"qubits":2,"qubits":1,"gates":[{"name":"H","qubits":[0]}]}',
    '{"version":1,"qubits":2,"gates":[{"name":"H","qubits":[0],"qubits":[1]}]}',
], ids=["header", "gate"])
def test_circuit_refuses_repeated_keys(text):
    # The last key would win: the header one makes a 2-qubit circuit 1-qubit.
    with pytest.raises(ValidationError, match="malformed circuit file: repeated key 'qubits'"):
        parse_circuit(text)


def test_circuit_qubit_range_error():
    with pytest.raises(ValidationError):
        parse_circuit('{"version":1,"qubits":1,"gates":[{"name":"H","qubits":[1]}]}')


def test_net_golden_bytes_are_stable():
    text = golden("golden_net.json")
    net = parse_net(text)
    assert net.gateset.name == "kitaev"
    assert net.max_length == 2
    assert len(net) == 10
    assert emit_net(net) == text


def test_net_roundtrip_preserves_entries():
    net = build_net(demo_1q_gate_set(), 6)
    back = parse_net(emit_net(net), demo_1q_gate_set())
    assert [e.seq for e in back.entries] == [e.seq for e in net.entries]
    worst = max(
        float(np.max(np.abs(a.matrix - b.matrix)))
        for a, b in zip(net.entries, back.entries)
    )
    assert worst < 1e-15
    assert emit_net(back) == emit_net(net)


def test_net_roundtrip_escapes_names_and_labels():
    demo = demo_1q_gate_set()
    gs = GateSet(
        name='my"set\\',
        n_qubits=1,
        generators=tuple((f'{label}"\\', g) for label, g in demo.generators),
    )
    net = build_net(gs, 4)
    text = emit_net(net)
    assert json.loads(text)["gateset"] == 'my"set\\'
    back = parse_net(text, gs)
    assert back.seqs == net.seqs and len(back) > len(gs.labels)
    assert np.array_equal(back.stack, net.stack)
    assert emit_net(back) == emit_net(net)


def test_net_rejects_wrong_fingerprint():
    text = emit_net(build_net(kitaev_gate_set(), 1))
    doc = json.loads(text)
    doc["fingerprint"] = "0" * 64
    with pytest.raises(ValidationError, match="fingerprint.*rebuild"):
        parse_net(json.dumps(doc))
    with pytest.raises(ValidationError, match="does not match gate set"):
        parse_net(text, demo_1q_gate_set())


def test_net_rejects_unknown_gateset_name():
    text = emit_net(build_net(kitaev_gate_set(), 1))
    doc = json.loads(text)
    doc["gateset"] = "mystery"
    with pytest.raises(ValidationError, match="unknown gate set 'mystery'"):
        parse_net(json.dumps(doc))


def test_net_entry_validation():
    base = json.loads(emit_net(build_net(kitaev_gate_set(), 1)))

    def broken(**patch):
        doc = json.loads(json.dumps(base))
        doc.update(patch)
        return json.dumps(doc)

    with pytest.raises(ValidationError, match="bad max_len"):
        parse_net(broken(max_len=-1))
    with pytest.raises(ValidationError, match="bad max_len True"):
        parse_net(broken(max_len=True))
    with pytest.raises(ValidationError, match="bad dedupe_tol"):
        parse_net(broken(dedupe_tol=0))
    with pytest.raises(ValidationError, match="bad dedupe_tol True"):
        parse_net(broken(dedupe_tol=True))
    # json.loads reads bare NaN and Infinity; emit_net cannot write either.
    with pytest.raises(ValidationError, match="bad dedupe_tol nan"):
        parse_net(broken(dedupe_tol=float("nan")))
    with pytest.raises(ValidationError, match="bad dedupe_tol inf"):
        parse_net(broken(dedupe_tol=float("inf")))
    with pytest.raises(ValidationError, match="non-empty list"):
        parse_net(broken(entries=[]))

    doc = json.loads(json.dumps(base))
    doc["entries"][1]["seq"] = ["NOPE"]
    with pytest.raises(ValidationError, match=r"entries\[1\]: unknown label"):
        parse_net(json.dumps(doc))

    doc = json.loads(json.dumps(base))
    doc["entries"][2]["seq"] = ["H0", "H0"]
    with pytest.raises(ValidationError, match="longer than max_len"):
        parse_net(json.dumps(doc))

    doc = json.loads(json.dumps(base))
    doc["entries"][0]["matrix"] = [[1, 0], [0, 0], [0, 0], [1, 0]]
    with pytest.raises(ValidationError, match=r"entries\[0\]: unknown field 'matrix'"):
        parse_net(json.dumps(doc))


def test_net_refuses_repeated_keys():
    text = emit_net(build_net(kitaev_gate_set(), 1))
    assert parse_net(text)
    header = text.replace('"max_len":1,', '"max_len":1,"max_len":1,', 1)
    with pytest.raises(ValidationError, match="malformed net cache: repeated key 'max_len'"):
        parse_net(header)
    entry = text.replace('{"seq":["H0"]}', '{"seq":["H0"],"seq":["H0"]}', 1)
    assert entry != text
    with pytest.raises(ValidationError, match="malformed net cache: repeated key 'seq'"):
        parse_net(entry)


def test_version_one_net_cache_is_refused():
    doc = json.loads(emit_net(build_net(kitaev_gate_set(), 1)))
    doc["version"] = 1
    with pytest.raises(ValidationError) as e:
        parse_net(json.dumps(doc))
    assert str(e.value) == (
        "unsupported net cache version 1, expected 2; rebuild it with `threbase net build`"
    )


T_PAIRS = "[[1,0],[0,0],[0,0],[0.70710678118654757,0.70710678118654746]]"


@pytest.mark.parametrize(
    "good, bad, message",
    [
        ('{"name":"H","qubits":[1]}', '{"name":"H","qubits":[1.0]}',
         "qubits must be a list of integers"),
        # bool is an int subclass: unchecked, [true] would read as qubit 1
        # and [true,0] as the amplitude 1+0j.
        ('{"name":"H","qubits":[1]}', '{"name":"H","qubits":[true]}',
         "qubits must be a list of integers"),
        ('{"name":"CS","qubits":[0,1]}', '{"name":"CS","qubits":[false,true]}',
         "qubits must be a list of integers"),
        ('{"name":"GENERIC","qubits":[0],"matrix":' + T_PAIRS + "}",
         '{"name":"GENERIC","qubits":[0],"matrix":' + T_PAIRS.replace("[1,0]", "[true,0]") + "}",
         "matrix[0] must be a [re, im] pair"),
        ('{"name":"GENERIC","qubits":[0],"matrix":' + T_PAIRS + "}",
         '{"name":"GENERIC","qubits":[0],"matrix":'
         + T_PAIRS.replace("[0.70710678118654757,", '["0.70710678118654757",') + "}",
         "matrix[3] must be a [re, im] pair"),
        ('{"name":"H","qubits":[0]}', '{"name":"H","qubits":[0],"extra":1}',
         "unknown field 'extra'"),
    ],
)
def test_interning_keeps_the_index_of_the_first_bad_gate(good, bad, message):
    head = '{"version":1,"qubits":2,"gates":['
    parse_circuit(head + ",".join([good, good]) + "]}")
    for gates, index in (([good, good, bad, good], 2), ([bad, good, good], 0)):
        with pytest.raises(ValidationError) as e:
            parse_circuit(head + ",".join(gates) + "]}")
        assert str(e.value) == f"gates[{index}]: {message}"


def test_interned_gates_equal_freshly_built_ones():
    # Variants that validate alike but differ in type or in the sign of a
    # zero must each keep their own fields.
    variants = [
        '{"name":"H","qubits":[1]}',
        '{"qubits":[1],"name":"H"}',
        '{"name":"CS","qubits":[1,0]}',
        '{"name":"GENERIC","qubits":[0],"matrix":' + T_PAIRS + "}",
        '{"name":"GENERIC","qubits":[0],"matrix":' + T_PAIRS.replace("[0,0]", "[0,-0.0]") + "}",
        '{"name":"GENERIC","qubits":[0],"matrix":' + T_PAIRS.replace("[1,0]", "[1.0,0]") + "}",
    ]
    head = '{"version":1,"qubits":2,"gates":['
    order = [0, 3, 1, 4, 3, 0, 2, 5, 4, 4, 1, 2, 3]
    c = parse_circuit(head + ",".join(variants[i] for i in order) + "]}")
    for i, g in zip(order, c.gates):
        fresh = parse_circuit(head + variants[i] + "]}").gates[0]
        assert g == fresh and type(g.qubits[0]) is int
        if fresh.matrix is None:
            assert g.matrix is None
        else:
            assert g.matrix.tobytes() == fresh.matrix.tobytes()
            assert not g.matrix.flags.writeable
    assert emit_circuit(c) == emit_circuit(Circuit(2, [
        parse_circuit(head + variants[i] + "]}").gates[0] for i in order
    ]))


def _net_doc():
    return json.loads(emit_net(build_net(kitaev_gate_set(), 2)))


@pytest.mark.parametrize(
    "patch, message",
    [
        (lambda e: e[4].__setitem__("matrix", [[1, 0]]), "entries[4]: unknown field 'matrix'"),
        (lambda e: e[5].__setitem__("seq", "H0"), "entries[5]: seq must be a list of labels"),
        # An unhashable label reaches the dictionary lookups.
        (lambda e: e[6].__setitem__("seq", [["H1"], "CS"]),
         "entries[6]: seq must be a list of labels"),
        (lambda e: e[0].__setitem__("seq", ["H0"]),
         "entries[0]: the first entry must be the empty sequence"),
        (lambda e: e.insert(4, e.pop(3)),
         "entries[4]: shorter than entries[3]; entries must be shortest-first"),
        (lambda e: e.pop(1),
         "entries[3]: its sequence without the last label is not an earlier entry"),
        (lambda e: e[6].__setitem__("seq", ["H0", "CS"]), "entries[6]: repeats entries[5]"),
        (lambda e: e[1].__setitem__("seq", []), "entries[1]: repeats entries[0]"),
        (lambda e: e.__setitem__(3, []), "entries[3]: expected an object"),
        (lambda e: e.__setitem__(3, "entry"), "entries[3]: expected an object"),
    ],
)
def test_net_with_one_malformed_entry_names_it(patch, message):
    # entries: [], H0, H1, CS, then H0 H1, H0 CS, H1 CS, CS H0, CS H1, CS CS.
    doc = _net_doc()
    patch(doc["entries"])
    with pytest.raises(ValidationError) as e:
        parse_net(json.dumps(doc))
    assert str(e.value) == message


@pytest.mark.parametrize(
    "factory, lengths",
    [(kitaev_gate_set, range(1, 11)), (demo_1q_gate_set, range(1, 17))],
    ids=["kitaev", "ht"],
)
def test_loaded_net_matrices_equal_build_net_bitwise(factory, lengths):
    for length in lengths:
        net = build_net(factory(), length)
        back = parse_net(emit_net(net))
        assert [e.seq for e in back.entries] == [e.seq for e in net.entries]
        for a, b in zip(net.entries, back.entries):
            assert a.matrix.tobytes() == b.matrix.tobytes(), (length, a.seq)


# --- the canonical reading ---------------------------------------------------

def assert_same_circuit(a: Circuit, b: Circuit):
    assert a.n_qubits == b.n_qubits
    assert a.gates == b.gates
    for g, h in zip(a.gates, b.gates):
        assert (g.matrix is None) == (h.matrix is None)
        if g.matrix is not None:
            assert g.matrix.tobytes() == h.matrix.tobytes()


def canonical_texts(corpus, kitaev8, demo12) -> list[str]:
    rng = np.random.default_rng(2020)
    texts = [
        text for text in (path.read_text() for path in sorted(DATA.rglob("*.json")))
        if "gates" in json.loads(text)
    ]
    cfg = SKConfig(net=demo12, depth=2)
    gs = demo12.gateset
    for _ in range(3):
        seq, _ = list(sk_trace(haar_unitary(2, rng), cfg))[-1]
        texts.append(emit_circuit(Circuit(1, [gs.gate(label) for label in seq])))
    for c in corpus[:10]:
        texts.append(emit_circuit(realify_circuit(c)[0]))
    for _ in range(3):
        c = Circuit(3, [
            Gate(GateKind.GENERIC, (2, 0), haar_unitary(4, rng)),
            Gate(GateKind.X, (1,)),
            Gate(GateKind.GENERIC, (1,), haar_unitary(2, rng)),
            Gate(GateKind.CCX, (0, 2, 1)),
        ])
        texts.append(emit_circuit(rebase_circuit(c, kitaev8, 10.0)[0]))
    # emit_circuit writes -0.0 as 0, so both readers build +0.0 from it.
    z = -0.0 + -0.0j
    m = np.array([[1, z], [z, -1]])
    texts.append(emit_circuit(Circuit(2, [Gate(GateKind.GENERIC, (1,), m)] * 3)))
    return texts


def test_both_readers_give_the_same_circuit(corpus, kitaev8, demo12):
    texts = canonical_texts(corpus, kitaev8, demo12)
    # The eight circuit files under tests/data, then the generated texts.
    assert len(texts) == 8 + 3 + 10 + 3 + 1
    for text in texts:
        fast = tio._parse_canonical(text)
        assert fast is not None
        assert_same_circuit(fast, tio._parse_general(text))
        assert emit_circuit(parse_circuit(text)) == text


def general_outcome(text: str):
    try:
        return tio._parse_general(text)
    except ValidationError as e:
        return str(e)


BASE = (
    '{"version":1,"qubits":3,"gates":[{"name":"H","qubits":[0]},'
    '{"name":"CS","qubits":[0,1]},{"name":"GENERIC","qubits":[1],"matrix":'
    + T_PAIRS + '},{"name":"H","qubits":[0]}]}\n'
)


MUTATIONS = {
    "no-newline": ("]}\n", "]}"),
    "space-at-end": ("]}\n", "]} \n"),
    "space-in-header": ('"gates":[', '"gates": ['),
    "space-in-gate": ('{"name":"CS","qubits":[0,1]}', '{"name": "CS","qubits":[0,1]}'),
    "keys-reordered": ('{"name":"CS","qubits":[0,1]}', '{"qubits":[0,1],"name":"CS"}'),
    "float-qubit": ('"qubits":[0,1]', '"qubits":[0,1.0]'),
    "space-after-qubits": ('"qubits":[0,1]', '"qubits":[0,1] '),
    "int-minus-zero": ("[[1,0],[0,0]", "[[1,0],[-0,0]"),
    "float-minus-zero": ("[[1,0],[0,0]", "[[1,0],[0,-0.0]"),
    "float-one": ("[[1,0],[0,0]", "[[1.0,0],[0,0]"),
    "shortest-repr": ("0.70710678118654757", "0.7071067811865476"),
    "header-leading-zero": ('"qubits":3', '"qubits":03'),
    "header-float": ('"qubits":3', '"qubits":3.0'),
    "version-leading-zero": ('"version":1', '"version":01'),
    "repeated-key": ('{"name":"CS","qubits":[0,1]}', '{"name":"CS","name":"CS","qubits":[0,1]}'),
    "unknown-field": ('{"name":"CS","qubits":[0,1]}', '{"name":"CS","qubits":[0,1],"x":1}'),
    "nan-entry": ("[[1,0],[0,0]", "[[1,0],[NaN,0]"),
    "5001-digit-entry": ("[[1,0],[0,0]", "[[1,0],[" + "1" * 5001 + ",0]"),
    "5000-digit-qubits": ('"qubits":3', '"qubits":' + "1" * 5000),
    "qubit-out-of-range": ('{"name":"CS","qubits":[0,1]}', '{"name":"CS","qubits":[0,3]}'),
    "repeated-operand": ('{"name":"CS","qubits":[0,1]}', '{"name":"CS","qubits":[1,1]}'),
    "empty-gate": ('{"name":"CS","qubits":[0,1]}', '{"name":"CS","qubits":[0,1]},{}'),
    "nested-split": ('{"name":"CS","qubits":[0,1]}',
                     '{"name":"CS","qubits":[0,1]},{"x":{"y":1},{"z":2}}'),
    "trailing-comma": ('{"name":"CS","qubits":[0,1]}', '{"name":"CS","qubits":[0,1]},'),
    "nested-qubits": ('"qubits":[0]},', '"qubits":[[0]]},'),
    "first-gate-dropped": ('[{"name":"H","qubits":[0]},', "["),
    "empty-gate-list": (BASE[BASE.index("[{") + 1 : -3], ""),
    "number-gate-list": (BASE[BASE.index("[{") + 1 : -3], "1"),
    "unchanged": ("", ""),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_the_canonical_reading_falls_back_on_anything_else(mutation):
    # The canonical reading takes exactly the texts that emit_circuit
    # writes back unchanged; every other text gets the general reader's
    # circuit or message.
    old, new = MUTATIONS[mutation]
    text = BASE.replace(old, new, 1) if old else BASE
    assert (text != BASE) == (mutation != "unchanged")
    expected = general_outcome(text)
    canonical = isinstance(expected, Circuit) and emit_circuit(expected) == text
    fast = tio._parse_canonical(text)
    assert (fast is not None) == canonical
    try:
        got = parse_circuit(text)
    except ValidationError as e:
        assert str(e) == expected
    else:
        assert_same_circuit(got, expected)


def test_the_canonical_reading_decodes_each_distinct_gate_once(monkeypatch, demo12):
    gs = demo12.gateset
    labels = [gs.labels[i % len(gs.labels)] for i in range(300)]
    text = emit_circuit(Circuit(2, [gs.gate(label) for label in labels]))
    distinct = len(set(gs.labels))
    decoded, built = [], []
    loads, parse_gate = tio.json.loads, tio._parse_gate
    monkeypatch.setattr(tio.json, "loads", lambda s, **kw: decoded.append(s) or loads(s, **kw))
    monkeypatch.setattr(tio, "_parse_gate", lambda *a: built.append(a) or parse_gate(*a))
    c = parse_circuit(text)
    assert len(c) == 300 and emit_circuit(c) == text
    assert len(built) == len(decoded) == distinct
    assert all(s.startswith('{"name":') for s in decoded)
