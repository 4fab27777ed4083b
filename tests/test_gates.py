import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from threbase import (
    Gate,
    GateKind,
    GateSet,
    demo_1q_gate_set,
    gate_matrix,
    kitaev_gate_set,
)
from threbase.errors import ValidationError

CS = np.diag([1, 1, 1, 1j])
CZ = np.diag([1, 1, 1, -1])


def test_controlled_phase_matrix_and_powers():
    m = gate_matrix(GateKind.CS)
    assert np.array_equal(m, CS)
    assert np.allclose(m @ m, CZ, atol=0)
    assert np.allclose(m @ m @ m, gate_matrix(GateKind.CSDG), atol=0)
    assert np.allclose(m @ m @ m @ m, np.eye(4), atol=0)


def test_standard_matrices():
    h = gate_matrix(GateKind.H)
    assert np.allclose(h @ h, np.eye(2), atol=1e-15)
    assert np.allclose(
        gate_matrix(GateKind.S) @ gate_matrix(GateKind.SDG), np.eye(2), atol=0
    )
    ccx = gate_matrix(GateKind.CCX)
    assert ccx.shape == (8, 8)
    assert np.array_equal(ccx[:, 6], np.eye(8)[7])
    assert np.array_equal(ccx[:, 7], np.eye(8)[6])
    assert np.array_equal(ccx[:6, :6], np.eye(6))


def test_gate_arity_validation():
    with pytest.raises(ValidationError):
        Gate(GateKind.H, (0, 1))
    with pytest.raises(ValidationError):
        Gate(GateKind.CS, (0,))
    with pytest.raises(ValidationError):
        Gate(GateKind.CCX, (0, 1))


def test_repeated_operands_rejected():
    with pytest.raises(ValidationError):
        Gate(GateKind.CS, (1, 1))
    with pytest.raises(ValidationError):
        Gate(GateKind.CCX, (0, 1, 0))


def test_negative_qubits_rejected():
    with pytest.raises(ValidationError):
        Gate(GateKind.H, (-1,))


def test_generic_gate_needs_unitary_matrix():
    with pytest.raises(ValidationError):
        Gate(GateKind.GENERIC, (0,), np.array([[1, 0], [0, 2]]))
    with pytest.raises(ValidationError):
        Gate(GateKind.GENERIC, (0,))
    with pytest.raises(ValidationError):
        Gate(GateKind.H, (0,), np.eye(2))
    g = Gate(GateKind.GENERIC, (0, 1), np.diag([1, 1, 1j, -1]))
    assert gate_matrix(g).shape == (4, 4)


def test_generic_matrix_must_match_arity():
    with pytest.raises(ValidationError):
        Gate(GateKind.GENERIC, (0,), np.eye(4))
    with pytest.raises(ValidationError, match=r"^GENERIC gate supports 1\.\.3 qubits, got 4$"):
        Gate(GateKind.GENERIC, (0, 1, 2, 3), np.eye(16))


def test_generic_kind_has_no_fixed_matrix():
    with pytest.raises(ValidationError, match="^GENERIC has no fixed matrix$"):
        gate_matrix(GateKind.GENERIC)


def test_gate_equality_and_hash():
    a = Gate(GateKind.GENERIC, (0,), np.diag([1, 1j]))
    b = Gate(GateKind.GENERIC, (0,), np.diag([1, 1j]))
    c = Gate(GateKind.GENERIC, (0,), np.diag([1, -1j]))
    assert a == b and hash(a) == hash(b)
    assert a != c
    # A name for the kind and numpy or list operands make an equal gate.
    for x, y in [
        (Gate(GateKind.CS, (0, 1)), Gate("CS", [np.int64(0), 1])),
        (a, Gate("GENERIC", [0], np.diag([1, 1j]).tolist())),
    ]:
        assert x == y and hash(x) == hash(y) and {x: 1}[y] == 1
    assert Gate(GateKind.H, (0,)) != Gate(GateKind.H, (1,))
    assert Gate(GateKind.H, (0,)) != ("H", (0,))


def test_equal_gates_with_signed_zeros_hash_equal():
    a = Gate(GateKind.GENERIC, (0,), np.array([[1, 0.0], [0.0, 1]], dtype=complex))
    b = Gate(GateKind.GENERIC, (0,), np.array([[1, -0.0], [complex(0.0, -0.0), 1]]))
    assert a.matrix.tobytes() != b.matrix.tobytes()
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# Built in a process with another hash salt: the unpickled gates must hash
# as gates built there from the same arguments do.
_UNPICKLE = """
import pickle, sys
import numpy as np
from threbase import Gate, GateKind
gates = pickle.loads(sys.stdin.buffer.read())
fresh = [Gate(GateKind.H, (0,)), Gate(GateKind.CCX, (2, 0, 1)),
         Gate(GateKind.GENERIC, (1,), np.array([[0, 1j], [1j, -0.0]]))]
assert gates == fresh
assert [hash(g) for g in gates] == [hash(g) for g in fresh]
assert all({f: k}[g] == k for k, (g, f) in enumerate(zip(gates, fresh)))
print(hash(GateKind.H))
"""


def test_pickled_gate_rehashes_in_another_process():
    gates = [
        Gate(GateKind.H, (0,)),
        Gate(GateKind.CCX, (2, 0, 1)),
        Gate(GateKind.GENERIC, (1,), np.array([[0, 1j], [1j, 0.0]])),
    ]
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    done = subprocess.run(
        [sys.executable, "-c", _UNPICKLE],
        input=pickle.dumps(gates),
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    # The salt really differed, so a carried hash would have been wrong.
    assert int(done.stdout) != hash(GateKind.H)


def test_kitaev_set_embeds_generators():
    gs = kitaev_gate_set()
    assert gs.labels == ("H0", "H1", "CS")
    h = gate_matrix(GateKind.H)
    assert np.allclose(gs.matrix("H0"), np.kron(h, np.eye(2)), atol=1e-15)
    assert np.allclose(gs.matrix("H1"), np.kron(np.eye(2), h), atol=1e-15)
    assert np.array_equal(gs.matrix("CS"), CS)
    for lab, g in gs.generators:
        assert gs.gate(lab) is g
    with pytest.raises(ValidationError, match="^unknown generator 'T'$"):
        gs.gate("T")


def test_inverse_labels_by_powering():
    gs = kitaev_gate_set()
    assert gs.inverse_labels("H0") == ("H0",)
    assert gs.inverse_labels("CS") == ("CS", "CS", "CS")
    for lab in gs.labels:
        seq = (lab,) + gs.inverse_labels(lab)
        assert np.allclose(gs.evaluate(seq), np.eye(4), atol=1e-12)


def test_inverse_labels_when_closed():
    gs = demo_1q_gate_set()
    assert gs.inverse_labels("H") == ("H",)
    assert gs.inverse_labels("T") == ("TDG",)
    assert gs.inverse_labels("TDG") == ("T",)


def test_missing_inverse_fails_when_asked_not_when_built():
    # {H, S} has no generator equal to S^dag, so S is inverted by powering;
    # an irrational rotation beside its adjoint is inverted by that adjoint.
    gs = GateSet(
        name="half",
        n_qubits=1,
        generators=(("H", Gate(GateKind.H, (0,))), ("S", Gate(GateKind.S, (0,)))),
    )
    assert gs.inverse_labels("H") == ("H",)
    assert gs.inverse_labels("S") == ("S", "S", "S")
    for lab in gs.labels:
        seq = (lab,) + gs.inverse_labels(lab)
        assert np.allclose(gs.evaluate(seq), np.eye(2), atol=1e-12)
    r = np.diag([1.0, np.exp(1j * np.pi / 4 * np.sqrt(2))])
    pair = GateSet(
        name="irr",
        n_qubits=1,
        generators=(
            ("R", Gate(GateKind.GENERIC, (0,), r)),
            ("RDG", Gate(GateKind.GENERIC, (0,), r.conj().T)),
        ),
    )
    assert pair.inverse_labels("R") == ("RDG",)
    assert pair.inverse_labels("RDG") == ("R",)
    with pytest.raises(ValidationError, match="unknown generator"):
        gs.inverse_labels("T")
    with pytest.raises(ValidationError, match="unknown generator"):
        kitaev_gate_set().inverse_labels("T")


def test_evaluate_is_application_order():
    gs = kitaev_gate_set()
    want = gs.matrix("CS") @ gs.matrix("H0")
    assert np.allclose(gs.evaluate(("H0", "CS")), want, atol=1e-15)
    with pytest.raises(ValidationError):
        gs.evaluate(("NOPE",))


def test_fingerprint_distinguishes_sets():
    a, b = kitaev_gate_set(), demo_1q_gate_set()
    assert a.fingerprint() == kitaev_gate_set().fingerprint()
    assert a.fingerprint() != b.fingerprint()


def test_gateset_rejects_duplicate_labels():
    with pytest.raises(ValidationError):
        GateSet(
            name="dup",
            n_qubits=1,
            generators=(
                ("H", Gate(GateKind.H, (0,))),
                ("H", Gate(GateKind.X, (0,))),
            ),
        )


@pytest.mark.parametrize("name", ["_gates", "_matrices", "_inverses"])
def test_gateset_tables_are_not_parameters(name):
    # A caller's dict passed here would be filled in place and shared.
    shared = {}
    gens = (("H", Gate(GateKind.H, (0,))),)
    with pytest.raises(TypeError, match=name):
        GateSet("a", 1, gens, **{name: shared})
    assert shared == {}


def test_gateset_rejects_out_of_domain_generators():
    with pytest.raises(ValidationError):
        GateSet(
            name="narrow",
            n_qubits=1,
            generators=(("CS", Gate(GateKind.CS, (0, 1))),),
        )


def test_infinite_order_generator_needs_inverse_closure():
    t = np.diag([1.0, np.exp(1j * np.pi / 4 * np.sqrt(2))])
    gen = ("R", Gate(GateKind.GENERIC, (0,), t))
    with pytest.raises(ValidationError):
        GateSet(name="irr", n_qubits=1, generators=(gen,))


def test_gate_owns_its_rules():
    # A library caller is held to what a file's gate is: integer operands,
    # a known name, and a matrix only on GENERIC.
    for qubits in ((1.5,), (True,), (np.bool_(True),), "0", None):
        with pytest.raises(ValidationError, match="^qubits must be a list of integers$"):
            Gate(GateKind.H, qubits)
    for name in ("FOO", ["H"], None):
        with pytest.raises(ValidationError, match="^unknown gate name "):
            Gate(name, (0,))
    with pytest.raises(ValidationError, match="^only generic gates may carry a matrix$"):
        Gate(GateKind.H, (0,), gate_matrix(GateKind.H))
    # numpy integers and a kind's name still pass, as plain ints and a GateKind.
    g = Gate("CS", (np.int64(2), np.int32(0)))
    assert g == Gate(GateKind.CS, (2, 0)) and g.kind is GateKind.CS
    assert [type(q) for q in g.qubits] == [int, int]
