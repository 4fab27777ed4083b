import errno
import json
import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

from threbase import (
    Circuit,
    Gate,
    GateKind,
    check_realified,
    emit_circuit,
    haar_unitary,
    parse_circuit,
)
from threbase.cli import main
from threbase.errors import CompileError


def write_circuit(path, c):
    path.write_text(emit_circuit(c))
    return str(path)


@pytest.fixture()
def h_file(tmp_path):
    return write_circuit(tmp_path / "h.json", Circuit(1, [Gate(GateKind.H, (0,))]))


@pytest.fixture()
def kitaev_file(tmp_path):
    c = Circuit(2, [Gate(GateKind.H, (0,)), Gate(GateKind.CS, (0, 1)), Gate(GateKind.H, (1,))])
    return write_circuit(tmp_path / "k.json", c)


def test_simulate_prints_exact_amplitudes(capsys, h_file):
    assert main(["simulate", h_file, "--input", "0"]) == 0
    out = capsys.readouterr().out
    r = format(1 / np.sqrt(2), ".17g")
    assert out == f"|0> {r} 0\n|1> {r} 0\n"


def test_simulate_toffoli_flips_target(capsys, tmp_path):
    f = write_circuit(tmp_path / "ccx.json", Circuit(3, [Gate(GateKind.CCX, (0, 1, 2))]))
    assert main(["simulate", f, "--input", "110"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[7] == "|111> 1 0"
    assert out[6] == "|110> 0 0"


def test_simulate_prints_no_negative_zero(capsys, tmp_path):
    f = write_circuit(tmp_path / "h2.json", Circuit(2, [Gate(GateKind.H, (0,))]))
    assert main(["simulate", f, "--input", "00"]) == 0
    r = format(1 / np.sqrt(2), ".17g")
    assert capsys.readouterr().out == f"|00> {r} 0\n|01> 0 0\n|10> {r} 0\n|11> 0 0\n"
    # S after H takes the complex route, whose matmul can leave -0.0 parts.
    hs = Circuit(2, [Gate(GateKind.H, (0,)), Gate(GateKind.S, (0,))])
    f = write_circuit(tmp_path / "hs.json", hs)
    assert main(["simulate", f, "--input", "00"]) == 0
    out = capsys.readouterr().out
    assert out == f"|00> {r} 0\n|01> 0 0\n|10> 0 {r}\n|11> 0 0\n"


def test_simulate_rejects_bad_bitstring(capsys, h_file):
    assert main(["simulate", h_file, "--input", "01"]) == 2
    assert "1-bit string" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert main(["simulate", "/nonexistent.json", "--input", "0"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_unwritable_output_is_usage_error(capsys, tmp_path, kitaev_file):
    out = tmp_path / "missing" / "out.json"
    assert main(["transpile", kitaev_file, "--to", "kitaev", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.fixture(params=["transpile", "net build"])
def fresh(request, capsys, tmp_path, kitaev_file):
    """(argv of a command that writes a file with -o, the bytes it writes
    to a new path)."""
    argv = {
        "transpile": ["transpile", kitaev_file, "--to", "th"],
        "net build": ["net", "build", "--set", "kitaev", "--max-len", "2"],
    }[request.param]
    path = tmp_path / "fresh.out"
    assert main(argv + ["-o", str(path)]) == 0
    capsys.readouterr()
    return argv, path.read_bytes()


def test_output_to_a_new_file_is_what_stdout_gets(capsys, fresh):
    argv, data = fresh
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == data


@pytest.mark.parametrize("old", ["empty", "shorter", "same length", "longer"])
def test_output_over_an_existing_file_is_a_fresh_write(capsys, tmp_path, fresh, old):
    argv, data = fresh
    size = {"empty": 0, "shorter": len(data) // 2, "same length": len(data), "longer": 3 * len(data)}
    target = tmp_path / "old.out"
    target.write_bytes(b"x" * size[old])
    assert main(argv + ["-o", str(target)]) == 0
    assert target.read_bytes() == data


def test_output_over_an_existing_file_keeps_its_inode_and_mode(capsys, tmp_path, fresh):
    argv, data = fresh
    target = tmp_path / "old.out"
    target.write_bytes(b"x" * (3 * len(data)))
    target.chmod(0o640)
    before = target.stat()
    assert main(argv + ["-o", str(target)]) == 0
    after = target.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert target.read_bytes() == data


def test_output_is_not_truncated_to_zero_first(capsys, monkeypatch, tmp_path, fresh):
    # Truncating to zero and then writing costs several times what writing
    # in place and cutting the file to length does on ext4.
    argv, data = fresh
    target = tmp_path / "old.out"
    target.write_bytes(b"x" * (3 * len(data)))
    flags = []
    real_open = os.open

    def recording(path, fl, *args, **kwargs):
        if os.fspath(path) == str(target):
            flags.append(fl)
        return real_open(path, fl, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    assert main(argv + ["-o", str(target)]) == 0
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
    assert target.read_bytes() == data


def test_output_through_a_symlink_rewrites_its_target(capsys, tmp_path, fresh):
    argv, data = fresh
    real = tmp_path / "real.out"
    real.write_bytes(b"x" * (3 * len(data)))
    link = tmp_path / "link.out"
    link.symlink_to(real)
    assert main(argv + ["-o", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == data


@pytest.mark.parametrize("to", ["th", "kitaev"])
def test_transpile_output_over_its_own_input(capsys, tmp_path, kitaev_file, to):
    # Indented, the input is longer than the canonical kitaev output; as
    # written, it is shorter than the realified th output.
    src = tmp_path / "self.json"
    indent = 2 if to == "kitaev" else None
    src.write_text(json.dumps(json.loads(Path(kitaev_file).read_text()), indent=indent))
    fresh_path = tmp_path / "fresh.json"
    assert main(["transpile", str(src), "--to", to, "-o", str(fresh_path)]) == 0
    assert (src.stat().st_size > fresh_path.stat().st_size) == (to == "kitaev")
    assert main(["transpile", str(src), "--to", to, "-o", str(src)]) == 0
    assert src.read_bytes() == fresh_path.read_bytes()


def test_output_to_dev_null_exits_0(capsys, fresh):
    argv, _ = fresh
    assert main(argv + ["-o", os.devnull]) == 0


@pytest.mark.parametrize("kind", ["fifo", "pipe"])
def test_output_to_a_fifo_or_pipe_is_a_fresh_write(capsys, tmp_path, fresh, kind):
    # A pipe cannot be cut to length: the writer must not try.
    argv, data = fresh
    if kind == "fifo":
        target = tmp_path / "fifo"
        os.mkfifo(target)
        reader = None
    else:
        reader, writer = os.pipe()
        target = f"/dev/fd/{writer}"
    got = []

    def drain():
        with open(target if reader is None else reader, "rb") as f:
            got.append(f.read())

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    code = main(argv + ["-o", str(target)])
    if reader is not None:
        os.close(writer)
    thread.join(timeout=60)
    assert code == 0
    assert not thread.is_alive()
    assert got == [data]


@pytest.mark.parametrize("kind", ["directory", "read-only file"])
def test_output_that_cannot_be_opened_exits_2(capsys, tmp_path, fresh, kind):
    argv, data = fresh
    if kind == "directory":
        target, err = tmp_path, errno.EISDIR
    else:
        if os.geteuid() == 0:
            pytest.skip("root writes read-only files")
        target, err = tmp_path / "ro.out", errno.EACCES
        target.write_bytes(b"x" * (3 * len(data)))
        target.chmod(0o444)
    assert main(argv + ["-o", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {target}: {os.strerror(err)}\n"
    assert captured.out == ""
    if kind != "directory":
        assert target.read_bytes() == b"x" * (3 * len(data))


@pytest.mark.parametrize("command", ["transpile", "bench"])
def test_empty_net_path_is_a_missing_file(capsys, tmp_path, command):
    # --net "" names no file; it is not the same as leaving --net out.
    u = haar_unitary(4, np.random.default_rng(2))
    f = write_circuit(tmp_path / "u.json", Circuit(2, [Gate(GateKind.GENERIC, (0, 1), u)]))
    argv = {
        "transpile": ["transpile", f, "--to", "kitaev", "--eps", "2", "--net", ""],
        "bench": ["bench", "--sk-scaling", "--targets", "1", "--max-depth", "0", "--net", ""],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot read : {os.strerror(errno.ENOENT)}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "raised, code, message",
    [
        # numpy's own message when a raised cap asks for a matrix the host
        # cannot hold; no test allocates one.
        (MemoryError("Unable to allocate 128. GiB"), 3,
         "error: out of memory: Unable to allocate 128. GiB\n"),
        (CompileError("group commutator residual 1e-3"), 1,
         "error: group commutator residual 1e-3\n"),
    ],
    ids=["memory", "compile"],
)
def test_other_failures_exit_on_one_line(capsys, monkeypatch, kitaev_file, raised, code, message):
    from threbase import verify

    def fail(*args, **kwargs):
        raise raised

    monkeypatch.setattr(verify, "check_exact", fail)
    assert main(["verify", kitaev_file, kitaev_file]) == code
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def test_transpile_th_realifies_kitaev_circuit(capsys, kitaev_file, tmp_path):
    out_path = tmp_path / "out.json"
    assert main(["transpile", kitaev_file, "--to", "th", "-o", str(out_path)]) == 0
    report = capsys.readouterr().out
    assert "error_bound: 0\n" in report
    assert "output_qubits: 3\n" in report
    original = parse_circuit(Path(kitaev_file).read_text())
    produced = parse_circuit(out_path.read_text())
    assert {g.kind for g in produced.gates} <= {GateKind.H, GateKind.CCX}
    assert check_realified(original, produced).passed


def test_transpile_th_passthrough_when_already_in_target(capsys, tmp_path):
    # Every gate of an {H, CCX} input passes through, and the output still
    # carries the flag qubit, so the realified check reads the pair.
    c = Circuit(3, [Gate(GateKind.CCX, (0, 1, 2)), Gate(GateKind.H, (1,))])
    f = write_circuit(tmp_path / "th.json", c)
    out_path = tmp_path / "th_out.json"
    assert main(["transpile", f, "--to", "th", "-o", str(out_path)]) == 0
    assert "output_qubits: 4\n" in capsys.readouterr().out
    assert out_path.read_text() == emit_circuit(Circuit(4, c.gates))
    assert main(["verify", f, str(out_path), "--mode", "realified"]) == 0
    assert "passed: yes\n" in capsys.readouterr().out


def test_transpile_kitaev_writes_h_cs_input_bytes(capsys, kitaev_file, tmp_path):
    out_path = tmp_path / "out.json"
    assert main(["transpile", kitaev_file, "--to", "kitaev", "-o", str(out_path)]) == 0
    assert "error_bound: 0\n" in capsys.readouterr().out
    assert out_path.read_bytes() == Path(kitaev_file).read_bytes()


def test_transpile_kitaev_rewrites_exact_table(capsys, tmp_path, kitaev_net_file):
    c = Circuit(2, [Gate(GateKind.CZ, (0, 1)), Gate(GateKind.CNOT, (1, 0))])
    f = write_circuit(tmp_path / "cz.json", c)
    assert main(["transpile", f, "--to", "kitaev", "--net", kitaev_net_file]) == 0
    cap = capsys.readouterr()
    produced = parse_circuit(cap.out)
    assert {g.kind for g in produced.gates} <= {GateKind.H, GateKind.CS}
    assert "error_bound: 0\n" in cap.err


@pytest.fixture(scope="module")
def kitaev_net_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("nets") / "kitaev6.json"
    assert main(["net", "build", "--set", "kitaev", "--max-len", "6", "-o", str(path)]) == 0
    return str(path)


def test_transpile_th_passes_ccx_through(capsys, tmp_path, kitaev_net_file):
    c = Circuit(4, [
        Gate(GateKind.H, (0,)),
        Gate(GateKind.CNOT, (0, 3)),
        Gate(GateKind.CCX, (3, 1, 2)),
        Gate(GateKind.CS, (2, 0)),
        Gate(GateKind.CCX, (0, 2, 1)),
        Gate(GateKind.H, (3,)),
    ])
    f = write_circuit(tmp_path / "mixed.json", c)
    out_path = tmp_path / "mixed_th.json"
    args = ["transpile", f, "--to", "th", "--net", kitaev_net_file, "-o", str(out_path)]
    assert main(args) == 0
    assert "error_bound: 0\n" in capsys.readouterr().out
    produced = parse_circuit(out_path.read_text())
    assert {g.kind for g in produced.gates} <= {GateKind.H, GateKind.CCX}
    assert produced.gates.count(Gate(GateKind.CCX, (3, 1, 2))) == 1
    assert main(["verify", f, str(out_path), "--mode", "realified", "--tol", "1e-10"]) == 0
    assert "passed: yes\n" in capsys.readouterr().out
    # The kitaev target has no CCX, so it takes CCX's exact word.
    k_path = tmp_path / "mixed_kitaev.json"
    args = ["transpile", f, "--to", "kitaev", "--net", kitaev_net_file, "-o", str(k_path)]
    assert main(args) == 0
    assert "error_bound: 0\n" in capsys.readouterr().out
    produced = parse_circuit(k_path.read_text())
    assert {g.kind for g in produced.gates} <= {GateKind.H, GateKind.CS}
    assert main(["verify", f, str(k_path), "--mode", "exact"]) == 0
    assert "passed: yes\n" in capsys.readouterr().out


GOLDEN = Path(__file__).parent / "data" / "transpile"


@pytest.mark.parametrize("name, to", [
    ("mixed", "kitaev"), ("mixed", "th"), ("mixed_ccx", "th"), ("h_ccx", "th"),
])
def test_transpile_golden_bytes(capsys, tmp_path, name, to):
    # The inputs take every route: pass-through (H and CS, and CCX on th,
    # here also a whole {H, CCX} circuit), the exact words in both operand
    # orders (X and S on qubits 0 and 2 with their partners) and net search
    # (one two-qubit GENERIC).  h_ccx's th files were regenerated when th
    # output always gained the flag qubit; the mixed ones were regenerated
    # when X, Z, S and SDG took their exact words, and their th files again
    # when th chose and summed net entries by the phase-fixed distance.
    out_path = tmp_path / "out.json"
    src = str(GOLDEN / f"{name}.in.json")
    assert main(["transpile", src, "--to", to, "--eps", "10", "-o", str(out_path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{to}.report").read_text()
    assert out_path.read_bytes() == (GOLDEN / f"{name}.{to}.out.json").read_bytes()


# Float slack on "verify measures at most error_bound": each gate's error is
# a norm taken on the net entry's product, while verify simulates the
# emitted word; both round within about 1e-15 of exact on these circuits.
BOUND_SLACK = 1e-12


def transpile_bound(capsys, src, to, out, net_file, eps="100"):
    args = ["transpile", src, "--to", to, "--eps", eps, "--net", net_file, "-o", out]
    assert main(args) == 0
    report = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    return float(report["error_bound"])


@pytest.mark.parametrize("to, mode", [("th", "realified"), ("kitaev", "exact")],
                         ids=["th", "kitaev"])
def test_error_bound_bounds_what_verify_measures(capsys, tmp_path, kitaev_net_file, to, mode):
    # Seeded Haar GENERIC gates on one and two qubits among exact gates.  On
    # th the bound is the phase-fixed sum; the phase-free one, reported
    # before, fell below the realified deviation on these circuits.
    rng = np.random.default_rng(47)
    for trial in range(8):
        gates = [Gate(GateKind.H, (0,)), Gate(GateKind.CS, (1, 2))]
        for _ in range(int(rng.integers(1, 3))):
            if rng.random() < 0.5:
                q = int(rng.integers(3))
                gates.append(Gate(GateKind.GENERIC, (q,), haar_unitary(2, rng)))
            else:
                a, b = (int(q) for q in rng.choice(3, size=2, replace=False))
                gates.append(Gate(GateKind.GENERIC, (a, b), haar_unitary(4, rng)))
            gates.append(Gate(GateKind.CNOT, (2, 0)))
        src = write_circuit(tmp_path / f"g{trial}.json", Circuit(3, gates))
        out = str(tmp_path / f"g{trial}.{to}.json")
        bound = transpile_bound(capsys, src, to, out, kitaev_net_file)
        tol = repr(bound + BOUND_SLACK)
        assert main(["verify", src, out, "--mode", mode, "--tol", tol]) == 0
        assert "passed: yes\n" in capsys.readouterr().out


def test_phase_shifted_cz_reports_its_phase_on_th(capsys, tmp_path, kitaev_net_file):
    # CS CS is CZ exactly, so on kitaev, which ignores global phase, the
    # gate is exact; its realified image differs from CZ's by |1 - e^{0.3i}|.
    u = np.exp(0.3j) * np.diag([1, 1, 1, -1])
    src = write_circuit(tmp_path / "cz.json", Circuit(2, [Gate(GateKind.GENERIC, (0, 1), u)]))
    out = str(tmp_path / "cz.th.json")
    bound = transpile_bound(capsys, src, "th", out, kitaev_net_file, eps="1")
    assert bound == pytest.approx(2 * np.sin(0.15), abs=1e-15)
    # The report's own figure as the tolerance, with no slack, as CI runs it.
    assert main(["verify", src, out, "--mode", "realified", "--tol", repr(bound)]) == 0
    assert "passed: yes\n" in capsys.readouterr().out
    # The budget is judged against the same distance.
    args = ["transpile", src, "--to", "th", "--eps", "0.29", "--net", kitaev_net_file]
    assert main(args) == 1
    assert "best_achieved: 0.2988762649471" in capsys.readouterr().err
    out = str(tmp_path / "cz.kitaev.json")
    assert transpile_bound(capsys, src, "kitaev", out, kitaev_net_file, eps="1e-9") < 1e-12
    assert main(["verify", src, out, "--mode", "exact"]) == 0
    assert "passed: yes\n" in capsys.readouterr().out


@pytest.mark.parametrize("to, mode", [("th", "realified"), ("kitaev", "exact")],
                         ids=["th", "kitaev"])
def test_transpile_builds_no_net_for_exact_gates(capsys, monkeypatch, tmp_path, to, mode):
    from threbase import io, sk

    def refuse(*args, **kwargs):
        raise AssertionError("the net was built or read")

    monkeypatch.setattr(sk, "build_net", refuse)
    monkeypatch.setattr(io, "parse_net", refuse)
    c = Circuit(3, [
        Gate(GateKind.H, (0,)),
        Gate(GateKind.CNOT, (0, 2)),
        Gate(GateKind.CZ, (2, 1)),
        Gate(GateKind.CS, (1, 0)),
    ])
    f = write_circuit(tmp_path / "exact.json", c)
    out_path = tmp_path / f"exact_{to}.json"
    assert main(["transpile", f, "--to", to, "-o", str(out_path)]) == 0
    assert "error_bound: 0\n" in capsys.readouterr().out
    assert main(["verify", f, str(out_path), "--mode", mode]) == 0
    assert "passed: yes\n" in capsys.readouterr().out
    # A --net file is not even opened when no gate needs the net.
    missing = str(tmp_path / "missing.json")
    assert main(["transpile", f, "--to", to, "--net", missing]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("to", ["th", "kitaev"])
def test_transpile_builds_the_net_for_generic(capsys, monkeypatch, tmp_path, to):
    from threbase import sk

    built = []
    real_build = sk.build_net

    def counting(*args, **kwargs):
        built.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(sk, "build_net", counting)
    u = haar_unitary(2, np.random.default_rng(2))
    c = Circuit(2, [Gate(GateKind.H, (0,)), Gate(GateKind.GENERIC, (1,), u)])
    f = write_circuit(tmp_path / "u.json", c)
    assert main(["transpile", f, "--to", to, "--eps", "2"]) == 0
    capsys.readouterr()
    assert len(built) == 1


@pytest.mark.parametrize("kind", [k for k in GateKind if k is not GateKind.GENERIC])
def test_every_named_gate_is_exact_on_th(capsys, monkeypatch, tmp_path, kind):
    from threbase import sk
    from threbase.gates import ARITY

    def refuse(*args, **kwargs):
        raise AssertionError("the net was built")

    monkeypatch.setattr(sk, "build_net", refuse)
    # The CS keeps an {H, CCX} circuit off the pass-through, which
    # realified mode cannot check.
    c = Circuit(3, [Gate(GateKind.CS, (0, 2)), Gate(kind, (2, 0, 1)[:ARITY[kind]])])
    f = write_circuit(tmp_path / "in.json", c)
    out_path = tmp_path / "out.json"
    assert main(["transpile", f, "--to", "th", "-o", str(out_path)]) == 0
    assert "error_bound: 0\n" in capsys.readouterr().out
    args = ["verify", f, str(out_path), "--mode", "realified", "--tol", "1e-10"]
    assert main(args) == 0
    assert "passed: yes\n" in capsys.readouterr().out


@pytest.mark.parametrize("to", ["th", "kitaev"])
def test_one_qubit_circuit_refuses_gates_that_need_a_partner(capsys, tmp_path, to):
    f = write_circuit(tmp_path / "x.json", Circuit(1, [Gate(GateKind.X, (0,))]))
    assert main(["transpile", f, "--to", to]) == 2
    assert capsys.readouterr().err == (
        "error: rewriting X needs a second qubit; the circuit has only one\n"
    )


def test_deeply_nested_input_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv, what in (
        (["transpile", str(deep), "--to", "th"], "circuit file"),
        (["verify", str(deep), str(deep)], "circuit file"),
        (["simulate", str(deep), "--input", "0"], "circuit file"),
        (["net", "inspect", str(deep)], "net cache"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed {what}: nested too deeply\n"


def int_digit_limit() -> int:
    """Python's limit on the digits int() converts; 0 where there is none."""
    import sys

    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def test_integer_past_the_digit_limit_is_named_without_python_advice(capsys, tmp_path):
    # With int()'s digit limit the reader names the fault; a Python with no
    # limit reads the count, and the width ceiling refuses it.  Either way
    # it is one line with no advice to call sys.set_int_max_str_digits().
    from threbase.circuit import MAX_WIDTH

    f = tmp_path / "long.json"
    f.write_text('{"version":1,"qubits":' + "1" * 5000 + ',"gates":[{"name":"H","qubits":[0]}]}\n')
    for to in ("kitaev", "th"):
        assert main(["transpile", str(f), "--to", to]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if 0 < int_digit_limit() < 5000:
            assert captured.err == "error: malformed circuit file: an integer has too many digits\n"
        else:
            assert captured.err == f"error: qubits must be a positive integer of at most {MAX_WIDTH}\n"


@pytest.mark.parametrize("fault", ["not-utf8", "long-int"])
def test_unreadable_input_exits_2(capsys, tmp_path, fault):
    # Exit 1 is kept for a verdict or BudgetNotMet; a file that cannot be
    # decoded is a usage error on every command that reads one.
    if fault == "long-int" and not 0 < int_digit_limit() < 5000:
        pytest.skip("this Python converts integers of any length")
    u = haar_unitary(2, np.random.default_rng(3))
    good = write_circuit(tmp_path / "u.json", Circuit(2, [Gate(GateKind.GENERIC, (1,), u)]))
    good_net = tmp_path / "k1.json"
    assert main(["net", "build", "--set", "kitaev", "--max-len", "1", "-o", str(good_net)]) == 0
    capsys.readouterr()
    text, net_text = Path(good).read_text(), good_net.read_text()
    if fault == "not-utf8":
        circuits, net = [b"\xff{"], b"\xff{"
    else:
        entry = json.loads(text)["gates"][0]["matrix"][1][0]
        circuits = [
            text.replace('"qubits":2', '"qubits":' + "1" * 5000, 1).encode(),
            text.replace(json.dumps(entry), "1" * 5001, 1).encode(),
        ]
        net = net_text.replace('"max_len":1', '"max_len":' + "1" * 5000, 1).encode()
    bad_net = tmp_path / "bad_net.json"
    bad_net.write_bytes(net)
    runs = [
        (["net", "inspect", str(bad_net)], bad_net, "net cache"),
        (["transpile", good, "--to", "kitaev", "--net", str(bad_net)], bad_net, "net cache"),
    ]
    for k, data in enumerate(circuits):
        bad = tmp_path / f"bad{k}.json"
        bad.write_bytes(data)
        assert bad.read_bytes() != Path(good).read_bytes()
        runs += [
            (["transpile", str(bad), "--to", "kitaev"], bad, "circuit file"),
            (["transpile", str(bad), "--to", "th"], bad, "circuit file"),
            (["verify", str(bad), good], bad, "circuit file"),
            (["verify", good, str(bad)], bad, "circuit file"),
            (["simulate", str(bad), "--input", "00"], bad, "circuit file"),
        ]
    for argv, path, what in runs:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        if fault == "not-utf8":
            assert captured.err == f"error: cannot read {path}: not UTF-8 text\n"
        else:
            assert captured.err.startswith(f"error: malformed {what}: ")
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


PARSER_BYTES = Path(__file__).parent / "data" / "cli" / "parser_bytes.json"


def argparse_call(call, argv):
    """(exit code, stdout, stderr) of an argparse-level call."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as e:
            call(argv)
    return e.value.code, out.getvalue(), err.getvalue()


def test_parser_output_matches_the_full_parser(monkeypatch):
    # One parser, built once and reused by every call, must print the
    # recorded bytes for help, usage errors and unknown or missing
    # commands, whatever calls came before.  argparse's wording differs
    # between Python versions, so the recorded bytes are compared on the
    # version that recorded them; the parser itself is the reference on
    # every version.
    import sys

    from threbase import cli

    recorded = json.loads(PARSER_BYTES.read_text())
    monkeypatch.setenv("COLUMNS", str(recorded["columns"]))
    same_python = recorded["python"] == "%d.%d" % sys.version_info[:2]
    assert len(recorded["cases"]) == 14
    for case in recorded["cases"]:
        argv = case["argv"]
        got = argparse_call(main, argv)
        assert got == argparse_call(cli._parser().parse_args, argv)
        if same_python:
            assert got == (case["code"], case["stdout"], case["stderr"]), argv


def test_dispatch_reads_the_command_binding_at_call_time(monkeypatch, capsys, h_file):
    # perfbench's span tracer patches cli.cmd_verify after the parser
    # exists and restores it later; each call must run the binding of that
    # moment.
    from threbase import cli

    assert main(["verify", h_file, h_file]) == 0
    capsys.readouterr()
    calls = []
    with monkeypatch.context() as m:
        m.setattr(cli, "cmd_verify", lambda args: calls.append(args.a) or 7)
        assert main(["verify", h_file, h_file]) == 7
    assert calls == [h_file]
    assert capsys.readouterr().out == ""
    assert main(["verify", h_file, h_file]) == 0
    assert capsys.readouterr().out.endswith("passed: yes\n")
    assert calls == [h_file]


def test_cached_parser_carries_nothing_between_calls(monkeypatch, capsys, tmp_path, h_file):
    from threbase import cli

    realified = tmp_path / "h_th.json"
    assert main(["transpile", h_file, "--to", "th", "-o", str(realified)]) == 0
    out = tmp_path / "out.json"

    def call(argv, columns):
        """(exit code, stdout, stderr, bytes of -o file) of one main call."""
        monkeypatch.setenv("COLUMNS", columns)
        out.unlink(missing_ok=True)
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

    # Pairs of calls, each (argv, COLUMNS), run in turn on one parser.
    sequences = [
        [(["transpile", h_file, "--to", "th", "-o", str(out)], "80"),
         (["transpile", h_file, "--to", "th"], "80")],
        [(["verify", h_file, str(realified), "--mode", "realified", "--tol", "1e-3"], "80"),
         (["verify", h_file, h_file], "80")],
        [(["net", "build", "--set", "ht", "--max-len", "3", "--dedupe", "0.05"], "80"),
         (["net", "build", "--set", "ht", "--max-len", "3"], "80")],
        [(["transpile", "--help"], "80"), (["transpile", "--help"], "40")],
    ]
    for seq in sequences:
        cli._parser.cache_clear()
        in_turn = [call(*c) for c in seq]
        assert in_turn[0] != in_turn[1], seq
        for c, got in zip(seq, in_turn):
            cli._parser.cache_clear()
            assert got == call(*c), c


@pytest.mark.parametrize("eps", ["0", "-1", "nan"])
@pytest.mark.parametrize("to, kinds", [
    pytest.param("th", (GateKind.H, GateKind.CCX), id="th-passthrough"),
    pytest.param("th", (GateKind.H, GateKind.CS), id="th-realify"),
    pytest.param("kitaev", (GateKind.H, GateKind.CS), id="kitaev"),
])
def test_transpile_checks_eps_on_every_route(capsys, tmp_path, to, kinds, eps):
    arity = {GateKind.H: 1, GateKind.CS: 2, GateKind.CCX: 3}
    c = Circuit(3, [Gate(k, tuple(range(arity[k]))) for k in kinds])
    f = write_circuit(tmp_path / "c.json", c)
    assert main(["transpile", f, "--to", to, "--eps", eps]) == 2
    assert "eps must be positive" in capsys.readouterr().err


def test_transpile_budget_failure_reports_best(capsys, tmp_path, kitaev_net_file):
    u = haar_unitary(2, np.random.default_rng(5))
    c = Circuit(2, [Gate(GateKind.GENERIC, (0,), u)])
    f = write_circuit(tmp_path / "t.json", c)
    code = main(
        ["transpile", f, "--to", "kitaev", "--net", kitaev_net_file, "--eps", "1e-6"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: gates[0]: best approximation of GENERIC on (0,) reaches ")
    assert "\nbest_achieved: " in err


def test_transpile_net_must_be_two_qubit(capsys, tmp_path):
    ht = tmp_path / "ht.json"
    assert main(["net", "build", "--set", "ht", "--max-len", "3", "-o", str(ht)]) == 0
    capsys.readouterr()
    # A GENERIC gate has no exact rewrite, so the net is read and its gate
    # set checked.
    u = haar_unitary(2, np.random.default_rng(2))
    f = write_circuit(tmp_path / "u.json", Circuit(2, [Gate(GateKind.GENERIC, (1,), u)]))
    code = main(["transpile", f, "--to", "kitaev", "--net", str(ht)])
    assert code == 2
    assert "1-qubit gate set" in capsys.readouterr().err


def test_transpile_refuses_repeated_keys(capsys, tmp_path):
    src = tmp_path / "dup.json"
    src.write_text(
        '{"version":1,"qubits":2,"qubits":1,"gates":[{"name":"H","qubits":[0]}]}'
    )
    out = tmp_path / "out.json"
    assert main(["transpile", str(src), "--to", "kitaev", "-o", str(out)]) == 2
    assert "repeated key 'qubits'" in capsys.readouterr().err
    assert not out.exists()


def test_transpile_refuses_boolean_qubit_count(capsys, tmp_path):
    # The output would say "qubits":True, which verify cannot read.
    src = tmp_path / "bool.json"
    src.write_text('{"version":1,"qubits":true,"gates":[{"name":"H","qubits":[0]}]}')
    out = tmp_path / "out.json"
    assert main(["transpile", str(src), "--to", "th", "-o", str(out)]) == 2
    assert "qubits must be a positive integer, got True" in capsys.readouterr().err
    assert not out.exists()


def test_ten_digit_hadamards_pass_every_check(capsys, tmp_path):
    # Six Hadamards written to ten digits are the identity up to a norm
    # drift of 1.1e-10: past the gates' own 1e-10 but well within the
    # UNITARY_TOL that the exact check and the simulator both apply.
    r = 0.7071067812
    h = Gate(GateKind.GENERIC, (0,), np.array([[r, r], [r, -r]]))
    six = write_circuit(tmp_path / "h6.json", Circuit(1, [h] * 6))
    flagged = write_circuit(tmp_path / "h6_flag.json", Circuit(2, [h] * 6))
    empty = write_circuit(tmp_path / "id.json", Circuit(1, []))
    assert main(["simulate", six, "--input", "0"]) == 0
    assert capsys.readouterr().out.startswith("|0> 1.0000000001")
    for mode in ("realified", "stats"):
        assert main(["verify", six, flagged, "--mode", mode]) == 0
        assert "passed: yes\n" in capsys.readouterr().out
    assert main(["verify", six, empty, "--mode", "exact"]) == 0
    assert "passed: yes\n" in capsys.readouterr().out


def test_verify_modes_and_exit_codes(capsys, tmp_path, kitaev_file):
    out_path = tmp_path / "real.json"
    main(["transpile", kitaev_file, "--to", "th", "-o", str(out_path)])
    capsys.readouterr()

    assert main(["verify", kitaev_file, str(out_path), "--mode", "realified"]) == 0
    out = capsys.readouterr().out
    assert "mode: realified\n" in out and "passed: yes\n" in out

    assert main(["verify", kitaev_file, str(out_path), "--mode", "stats"]) == 0
    assert "passed: yes" in capsys.readouterr().out

    assert main(["verify", kitaev_file, kitaev_file]) == 0
    out = capsys.readouterr().out
    assert "mode: exact-unitary\n" in out and "worst_input: -\n" in out

    x = write_circuit(tmp_path / "x.json", Circuit(1, [Gate(GateKind.X, (0,))]))
    h = write_circuit(tmp_path / "h2.json", Circuit(1, [Gate(GateKind.H, (0,))]))
    assert main(["verify", x, h]) == 1
    out = capsys.readouterr().out
    assert "passed: no\n" in out
    assert format(np.sqrt(2 - np.sqrt(2)), ".17g") in out


def test_verify_prints_a_negative_zero_tolerance_as_zero(capsys, kitaev_file):
    # -0 passes the tol >= 0 check, and every printed float folds -0 into 0.
    assert main(["verify", kitaev_file, kitaev_file, "--tol", "-0"]) == 0
    assert capsys.readouterr().out == (
        "mode: exact-unitary\nmax_deviation: 0\nworst_input: -\ntolerance: 0\npassed: yes\n"
    )


@pytest.mark.parametrize("mode", ["exact", "realified", "stats"])
@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_verify_refuses_bad_tolerance(capsys, tmp_path, kitaev_file, mode, tol):
    other = kitaev_file
    if mode != "exact":
        other = str(tmp_path / "real.json")
        assert main(["transpile", kitaev_file, "--to", "th", "-o", other]) == 0
    capsys.readouterr()
    assert main(["verify", kitaev_file, other, "--mode", mode, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tol must be >= 0, got {float(tol)}\n"


def test_net_build_and_inspect(capsys, tmp_path):
    path = tmp_path / "k2.json"
    assert main(["net", "build", "--set", "kitaev", "--max-len", "2", "-o", str(path)]) == 0
    assert "entries: 10\n" in capsys.readouterr().out
    assert main(["net", "inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "gateset: kitaev\n" in out
    assert "by_length: 0:1 1:3 2:6\n" in out


def test_version_one_net_cache_exits_2(capsys, tmp_path):
    path = tmp_path / "k1.json"
    assert main(["net", "build", "--set", "kitaev", "--max-len", "1", "-o", str(path)]) == 0
    # A version-1 cache held each entry's matrix beside its sequence.
    doc = json.loads(path.read_text())
    doc["version"] = 1
    for e in doc["entries"]:
        e["matrix"] = [[float(k % 5 == 0), 0.0] for k in range(16)]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    u = haar_unitary(2, np.random.default_rng(2))
    f = write_circuit(tmp_path / "u.json", Circuit(2, [Gate(GateKind.GENERIC, (1,), u)]))
    for argv in (["net", "inspect", str(path)],
                 ["transpile", f, "--to", "kitaev", "--net", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unsupported net cache version 1, expected 2; "
            "rebuild it with `threbase net build`\n"
        )


def test_net_build_stdout_parses(capsys):
    assert main(["net", "build", "--set", "ht", "--max-len", "2"]) == 0
    from threbase import parse_net

    net = parse_net(capsys.readouterr().out)
    assert net.max_length == 2


def test_net_build_refuses_infinite_dedupe(capsys, tmp_path):
    # The cache would hold "dedupe_tol":inf, which is not JSON.
    path = tmp_path / "k1.json"
    argv = ["net", "build", "--set", "kitaev", "--max-len", "1", "--dedupe", "inf"]
    assert main(argv + ["-o", str(path)]) == 2
    assert "dedupe_tol must be positive" in capsys.readouterr().err
    assert not path.exists()


def test_net_build_unknown_set(capsys):
    assert main(["net", "build", "--set", "nope", "--max-len", "2"]) == 2
    assert "unknown gate set" in capsys.readouterr().err


def test_bench_csv_is_deterministic_and_monotone(capsys):
    argv = ["bench", "--sk-scaling", "--targets", "3", "--max-depth", "2",
            "--seed", "7", "--max-len", "6"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first

    lines = first.splitlines()
    assert lines[0] == "target,depth,achieved,seq_len"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9
    for t in "012":
        achieved = [float(r[2]) for r in rows if r[0] == t]
        assert all(b <= a for a, b in zip(achieved, achieved[1:]))


SK_SCALING_16 = Path(__file__).parent / "data" / "sk_scaling_len16.csv"
SK_SCALING_12 = Path(__file__).parent / "data" / "sk_scaling_len12.csv"


def test_bench_matches_recorded_table_at_length_16(capsys):
    # Recorded before the nearest-entry search filtered through quaternions.
    argv = ["bench", "--sk-scaling", "--targets", "5", "--max-depth", "3", "--max-len", "16"]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == SK_SCALING_16.read_bytes()


def test_bench_matches_recorded_table_at_length_12(capsys):
    # The net length sk_1q refines with; recorded before the search scored
    # its survivors on Python scalars.
    argv = ["bench", "--sk-scaling", "--targets", "5", "--max-depth", "3", "--max-len", "12"]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == SK_SCALING_12.read_bytes()


def test_bench_requires_mode_flag(capsys):
    assert main(["bench"]) == 2
    assert "--sk-scaling" in capsys.readouterr().err


def test_bench_refuses_negative_seed(capsys):
    assert main(["bench", "--sk-scaling", "--seed", "-1", "--max-len", "2"]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


def test_bench_refuses_negative_target_count(capsys):
    assert main(["bench", "--sk-scaling", "--targets", "-3", "--max-len", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --targets must be >= 1, got -3\n"
    assert captured.out == ""


def test_qubit_cap_env_override(capsys, monkeypatch, tmp_path):
    f = write_circuit(tmp_path / "c3.json", Circuit(3, [Gate(GateKind.H, (0,))]))
    monkeypatch.setenv("TH_REBASE_MAX_QUBITS", "2")
    assert main(["simulate", f, "--input", "000"]) == 3
    assert capsys.readouterr().err.startswith("error:")
    # int() reads all but "abc" and "12.0" as a number; none is a plain integer.
    for raw in ("abc", "12.0", "1_2", "+12", " 12", "12\n", "\u0661\u0662"):
        monkeypatch.setenv("TH_REBASE_MAX_QUBITS", raw)
        assert main(["simulate", f, "--input", "000"]) == 2
        assert "must be an integer" in capsys.readouterr().err
    for raw in ("0", "-3"):
        monkeypatch.setenv("TH_REBASE_MAX_QUBITS", raw)
        assert main(["simulate", f, "--input", "000"]) == 2
        assert "must be >= 1" in capsys.readouterr().err


def test_qubit_cap_beyond_the_digit_limit_exits_2(capsys, monkeypatch, tmp_path):
    f = write_circuit(tmp_path / "c2.json", Circuit(2, [Gate(GateKind.H, (0,))]))
    for raw in ("1" * 5000, "-" + "1" * 5000, "2000000"):
        monkeypatch.setenv("TH_REBASE_MAX_QUBITS", raw)
        assert main(["simulate", f, "--input", "00"]) == 2
        assert capsys.readouterr().err == "error: TH_REBASE_MAX_QUBITS must be from 1 to 1048576\n"
    # Leading zeros do not count against the digit limit.
    monkeypatch.setenv("TH_REBASE_MAX_QUBITS", "0" * 5000 + "12")
    assert main(["simulate", f, "--input", "00"]) == 0


@pytest.mark.parametrize("style", ["json-dump", "emit-circuit"])
def test_a_qubit_count_over_the_ceiling_exits_2_on_one_short_line(capsys, tmp_path, style):
    count = "1" * 4000
    if style == "json-dump":
        doc = {"version": 1, "qubits": int(count), "gates": [{"name": "H", "qubits": [0]}]}
        text = json.dumps(doc, indent=1)
    else:
        text = emit_circuit(Circuit(2, [Gate(GateKind.H, (0,))]))
        text = text.replace('"qubits":2', '"qubits":' + count)
    wide = tmp_path / "wide.json"
    wide.write_text(text)
    good = write_circuit(tmp_path / "good.json", Circuit(2, [Gate(GateKind.H, (0,))]))
    for argv in (
        ["transpile", str(wide), "--to", "th"],
        ["transpile", str(wide), "--to", "kitaev"],
        ["verify", str(wide), good],
        ["verify", good, str(wide)],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: qubits must be a positive integer of at most 1048576\n"
        assert len(captured.err.encode()) < 200


def test_transpile_th_at_the_width_ceiling_exits_2(capsys, tmp_path):
    # The flag qubit takes a circuit at the ceiling over it; kitaev adds none.
    from threbase.circuit import MAX_WIDTH

    f = tmp_path / "ceiling.json"
    f.write_text(f'{{"version":1,"qubits":{MAX_WIDTH},"gates":[{{"name":"H","qubits":[0]}}]}}\n')
    assert main(["transpile", str(f), "--to", "th"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the flag qubit would take the circuit to {MAX_WIDTH + 1} qubits, "
        f"over the ceiling of {MAX_WIDTH}\n"
    )
    assert main(["transpile", str(f), "--to", "kitaev"]) == 0
    assert capsys.readouterr().out == f.read_text()


@pytest.fixture()
def wide_files(tmp_path):
    """A 12-qubit original, its 13-qubit th output and a 13-qubit circuit."""
    c12 = write_circuit(
        tmp_path / "c12.json", Circuit(12, [Gate(GateKind.H, (0,)), Gate(GateKind.CS, (0, 11))])
    )
    t12 = str(tmp_path / "t12.json")
    assert main(["transpile", c12, "--to", "th", "-o", t12]) == 0
    c13 = write_circuit(tmp_path / "c13.json", Circuit(13, [Gate(GateKind.H, (0,))]))
    return c12, t12, c13


@pytest.mark.parametrize("args", [
    ["verify", "{c12}", "{t12}", "--mode", "realified"],
    ["verify", "{c12}", "{t12}", "--mode", "stats"],
    ["verify", "{c13}", "{c13}", "--mode", "exact"],
    ["simulate", "{c13}", "--input", "0" * 13],
])
def test_default_cap_exits_3(capsys, monkeypatch, wide_files, args):
    monkeypatch.delenv("TH_REBASE_MAX_QUBITS", raising=False)
    c12, t12, c13 = wide_files
    capsys.readouterr()
    assert main([a.format(c12=c12, t12=t12, c13=c13) for a in args]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 13 qubits exceeds the dense-matrix cap of 12\n"


@pytest.mark.parametrize("gate, message", [
    ('{"name":"CS","qubits":[false,true]}', "qubits must be a list of integers"),
    ('{"name":"GENERIC","qubits":[0],"matrix":[[true,0],[0,0],[0,0],[1,0]]}',
     "matrix[0] must be a [re, im] pair"),
])
def test_transpile_refuses_json_booleans(capsys, tmp_path, gate, message):
    f = tmp_path / "bool.json"
    f.write_text('{"version":1,"qubits":2,"gates":[' + gate + "]}")
    assert main(["transpile", str(f), "--to", "th"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: gates[0]: {message}\n"


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as e:
        main(["transpile", "x.json"])
    assert e.value.code == 2


def test_transpile_output_is_byte_stable(capsys, kitaev_file):
    assert main(["transpile", kitaev_file, "--to", "th"]) == 0
    first = capsys.readouterr()
    assert main(["transpile", kitaev_file, "--to", "th"]) == 0
    second = capsys.readouterr()
    assert (first.out, first.err) == (second.out, second.err)
