import numpy as np
import pytest

from threbase import Circuit, Gate, GateKind, check_realified, emit_circuit, parse_circuit
from threbase.cli import main


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


def test_transpile_th_realifies_kitaev_circuit(capsys, kitaev_file, tmp_path):
    out_path = tmp_path / "out.json"
    assert main(["transpile", kitaev_file, "--to", "th", "-o", str(out_path)]) == 0
    report = capsys.readouterr().out
    assert "error_bound: 0\n" in report
    assert "output_qubits: 3\n" in report
    original = parse_circuit(open(kitaev_file).read())
    produced = parse_circuit(out_path.read_text())
    assert {g.kind for g in produced.gates} <= {GateKind.H, GateKind.CCX}
    assert check_realified(original, produced).passed


def test_transpile_th_passthrough_when_already_in_target(capsys, tmp_path):
    c = Circuit(3, [Gate(GateKind.CCX, (0, 1, 2)), Gate(GateKind.H, (1,))])
    f = write_circuit(tmp_path / "th.json", c)
    assert main(["transpile", f, "--to", "th"]) == 0
    cap = capsys.readouterr()
    assert cap.out == emit_circuit(c)
    assert "output_qubits: 3\n" in cap.err


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
    # The kitaev target has no CCX and still refuses it.
    assert main(["transpile", f, "--to", "kitaev", "--net", kitaev_net_file]) == 2
    assert "3-qubit gate" in capsys.readouterr().err


def test_transpile_th_builds_no_net_for_exact_gates(capsys, monkeypatch, tmp_path):
    from threbase import sk

    def refuse(*args, **kwargs):
        raise AssertionError("the net was built")

    monkeypatch.setattr(sk, "build_net", refuse)
    c = Circuit(3, [
        Gate(GateKind.H, (0,)),
        Gate(GateKind.CNOT, (0, 2)),
        Gate(GateKind.CZ, (2, 1)),
        Gate(GateKind.CS, (1, 0)),
    ])
    f = write_circuit(tmp_path / "exact.json", c)
    out_path = tmp_path / "exact_th.json"
    assert main(["transpile", f, "--to", "th", "-o", str(out_path)]) == 0
    assert "error_bound: 0\n" in capsys.readouterr().out
    assert main(["verify", f, str(out_path), "--mode", "realified"]) == 0
    assert "passed: yes\n" in capsys.readouterr().out


def test_transpile_th_builds_the_net_for_x(capsys, monkeypatch, tmp_path):
    from threbase import sk

    built = []
    real_build = sk.build_net

    def counting(*args, **kwargs):
        built.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(sk, "build_net", counting)
    c = Circuit(2, [Gate(GateKind.H, (0,)), Gate(GateKind.X, (1,))])
    f = write_circuit(tmp_path / "x.json", c)
    assert main(["transpile", f, "--to", "th", "--eps", "2"]) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_transpile_budget_failure_reports_best(capsys, tmp_path, kitaev_net_file):
    from threbase import haar_unitary

    u = haar_unitary(2, np.random.default_rng(5))
    c = Circuit(2, [Gate(GateKind.GENERIC, (0,), u)])
    f = write_circuit(tmp_path / "t.json", c)
    code = main(
        ["transpile", f, "--to", "kitaev", "--net", kitaev_net_file, "--eps", "1e-6"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "best_achieved:" in err


def test_transpile_net_must_be_two_qubit(capsys, tmp_path, kitaev_file):
    ht = tmp_path / "ht.json"
    assert main(["net", "build", "--set", "ht", "--max-len", "3", "-o", str(ht)]) == 0
    capsys.readouterr()
    code = main(["transpile", kitaev_file, "--to", "kitaev", "--net", str(ht)])
    assert code == 2
    assert "1-qubit gate set" in capsys.readouterr().err


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


def test_net_build_and_inspect(capsys, tmp_path):
    path = tmp_path / "k2.json"
    assert main(["net", "build", "--set", "kitaev", "--max-len", "2", "-o", str(path)]) == 0
    assert "entries: 10\n" in capsys.readouterr().out
    assert main(["net", "inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "gateset: kitaev\n" in out
    assert "by_length: 0:1 1:3 2:6\n" in out


def test_net_build_stdout_parses(capsys):
    assert main(["net", "build", "--set", "ht", "--max-len", "2"]) == 0
    from threbase import parse_net

    net = parse_net(capsys.readouterr().out)
    assert net.max_length == 2


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


def test_bench_requires_mode_flag(capsys):
    assert main(["bench"]) == 2
    assert "--sk-scaling" in capsys.readouterr().err


def test_qubit_cap_env_override(capsys, monkeypatch, tmp_path):
    f = write_circuit(tmp_path / "c3.json", Circuit(3, [Gate(GateKind.H, (0,))]))
    monkeypatch.setenv("TH_REBASE_MAX_QUBITS", "2")
    assert main(["simulate", f, "--input", "000"]) == 3
    assert capsys.readouterr().err.startswith("error:")
    monkeypatch.setenv("TH_REBASE_MAX_QUBITS", "abc")
    assert main(["simulate", f, "--input", "000"]) == 2
    assert "must be an integer" in capsys.readouterr().err


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
