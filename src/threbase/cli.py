"""Command-line front end.

Subcommands: transpile, verify, net, simulate, bench.  All output is
deterministic given the flags (plus --seed where randomness is involved),
so repeated invocations are byte-identical.  Exit codes: 0 success or
check passed, 1 check failed or accuracy budget not met, 2 usage or
validation error, 3 entry/qubit cap exceeded or out of memory.

transpile is one pipeline: --to kitaev rewrites over {H, CS}, each named
gate (CCX included) by its exact word; --to th does the same rewrite,
keeping CCX, then realifies onto {H, CCX} with one flag qubit, which every
th output has.  Only GENERIC gates are approximated, so the two-qubit
kitaev net (built at length 8, or read from --net) is only made when the
circuit has one, and a --net file is read, and a bad one reported, only
then.

TH_REBASE_MAX_QUBITS overrides the dense-simulation qubit cap (default
12).  verify --mode realified and --mode stats apply it to the realified
circuit, so the largest original they accept is one qubit under the cap.

Every printed float goes through io.fmt_float: %.17g with -0 folded to 0.

main(argv) can be called in-process any number of times and returns the
exit code; --help and argparse usage errors raise SystemExit (0 and 2), as
argparse does.  The parser is built once per process; TH_REBASE_MAX_QUBITS
and COLUMNS (help wrapping) are read at each call.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import stat
import sys
from collections import Counter

import numpy as np

from . import io as tio
from . import sk, verify
from .circuit import MAX_QUBITS, MAX_WIDTH
from .errors import BudgetNotMet, CapExceeded, CompileError, ValidationError
from .gates import BUILTIN_GATE_SETS
from .linalg import haar_unitary
from .passes import needs_net, realify_circuit, rebase_circuit


def _cap() -> int:
    raw = os.environ.get("TH_REBASE_MAX_QUBITS")
    if raw is None:
        return MAX_QUBITS
    # ASCII digits only: int() would also read "1_2", "+12", " 12" and
    # other scripts' digits.
    m = re.fullmatch(r"(-?)0*([0-9]+)", raw)
    if m is None:
        raise ValidationError(f"TH_REBASE_MAX_QUBITS must be an integer, got {raw!r}")
    # int() refuses more than 4,300 digits; past MAX_WIDTH's, a cap is too long.
    cap = int(m[1] + m[2]) if len(m[2]) <= len(str(MAX_WIDTH)) else MAX_WIDTH + 1
    if cap < 1:
        raise ValidationError(f"TH_REBASE_MAX_QUBITS must be >= 1, got {cap}")
    if cap > MAX_WIDTH:
        raise ValidationError(f"TH_REBASE_MAX_QUBITS must be from 1 to {MAX_WIDTH}")
    return cap


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"cannot read {path}: not UTF-8 text") from None


def _open_in_place(path: str, flags: int) -> int:
    # Every flag open("w") chose but O_TRUNC: truncating a file to zero
    # before rewriting it costs more than the write on some filesystems
    # (ext4 among them).
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write(path: str | None, text: str):
    """Write text to stdout, or over the file at path in place.

    The file keeps its inode, permissions and, through a symlink, the
    link; a regular file is then cut to the length written.  Pipes and
    devices are written and not cut, since they cannot be.
    """
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", opener=_open_in_place) as f:
            f.write(text)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e.strerror}") from None


def _net(path: str | None, n_qubits: int, gateset: str, max_len: int) -> sk.Net:
    """The net cache at path, which must be over n_qubits qubits, or else
    the built-in gateset's net built at max_len."""
    if path is None:
        return sk.build_net(BUILTIN_GATE_SETS[gateset](), max_len)
    net = tio.parse_net(_read(path))
    if net.gateset.n_qubits != n_qubits:
        raise ValidationError(
            f"net {path} is over a {net.gateset.n_qubits}-qubit gate set, "
            f"need {n_qubits}"
        )
    return net


def _report_lines(pairs) -> str:
    return "".join(f"{k}: {v}\n" for k, v in pairs)


# --- transpile ------------------------------------------------------------

def cmd_transpile(args) -> int:
    c = tio.parse_circuit(_read(args.input))
    th = args.to == "th"
    net = _net(args.net, 2, "kitaev", 8) if needs_net(c) else None
    out, error_bound = rebase_circuit(c, net, args.eps, th)
    if th:
        out, _ = realify_circuit(out)

    text = tio.emit_circuit(out)
    lines = _report_lines(
        [
            ("input_gates", len(c)),
            ("output_gates", len(out)),
            ("input_qubits", c.n_qubits),
            ("output_qubits", out.n_qubits),
            ("error_bound", tio.fmt_float(error_bound)),
        ]
    )
    _write(args.output, text)
    # The report goes where the circuit does not.
    (sys.stderr if args.output is None else sys.stdout).write(lines)
    return 0


# --- verify ---------------------------------------------------------------

def cmd_verify(args) -> int:
    a = tio.parse_circuit(_read(args.a))
    b = tio.parse_circuit(_read(args.b))
    # Built per call, so that it holds the checks bound in verify now.
    check = {
        "exact": verify.check_exact,
        "realified": verify.check_realified,
        "stats": verify.check_measurement_stats,
    }[args.mode]
    rep = check(a, b, args.tol, max_qubits=_cap())
    worst = "-" if rep.worst_input is None else str(rep.worst_input)
    sys.stdout.write(
        _report_lines(
            [
                ("mode", rep.kind),
                ("max_deviation", tio.fmt_float(rep.max_deviation)),
                ("worst_input", worst),
                ("tolerance", tio.fmt_float(rep.tolerance)),
                ("passed", "yes" if rep.passed else "no"),
            ]
        )
    )
    return 0 if rep.passed else 1


# --- net ------------------------------------------------------------------

def cmd_net(args) -> int:
    if args.action == "build":
        factory = BUILTIN_GATE_SETS.get(args.set)
        if factory is None:
            raise ValidationError(
                f"unknown gate set {args.set!r}; choose from "
                f"{sorted(BUILTIN_GATE_SETS)}"
            )
        net = sk.build_net(factory(), args.max_len, args.dedupe)
        _write(args.output, tio.emit_net(net))
        if args.output is not None:
            sys.stdout.write(
                _report_lines(
                    [("gateset", net.gateset.name), ("entries", len(net))]
                )
            )
        return 0

    net = tio.parse_net(_read(args.path))
    by_len = Counter(map(len, net.seqs))
    hist = " ".join(f"{l}:{by_len[l]}" for l in sorted(by_len))
    sys.stdout.write(
        _report_lines(
            [
                ("gateset", net.gateset.name),
                ("qubits", net.gateset.n_qubits),
                ("max_len", net.max_length),
                ("dedupe_tol", tio.fmt_float(net.dedupe_tol)),
                ("entries", len(net)),
                ("by_length", hist),
            ]
        )
    )
    return 0


# --- simulate -------------------------------------------------------------

def cmd_simulate(args) -> int:
    c = tio.parse_circuit(_read(args.input))
    bits = args.input_state
    if bits and set(bits) <= {"0", "1"} and len(bits) == c.n_qubits:
        index = int(bits, 2)
    else:
        raise ValidationError(
            f"--input must be a {c.n_qubits}-bit string of 0s and 1s, got {bits!r}"
        )
    amps = verify.run(c, index, max_qubits=_cap())
    n = c.n_qubits
    sys.stdout.write(
        "".join(
            f"|{i:0{n}b}> {tio.fmt_float(amp.real)} {tio.fmt_float(amp.imag)}\n"
            for i, amp in enumerate(amps)
        )
    )
    return 0


# --- bench ----------------------------------------------------------------

def cmd_bench(args) -> int:
    if not args.sk_scaling:
        raise ValidationError("bench requires --sk-scaling")
    if args.targets < 1:
        raise ValidationError(f"--targets must be >= 1, got {args.targets}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    net = _net(args.net, 1, "ht", args.max_len)
    rng = np.random.default_rng(args.seed)
    cfg = sk.SKConfig(net=net, depth=args.max_depth)
    rows = ["target,depth,achieved,seq_len\n"]
    for t in range(args.targets):
        u = haar_unitary(2, rng)
        for depth, (seq, achieved) in enumerate(sk.sk_trace(u, cfg)):
            rows.append(f"{t},{depth},{tio.fmt_float(achieved)},{len(seq)}\n")
    sys.stdout.write("".join(rows))
    return 0


# --- entry point ----------------------------------------------------------

def _add_transpile(t):
    t.add_argument("input", help="circuit JSON file")
    t.add_argument("--to", choices=("th", "kitaev"), required=True)
    t.add_argument("--eps", type=float, default=1e-2, help="approximation budget")
    t.add_argument("--net", help="two-qubit net cache for approximations")
    t.add_argument("-o", "--output", help="output circuit file (default stdout)")


def _add_verify(v):
    v.add_argument("a")
    v.add_argument("b")
    v.add_argument("--mode", choices=("exact", "realified", "stats"), default="exact")
    v.add_argument("--tol", type=float, default=verify.DEFAULT_TOL)


def _add_net(n):
    nsub = n.add_subparsers(dest="action", required=True)
    nb = nsub.add_parser("build")
    nb.add_argument("--set", required=True, help="gate set name (kitaev or ht)")
    nb.add_argument("--max-len", type=int, required=True)
    nb.add_argument("--dedupe", type=float, default=sk.DEFAULT_DEDUPE_TOL)
    nb.add_argument("-o", "--output", help="cache file (default stdout)")
    ni = nsub.add_parser("inspect")
    ni.add_argument("path")


def _add_simulate(s):
    s.add_argument("input", help="circuit JSON file")
    s.add_argument("--input", dest="input_state", required=True, metavar="BITS")


def _add_bench(b):
    b.add_argument("--sk-scaling", action="store_true")
    b.add_argument("--targets", type=int, default=20)
    b.add_argument("--max-depth", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--net", help="single-qubit net cache")
    b.add_argument("--max-len", type=int, default=12, help="net length when building")


# (name, help, add-arguments function) of every subcommand, in usage order.
_COMMANDS = (
    ("transpile", "rewrite a circuit over a target set", _add_transpile),
    ("verify", "check two circuits for equivalence", _add_verify),
    ("net", "build or inspect a net cache", _add_net),
    ("simulate", "print the output state on a basis input", _add_simulate),
    ("bench", "emit machine-readable scaling tables", _add_bench),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="threbase",
        description="Rebase quantum circuits onto {Toffoli, Hadamard}.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments in _COMMANDS:
        add_arguments(sub.add_parser(name, help=help_text))
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Looked up at each call, so that a cmd_* patched after the parser
        # was built (as perfbench's span tracer does) is the one run.
        return globals()["cmd_" + args.command](args)
    except CompileError as e:
        sys.stderr.write(f"error: {e}\n")
        if isinstance(e, BudgetNotMet) and e.achieved is not None:
            sys.stderr.write(f"best_achieved: {tio.fmt_float(e.achieved)}\n")
        return 2 if isinstance(e, ValidationError) else 3 if isinstance(e, CapExceeded) else 1
    except MemoryError as e:
        # numpy raises this when a raised TH_REBASE_MAX_QUBITS asks for a
        # matrix the host cannot hold.
        sys.stderr.write(f"error: out of memory: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
