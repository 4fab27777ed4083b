"""Workloads: seeded inputs, set-up, and the run of one item.

Each workload hands the program only generated files and matrices, and
drives it the way a user would: `threbase.cli.main([...])` for transpile
and verify on files in a work directory, plus library calls where the
command line has no route (the single-qubit recursion).  Items run back
to back from one client (a closed loop), grouped in rounds of fixed item
shapes; every run has the same number of rounds, so the same mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import oracle

# Constant seed for the pool of GENERIC targets in rebase_mixed; see there.
GENERIC_POOL_SEED = 30_101_040


def haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian, phases of R fixed."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / np.abs(d))


def write_circuit(path: str, n: int, gates) -> None:
    """Circuit file from (name, qubits, matrix or None) triples."""
    rows = []
    for name, qubits, matrix in gates:
        g = {"name": name, "qubits": list(qubits)}
        if matrix is not None:
            g["matrix"] = [[float(z.real), float(z.imag)] for z in matrix.reshape(-1)]
        rows.append(g)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"version": 1, "qubits": n, "gates": rows}, f)


def cli_call(argv: list[str]) -> tuple[int, float, str]:
    """Run the command line in-process; exit code, seconds, stdout."""
    from threbase import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects its arguments this way
            code = e.code if isinstance(e.code, int) else 2
        seconds = time.perf_counter() - t0
    return code, seconds, out.getvalue()


def passed_line(report: str) -> bool | None:
    for line in report.splitlines():
        if line.startswith("passed: "):
            return line == "passed: yes"
    return None


@dataclass
class ItemResult:
    idx: int
    transpile_s: float = 0.0
    verify_s: float = 0.0
    verdict: bool | None = None  # verify's answer: equivalent or not
    known: bool | None = None  # the oracle's answer
    error: float | None = None  # the oracle's deviation of output from input
    planted: bool = False  # output corrupted on purpose by the benchmark
    out_digest: str = ""
    failure: str | None = None

    @property
    def completed(self) -> bool:
        return self.failure is None and self.verdict is not None

    @property
    def failed(self) -> bool:
        return self.failure is not None or self.verdict != self.known


def _digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


ARITY = {"H": 1, "X": 1, "Z": 1, "S": 1, "SDG": 1, "CS": 2, "CSDG": 2, "CZ": 2, "CNOT": 2}


def random_gates(rng: np.random.Generator, n: int, kinds) -> list:
    """The given gate kinds in seeded order, each on seeded operands."""
    gates = []
    for kind in rng.permutation(kinds):
        qubits = rng.choice(n, size=ARITY[kind], replace=False)
        gates.append((str(kind), tuple(int(q) for q in qubits), None))
    return gates


def build_and_load(gateset, max_length: int, path: str):
    """Build a net, write its cache file and load it back, as a user would."""
    from threbase import io, sk

    net = sk.build_net(gateset, max_length)
    with open(path, "w", encoding="utf-8") as f:
        f.write(io.emit_net(net))
    with open(path, "r", encoding="utf-8") as f:
        return io.parse_net(f.read())


def net_facts(net) -> dict:
    """Entries, and entries accepted per candidate tried during the build.

    Every entry shorter than the maximum length was extended by every
    label, so that is the number of candidates; the root is not one.
    """
    labels = len(net.gateset.labels)
    tried = labels * sum(1 for e in net.entries if e.length < net.max_length)
    return {"entries": len(net), "accept_share": (len(net) - 1) / tried}


class Workload:
    name = ""
    round_size = 0
    # Rounds per run.  Every run has the same number, so the same mix of
    # item shapes, and at least 40 items, so that p75 has ten beyond it.
    rounds = 0
    tol = 1e-10  # verify tolerance; the oracle judges with the same one
    exact = True  # verify mode: exact unitary, or realified

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.specs: list = []

    def path(self, stem: str) -> str:
        return os.path.join(self.workdir, stem + ".json")

    def setup(self) -> dict:
        """One-off work before the first item; returns facts to report."""
        self.warm_up()
        return {}

    def warm_up(self):
        """A fixed small item through transpile and verify: first-call costs."""
        spec = self.warm_spec()
        self.write_input(self.path("warm"), spec)
        self.transpile_verify(spec, self.path("warm"), self.path("warm_out"), ItemResult(-1))

    def items(self) -> list[int]:
        """Indices of the run's items, generating their inputs on first use."""
        while len(self.specs) < self.rounds * self.round_size:
            for spec in self.make_round(len(self.specs) // self.round_size):
                self.write_input(self.path(f"in{len(self.specs)}"), spec)
                self.specs.append(spec)
        return list(range(len(self.specs)))

    def write_input(self, path: str, spec):
        write_circuit(path, spec[0], spec[1])

    def run_item(self, idx: int) -> ItemResult:
        src, out = self.path(f"in{idx}"), self.path(f"out{idx}")
        res = ItemResult(idx)
        self.transpile_verify(self.specs[idx], src, out, res)
        if res.failure is None:
            # The oracle's deviation and verdict, outside any timing.
            if self.exact:
                res.error = oracle.exact_error(src, out)
            else:
                res.error = oracle.realified_error(src, out)
            res.known = res.error <= self.tol
        return res

    def transpile(self, res: ItemResult, argv: list[str], out: str) -> bool:
        code, res.transpile_s, _ = cli_call(argv)
        if code != 0:
            res.failure = f"transpile exit code {code}"
            return False
        res.out_digest = _digest(out)
        return True

    def verify(self, res: ItemResult, argv: list[str]):
        code, res.verify_s, report = cli_call(argv)
        res.verdict = passed_line(report)
        if res.verdict is None or code != (0 if res.verdict else 1):
            res.failure = f"verify exit code {code} with report {report!r}"
            res.verdict = None

    def warm_spec(self):
        raise NotImplementedError

    def make_round(self, r: int) -> list:
        raise NotImplementedError

    def transpile_verify(self, spec, src: str, out: str, res: ItemResult):
        raise NotImplementedError


class RealifyWide(Workload):
    """{H, CS} circuits through `transpile --to th` and `verify --mode realified`.

    Shapes (qubits, gates) are fixed per round, each half H and half CS, so
    every item of a shape costs about the same.  The seed draws the gate
    order and operands, the order of the shapes, and which item of the
    round gets a corrupted output (one emitted gate dropped) whose known
    answer is "not equivalent".
    """

    name = "realify_wide"
    exact = False
    SHAPES = ((5, 80), (5, 120), (6, 48), (6, 80), (7, 32), (7, 48))
    round_size = len(SHAPES)
    rounds = 7

    @staticmethod
    def _gates(rng: np.random.Generator, n: int, count: int):
        return random_gates(rng, n, ["H"] * (count - count // 2) + ["CS"] * (count // 2))

    def warm_spec(self):
        return (5, self._gates(np.random.default_rng(0), 5, 60), None)

    def make_round(self, r: int):
        rng = self.rng
        order = rng.permutation(len(self.SHAPES))
        planted = int(rng.integers(len(self.SHAPES)))
        specs = []
        for pos, s in enumerate(order):
            n, count = self.SHAPES[s]
            drop = float(rng.random()) if pos == planted else None
            specs.append((n, self._gates(rng, n, count), drop))
        return specs

    def transpile_verify(self, spec, src: str, out: str, res: ItemResult):
        if not self.transpile(res, ["transpile", src, "--to", "th", "-o", out], out):
            return
        if spec[2] is not None:
            self._corrupt(src, out, spec[2])
            res.planted = True
        self.verify(res, ["verify", src, out, "--mode", "realified"])

    def _corrupt(self, src: str, out: str, drop: float):
        """Drop one emitted gate, so that the known answer is "not equivalent".

        The gate dropped is the first, from a seeded position on, whose loss
        the oracle can see.  Some drops change nothing on the inputs the
        check covers, such as a Toffoli on the flag qubit while it holds |+>.
        """
        with open(out, "r", encoding="utf-8") as f:
            doc = json.load(f)
        gates = doc["gates"]
        start = int(drop * len(gates))
        for k in range(len(gates)):
            i = (start + k) % len(gates)
            doc["gates"] = gates[:i] + gates[i + 1:]
            with open(out, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            if oracle.realified_error(src, out) > self.tol:
                return


class RebaseMixed(Workload):
    """2-4-qubit circuits through `transpile --to kitaev --net` and exact verify.

    Each round has one 2-qubit, one 3-qubit and eight 4-qubit circuits, each
    with two of every named gate in seeded order on seeded operands.  The
    first round also carries one two-qubit and two one-qubit Haar GENERIC
    gates, one per item.  Their matrices are the first draws of a constant
    seed (GENERIC_POOL_SEED), not of the run seed: one dimension-4 net
    search costs from 0.003 s to 8 s depending on the target, so with
    targets drawn per run the figures would follow the draw rather than
    the program.
    The run seed places those gates and draws everything else.

    The eps passed cannot bind (per-gate dist < 2 <= eps / gates), so every
    item compiles and inexact rewrites show as large errors with the known
    answer "not equivalent" instead of being refused.
    """

    name = "rebase_mixed"
    # Verify takes about 0.16 s on most 4-qubit items and a third of that
    # or less on 2- and 3-qubit items and on about one 4-qubit item in six
    # (which of them depends on the gates drawn).  With eight 4-qubit items
    # in ten, p50 and p75 fall well inside the slow group, not on the
    # boundary between the groups, whatever the seed.
    QUBITS = (2, 3, 4, 4, 4, 4, 4, 4, 4, 4)
    round_size = len(QUBITS)
    rounds = 4
    NET_LENGTH = 8
    # Two of each named gate: X, Z, S and SDG take a net search, the rest
    # have exact rewrites.
    KINDS = tuple(ARITY) * 2

    def setup(self) -> dict:
        from threbase.gates import kitaev_gate_set

        self.net_path = self.path("net")
        facts = net_facts(build_and_load(kitaev_gate_set(), self.NET_LENGTH, self.net_path))
        self.warm_up()
        return facts

    def warm_spec(self):
        return (3, random_gates(np.random.default_rng(0), 3, tuple(ARITY)))

    def make_round(self, r: int):
        rng = self.rng
        specs = [(int(n), random_gates(rng, int(n), self.KINDS))
                 for n in rng.permutation(self.QUBITS)]
        if r == 0:
            pool = np.random.default_rng(GENERIC_POOL_SEED)
            generic = [haar(4, pool), haar(2, pool), haar(2, pool)]
            where = rng.choice(self.round_size, len(generic), replace=False)
            for matrix, item in zip(generic, where):
                n, gates = specs[item]
                k = 2 if matrix.shape[0] == 4 else 1
                qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
                gates.insert(int(rng.integers(len(gates) + 1)), ("GENERIC", qubits, matrix))
        return specs

    def transpile_verify(self, spec, src: str, out: str, res: ItemResult):
        argv = ["transpile", src, "--to", "kitaev", "--net", self.net_path,
                "--eps", str(2 * len(spec[1])), "-o", out]
        if self.transpile(res, argv, out):
            self.verify(res, ["verify", src, out, "--mode", "exact"])


class SK1Q(Workload):
    """Haar single-qubit targets refined by `sk.sk_trace`, then exact verify.

    The command line has no route to the recursion, so the rewrite is the
    library call; its label sequence is written as a one-qubit circuit and
    checked with `verify --mode exact` against the target, at a tolerance
    equal to the requested accuracy.
    """

    name = "sk_1q"
    round_size = 4
    rounds = 10
    NET_LENGTH = 12
    DEPTH = 3
    tol = 1e-2

    def setup(self) -> dict:
        from threbase.gates import demo_1q_gate_set
        from threbase.sk import SKConfig

        self.net = build_and_load(demo_1q_gate_set(), self.NET_LENGTH, self.path("net"))
        self.cfg = SKConfig(net=self.net, eps=self.tol, depth=self.DEPTH)
        self.warm_up()
        return net_facts(self.net)

    def warm_spec(self):
        return haar(2, np.random.default_rng(0))

    def make_round(self, r: int):
        return [haar(2, self.rng) for _ in range(self.round_size)]

    def write_input(self, path: str, u):
        write_circuit(path, 1, [("GENERIC", (0,), u)])

    def transpile_verify(self, u, src: str, out: str, res: ItemResult):
        from threbase import io, sk
        from threbase.circuit import Circuit

        t0 = time.perf_counter()
        seq = sk.sk_trace(u, self.cfg)[-1][0]
        gs = self.net.gateset
        text = io.emit_circuit(Circuit(1, [gs.gate(label) for label in seq]))
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
        res.transpile_s = time.perf_counter() - t0
        res.out_digest = hashlib.sha256(text.encode()).hexdigest()
        self.verify(res, ["verify", src, out, "--mode", "exact", "--tol", repr(self.tol)])


WORKLOADS = {w.name: w for w in (RealifyWide, RebaseMixed, SK1Q)}
