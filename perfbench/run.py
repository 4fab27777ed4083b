"""Benchmark for threbase: transpile and verify, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload realify_wide --seed 1 --seconds 38 --trace 0

Each run has a fixed set of items, drawn from --seed, and makes passes
over all of them.  With --trace 0 it makes passes until --seconds have
passed (at least MIN_PASSES whole), sets up SETUP_REPEATS times, before
the passes and between them, and reports the end-to-end metrics named in
BENCHMARK.json, with every time scaled by a host probe (see end_to_end).  With --trace 1 it sets up once under
the span recorder, makes one pass untraced and one traced, and reports
the per-layer metrics, including the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it is the full
report: the environment, every end-to-end metric (with the tail
percentile and sample counts), the checks and the determinism digests.
The report is also written under perfbench/_run/results/.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported anywhere in this process.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / "_run"
SETUP_REPEATS = 5
MIN_PASSES = 2
# The host probe, and the probe time that reported seconds are scaled
# to: about what it takes on a 2-vCPU x86_64 host when other tenants
# leave it alone.
PROBE_LOOP = 5000
PROBE_PRODUCTS = 300
PROBE_REF_S = 3.0e-3
# Fixed, so that commits compare the same percentile: the highest of
# 75/90/95/99 with at least ten samples beyond it on every workload at
# the baseline.
TAIL_PERCENTILE = 75


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as f:
        return json.load(f)


def source_digest() -> str:
    h = hashlib.sha256()
    for d in (SRC / "threbase", HERE):
        for p in sorted(d.glob("*.py")):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "blas_pin_vars": list(BLAS_VARS),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- measuring ------------------------------------------------------------

def run_one(wl, idx: int):
    from workloads import ItemResult

    try:
        return wl.run_item(idx)
    except Exception:  # an item that raises is counted, not fatal
        return ItemResult(idx, failure=traceback.format_exc(limit=3))


def timed_setup(wl) -> tuple[float, dict]:
    t0 = time.perf_counter()
    facts = wl.setup()
    return time.perf_counter() - t0, facts


def probe(m, c) -> float:
    """Seconds for a fixed kernel of the kinds of work threbase does:
    interpreter loops, 16x16 complex matrix products, and a chain of 2x2
    unitary products with their traces and adjoints."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i
    for _ in range(PROBE_PRODUCTS):
        m @ m
    u = c
    for _ in range(PROBE_PRODUCTS):
        u = u @ c
        u.trace()
        u.conj().T
    return time.perf_counter() - t0


class Run:
    """What an untraced run measured.

    `passes[p][k]` is item k's result in pass p and `hosts[p][k]` the mean
    of the probe times just before and after it; `setups` holds each
    set-up's seconds and its probe mean; `probes` is every probe time.
    """

    def __init__(self):
        self.setups: list[tuple[float, float]] = []
        self.passes: list[list] = []
        self.hosts: list[list[float]] = []
        self.probes: list[float] = []
        self.facts: dict = {}


def measure(wl, seconds: float) -> Run:
    """Closed loop, one client: passes over the same items, set-up between.

    Passes repeat until `seconds` have passed, the last one stopping
    there; at least MIN_PASSES are whole.  Set-up runs before each pass
    until it has run SETUP_REPEATS times, and after the last pass as often
    as it still must, so that its repeats, like an item's, lie apart in
    time.  The host probe runs before and after every item and set-up.
    """
    import numpy as np

    m = np.eye(16, dtype=complex)
    c = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    items = wl.items()
    run = Run()
    run.probes.append(probe(m, c))

    def probed(fn, *args):
        value = fn(*args)
        run.probes.append(probe(m, c))
        return value, (run.probes[-2] + run.probes[-1]) / 2

    def setup():
        (s, run.facts), host = probed(timed_setup, wl)
        run.setups.append((s, host))

    deadline = time.perf_counter() + seconds

    def over() -> bool:
        return len(run.passes) >= MIN_PASSES and time.perf_counter() > deadline

    while not over():
        if len(run.setups) < SETUP_REPEATS:
            setup()
        row = []
        for idx in items:
            if over():
                break
            row.append(probed(run_one, wl, idx))
        if row:
            run.passes.append([res for res, _ in row])
            run.hosts.append([host for _, host in row])
    while len(run.setups) < SETUP_REPEATS:
        setup()
    return run


def measure_traced(wl, tracer) -> tuple[dict, list[list]]:
    """Set-up under the tracer, then one pass untraced and one traced."""
    from spans import SETUP_ITEM, install

    items = wl.items()
    install(tracer)
    try:
        facts = wl.setup()
    finally:
        tracer.unpatch()
    untraced = [run_one(wl, idx) for idx in items]
    traced = []
    install(tracer)
    try:
        for idx in items:
            tracer.item = idx
            traced.append(run_one(wl, idx))
    finally:
        tracer.unpatch()
        tracer.item = SETUP_ITEM
    return facts, [untraced, traced]


def quantile(values, p: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[p - 1]) \
        if len(values) > 1 else float(values[0])


def timing(values, name: str, out: dict, detail: dict):
    tail = quantile(values, TAIL_PERCENTILE)
    out[f"{name}.p50"] = statistics.median(values)
    out[f"{name}.tail"] = tail
    detail[f"{name}.p50"] = {"samples": len(values)}
    detail[f"{name}.tail"] = {
        "percentile": TAIL_PERCENTILE,
        "samples": len(values),
        "beyond": sum(v > tail for v in values),
    }


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Metric values, and what stands beside them in the report.

    Other tenants of a shared machine slow it by up to 1.8x, for seconds
    to minutes at a time, and slow the probe about as much as the program.
    So every time is scaled to a host whose probe takes PROBE_REF_S: it is
    multiplied by PROBE_REF_S over the mean probe time just before and
    after it.  An item's transpile and verify times are each the median
    of its scaled times over the passes.  The unscaled medians are
    reported beside them.
    """
    passes, hosts = run.passes, run.hosts
    done = [k for k in range(len(passes[0]))
            if all(p[k].completed for p in passes if k < len(p))]

    def over_passes(attr: str, k: int, scaled: bool = True) -> float:
        return statistics.median(
            getattr(p[k], attr) * (PROBE_REF_S / h[k] if scaled else 1.0)
            for p, h in zip(passes, hosts) if k < len(p))

    transpile = [over_passes("transpile_s", k) for k in done]
    verify = [over_passes("verify_s", k) for k in done]
    busy = sum(transpile) + sum(verify)
    own = [passes[0][k].error for k in done
           if passes[0][k].error is not None and not passes[0][k].planted]
    setup_s = [s * PROBE_REF_S / host for s, host in run.setups]
    out = {"setup_s": statistics.median(setup_s)}
    detail = {"setup_s": {"repeats": setup_s,
                          "unscaled": [s for s, _ in run.setups]}}
    timing(transpile or [0.0], "transpile_s", out, detail)
    timing(verify or [0.0], "verify_s", out, detail)
    for attr in ("transpile_s", "verify_s"):
        raw = [over_passes(attr, k, scaled=False) for k in done] or [0.0]
        detail[f"{attr}.p50"]["unscaled"] = statistics.median(raw)
        detail[f"{attr}.tail"]["unscaled"] = quantile(raw, TAIL_PERCENTILE)
    out["items_per_s"] = len(done) / busy if busy > 0 else 0.0
    detail["items_per_s"] = {"items": len(done), "passes": len(passes),
                             "runs": sum(map(len, passes)), "busy_s": busy}
    detail["host_probe"] = {
        "reference_s": PROBE_REF_S, "min_s": min(run.probes),
        "p50_s": statistics.median(run.probes),
        "max_s": max(run.probes), "probes": len(run.probes),
    }
    out["error.p50"] = statistics.median(own) if own else 0.0
    out["error.max"] = max(own) if own else 0.0
    detail["error.p50"] = detail["error.max"] = {"samples": len(own)}
    runs = [r for p in passes for r in p]
    out["failed_share"] = sum(r.failed for r in runs) / len(runs)
    detail["failed_share"] = {"attempted": len(runs)}
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out, detail


E2E_UNITS = {
    "setup_s": "s", "transpile_s.p50": "s", "transpile_s.tail": "s",
    "verify_s.p50": "s", "verify_s.tail": "s", "items_per_s": "1/s",
    "error.p50": "1", "error.max": "1", "failed_share": "1", "peak_rss_mib": "MiB",
}


# --- per-layer metrics ----------------------------------------------------

def per_layer(tracer, traced, untraced, facts: dict, names) -> dict:
    """Per-item averages over the traced items; net figures per build."""
    from spans import SETUP_ITEM

    items = len(traced)
    self_s = tracer.self_times()
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    build_self = 0.0
    dist_in_nearest = 0
    spans = tracer.spans
    for rec, s in zip(spans, self_s):
        name = rec[0]
        if rec[4] == SETUP_ITEM:
            if name == "sk.build_net":
                build_self += s
            continue
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + s
        if name == "linalg.dist" and rec[3] >= 0 and spans[rec[3]][0] == "sk.nearest":
            dist_in_nearest += 1
    counters: dict[str, float] = {}
    for item, cs in tracer.counters.items():
        if item != SETUP_ITEM:
            for k, v in cs.items():
                counters[k] = counters.get(k, 0) + v

    def avg(x):
        return x / items if items else 0.0

    # The same items ran untraced and then traced, so the ratio of their
    # busy times is the ratio of traced to untraced items_per_s.
    t_plain = sum(r.transpile_s + r.verify_s for r in untraced)
    t_traced = sum(r.transpile_s + r.verify_s for r in traced)
    rebase_calls = calls.get("passes.rebase_exact", 0)
    out = {
        "sk.nearest.dist_per_call":
            dist_in_nearest / calls["sk.nearest"] if calls.get("sk.nearest") else 0.0,
        "sk.build_net.self_s": build_self,
        "sk.build_net.entries": facts.get("entries", 0),
        "sk.build_net.accept_share": facts.get("accept_share", 0.0),
        "sk.sk_trace.out_len": avg(counters.get("sk.sk_trace.out_len", 0)),
        "passes.realify_circuit.out_gates":
            avg(counters.get("passes.realify_circuit.out_gates", 0)),
        "passes.rebase_circuit.out_gates":
            avg(counters.get("passes.rebase_circuit.out_gates", 0)),
        "passes.rebase_exact.exact_share":
            counters.get("passes.rebase_exact.exact_hits", 0) / rebase_calls
            if rebase_calls else 0.0,
        "trace.overhead": t_plain / t_traced if t_traced > 0 else 0.0,
    }
    # Every other name is "<span>.calls" or "<span>.self_s".
    for name in names:
        if name not in out:
            span, kind = name.rsplit(".", 1)
            out[name] = avg(calls.get(span, 0) if kind == "calls" else busy.get(span, 0.0))
    return out


def count_digests(tracer) -> tuple[dict[int, str], str]:
    """Digest of every deterministic count, per item and for the set-up."""
    from spans import SETUP_ITEM

    per: dict[int, dict[str, float]] = {}
    for rec in tracer.spans:
        d = per.setdefault(rec[4], {})
        d[rec[0] + ".calls"] = d.get(rec[0] + ".calls", 0) + 1
    for item, cs in tracer.counters.items():
        per.setdefault(item, {}).update(cs)
    digests = {
        item: hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]
        for item, d in per.items()
    }
    return digests, digests.pop(SETUP_ITEM, "")


# --- determinism ----------------------------------------------------------

def check_determinism(args, results, item_counts, setup_counts, facts) -> dict:
    """Compare this run's digests with earlier runs of the same code and seed.

    Output bytes are compared on the items both runs reached; count digests
    only between traced runs.  The state lives under perfbench/_run/state
    and is keyed by a digest of the program and benchmark sources.
    """
    state_dir = RUN_DIR / "state"
    state_dir.mkdir(parents=True, exist_ok=True)
    path = state_dir / f"{args.workload}-{args.seed}-{source_digest()}.json"
    mine = {
        "out": [r.out_digest for r in results],
        "counts": [item_counts.get(r.idx) for r in results] if item_counts else [],
        "setup_counts": setup_counts or None,
        "entries": facts.get("entries"),
    }
    mismatches = []
    previous = None
    if path.is_file():
        previous = json.loads(path.read_text())
        for key in ("out", "counts"):
            for i, (a, b) in enumerate(zip(previous[key], mine[key])):
                if a and b and a != b:
                    mismatches.append(f"{key}[{i}]")
        for key in ("setup_counts", "entries"):
            if previous[key] is not None and mine[key] is not None \
                    and previous[key] != mine[key]:
                mismatches.append(key)
        merged = dict(previous)
        for key in ("out", "counts"):
            if len(mine[key]) > len(previous[key]):
                merged[key] = previous[key] + mine[key][len(previous[key]):]
        for key in ("setup_counts", "entries"):
            merged[key] = previous[key] or mine[key]
    else:
        merged = mine
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(merged))
    os.replace(tmp, path)
    return {
        "compared_with_earlier_run": previous is not None,
        "mismatches": mismatches,
        "output_digest": hashlib.sha256("".join(mine["out"]).encode()).hexdigest()[:16],
        "counts_digest": hashlib.sha256(
            json.dumps([mine["counts"], setup_counts]).encode()).hexdigest()[:16]
        if item_counts else None,
        "items": len(results),
    }


# --- main -----------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "threbase" / "__init__.py").is_file():
        sys.stderr.write(f"error: no threbase sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import workloads
    from spans import Tracer

    bench = spec()
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}\n")
        return 2

    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        report = {"environment": environment(args)}
        if args.trace == 0:
            run = measure(wl, args.seconds)
            facts, passes = run.facts, run.passes
            metrics, detail = end_to_end(run)
            item_counts, setup_counts = {}, ""
        else:
            tracer = Tracer()
            facts, passes = measure_traced(wl, tracer)
            metrics = per_layer(tracer, passes[1], passes[0], facts,
                                [m["name"] for m in bench["per_layer"]])
            item_counts, setup_counts = count_digests(tracer)
        report["pass_mismatches"] = sorted({
            a.idx for p in passes[1:] for a, b in zip(passes[0], p)
            if a.out_digest != b.out_digest
        })
        report["determinism"] = check_determinism(
            args, passes[1], item_counts, setup_counts, facts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = [r for p in passes for r in p]
    failures = [r for r in checked if r.failed]
    planted = [r for r in checked if r.planted]
    disagree = [r.idx for r in checked if r.verdict is not None and r.verdict != r.known]
    report["checks"] = {
        "items": len(checked),
        "failed": len(failures),
        "verdict_disagreements": disagree,
        "planted_corrupt": len(planted),
        "planted_judged_not_equivalent": sum(r.verdict is False for r in planted),
        "first_failures": [
            {"item": r.idx, "reason": r.failure or
             f"verify said {r.verdict}, oracle {r.known} (error {r.error!r})"}
            for r in failures[:5]
        ],
    }
    report["notes"] = [
        "single process, single thread, no queues: all time is busy time, "
        "so no wait-time metrics exist",
        f"closed loop with one client; {len(passes[0])} items in "
        f"{wl.rounds} rounds of {wl.round_size}, run {sum(map(len, passes))} times "
        f"in {len(passes)} passes",
        f"tail is p{TAIL_PERCENTILE}; its samples and the count beyond it stand beside it",
    ]
    names = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    chosen = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names}
    if args.trace == 0:
        report["end_to_end"] = {k: {"value": metrics[k], "unit": unit, **detail.get(k, {})}
                                for k, unit in E2E_UNITS.items()}
        report["host_probe"] = detail["host_probe"]
    else:
        report["per_layer"] = chosen
    det = report["determinism"]
    correct = (
        not failures
        and not det["mismatches"]
        and not report["pass_mismatches"]
        and all(r.verdict is False for r in planted)
    )
    report["correct"] = correct

    (RUN_DIR / "results").mkdir(exist_ok=True)
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    # Each item's seconds in every pass, with the probe time around it.
    hosts = run.hosts if args.trace == 0 else [[None] * len(p) for p in passes]
    report["item_seconds"] = [[r.idx, r.transpile_s, r.verify_s, h]
                              for p, hp in zip(passes, hosts) for r, h in zip(p, hp)]
    if args.trace == 0:
        report["probes"] = run.probes
    (RUN_DIR / "results" / out_name).write_text(json.dumps(report, indent=1) + "\n")
    del report["item_seconds"]
    report.pop("probes", None)
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": chosen,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
