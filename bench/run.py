#!/usr/bin/env python3
"""Benchmark of the shiftfree command line, end to end and layer by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload exact-cap --seed 1 --seconds 35 --trace 0

Each operation is one ``shiftfree.cli.main(argv)`` call made in this process
(closed loop, one client, one thread), timed around the call, with the
package's caches emptied first.  Its stdout is checked by ``check.judge``
outside the timer.  The package is imported from ``src/`` of the checkout;
without it the run fails with exit code 2.

--trace 0 runs ops for --seconds and reports the end-to-end metrics.
--trace 1 runs a fixed list of ops, each once with spans around every layer
and once untraced, writes the spans under bench/out/ and reports the
per-layer metrics.  Either way the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it records the
run's context (host, versions, workload properties, unscaled times).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from check import judge  # noqa: E402
from workloads import WARMUP_ARGV, WORKLOADS, Op, stream  # noqa: E402

MODULES = ["shiftfree", "shiftfree.groups", "shiftfree.bounds", "shiftfree.exact",
           "shiftfree.construct", "shiftfree.cli"]
# Every run has at least this many ops, so at least ten lie beyond its p90.
MIN_OPS = 100
# A run stops taking new ops after this many multiples of --seconds.
MAX_STRETCH = 3
SETUP_SPAWNS = 7
# Host probe: run every PROBE_EVERY_S between ops; PROBE_REF_MS is its median
# on the reference host (2-core x86 VM, Python 3.11), where scaled times equal
# measured ones.
PROBE_EVERY_S = 0.1
PROBE_REF_MS = 1.8
IMPORTTIME_SPAWNS = 3
# Ops in one traced run, each run twice: about 35 s on the reference host.
TRACE_OPS = {"exact-cap": 3000, "coset-construct": 250, "large-order": 700}

SETUP_CHILD = (
    "import time\n"
    "from shiftfree.cli import main\n"
    f"rc = main({WARMUP_ARGV!r})\n"
    "print(repr(time.monotonic()))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_package() -> dict:
    if not (SRC / "shiftfree" / "__init__.py").is_file():
        raise BenchError(f"no shiftfree package under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(name) for name in MODULES}
    if Path(modules["shiftfree"].__file__).resolve().parent != SRC / "shiftfree":
        raise BenchError(f"shiftfree imported from {modules['shiftfree'].__file__}, not {SRC}")
    return modules


def call(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """(exit code or None on an exception, stdout, seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # noqa: BLE001 - an escaping exception is a failed op
        rc = None
    return rc, out.getvalue(), time.perf_counter() - t0


class Run:
    """Times, verdicts and instance shapes of the ops executed so far.

    Ops themselves are not kept: their argv and element lists would make up
    most of the process's peak RSS.
    """

    def __init__(self, caches: dict):
        self.caches = caches
        self.times: list[float] = []
        self.statuses: list[str] = []
        self.shapes: list[tuple[int, int, int]] = []  # (|G|, |S|, |H|)
        self.reasons: dict[str, int] = {}
        self.probes: list[float] = []
        self.unscaled: dict = {}

    def do(self, cli, op: Op) -> tuple[int | None, str, float, str]:
        # Every op starts with empty caches, as a fresh `shiftfree` process does.
        for fn in self.caches.values():
            fn.cache_clear()
        rc, out, dt = call(cli, op.argv)
        if rc is None:
            status, reason, h = "error", "exception escaped main", None
        else:
            status, reason, h = judge(op, rc, out)
        if reason:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        self.times.append(dt)
        self.statuses.append(status)
        if h:
            self.shapes.append((math.prod(op.orders), len(op.elements), h))
        return rc, out, dt, status

    @property
    def attempted(self) -> int:
        return len(self.statuses)

    @property
    def passed(self) -> int:
        return self.statuses.count("ok")

    @property
    def correct(self) -> bool:
        return "wrong" not in self.statuses and "error" not in self.statuses

    def context(self) -> dict:
        out = {
            "ops": self.attempted,
            "statuses": {k: self.statuses.count(k) for k in ("ok", "timeout", "wrong", "error")},
            "failure_reasons": self.reasons,
            "host_probe_ms": statistics.median(self.probes) if self.probes else None,
            "unscaled": self.unscaled,
        }
        if self.shapes:
            out.update({
                "share_h_gt_1": sum(1 for *_, h in self.shapes if h > 1) / len(self.shapes),
                "median_G": statistics.median(g for g, _, _ in self.shapes),
                "median_S": statistics.median(s for _, s, _ in self.shapes),
                "median_G_over_H": statistics.median(g // h for g, _, h in self.shapes),
            })
        return out


def setup_seconds() -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its first call."""
    cmd = [sys.executable, "-c", SETUP_CHILD]
    samples = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"set-up call failed: {proc.stderr.strip()[-400:]}")
        status, reason, _ = judge(Op(WARMUP_ARGV, "bounds", (6,), [0, 1]), 0, "\n".join(lines[:-1]))
        if status != "ok":
            raise BenchError(f"set-up call answered wrongly: {reason}")
        if i > 0:  # the first spawn only fills the file and bytecode caches
            samples.append(float(lines[-1]) - t0)
    return samples


def import_seconds() -> dict:
    """Cumulative import time of numpy and of shiftfree.cli, by -X importtime."""
    runs = []
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import shiftfree.cli"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()[-400:]}")
        numpy_us = shiftfree_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.strip() == "numpy":
                numpy_us += int(cumulative)
            elif name.rstrip() in (" shiftfree", " shiftfree.cli"):
                shiftfree_us += int(cumulative)
        runs.append((numpy_us / 1e6, shiftfree_us / 1e6))
    return {"setup.import_numpy_s": statistics.median(r[0] for r in runs),
            "setup.import_shiftfree_s": statistics.median(r[1] for r in runs)}


def host_probe_ms() -> float:
    """Milliseconds for a fixed mix of pure-Python and stdlib work.

    It stands for the host's current speed.  The mix has a tight bytecode
    loop, big-int shifts, and an argparse parse plus a JSON round trip shaped
    like one CLI call: different parts of shiftfree slow down differently
    when the host does, and no single part tracks them all.
    """
    t0 = time.perf_counter()
    x, d = 0, {}
    for i in range(4000):
        x ^= (i * 2654435761) & 0xFFFFFFFF
        d[i & 255] = x
    b = (1 << 2048) - 1
    for i in range(140):
        b = ((b << 1) | (b >> 2047)) & ((1 << 2048) - 1)
    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="cmd")
    for name in ("a", "b"):
        p = sub.add_parser(name)
        p.add_argument("x")
        p.add_argument("--n", type=int, default=0)
    args = parser.parse_args(["a", "{0,1,2}", "--n", "3"])
    doc = {"x": args.x, "items": list(range(150)), "nested": {"k": [args.n] * 20}}
    json.loads(json.dumps(doc, indent=2))
    members = set(range(0, 600, 3))
    sum(1 for i in range(600) if (i * 7) % 600 in members)
    return (time.perf_counter() - t0) * 1000.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def end_to_end(workload: str, seed: int, seconds: float, modules: dict,
               caches: dict) -> tuple[Run, dict]:
    """Untraced timed loop; op times are scaled to the reference host speed.

    The host's speed drifts by up to 1.5x over minutes and moves every op
    alike, so op times are multiplied by PROBE_REF_MS over the median of the
    host probes taken through the loop.  The unscaled values go into the
    run's context.  setup_s is not scaled: probes between spawns do not track
    the spawns' speed.
    """
    setup = statistics.median(setup_seconds())
    cli = modules["shiftfree.cli"]
    run = Run(caches)
    ops = stream(workload, seed)
    started = time.perf_counter()
    next_probe = started
    while True:
        now = time.perf_counter()
        elapsed = now - started
        if elapsed >= MAX_STRETCH * seconds or (elapsed >= seconds and run.attempted >= MIN_OPS):
            break
        if now >= next_probe:
            run.probes.append(host_probe_ms())
            next_probe = now + PROBE_EVERY_S
        run.do(cli, next(ops))
    raw = {
        "ops_per_s": run.passed / sum(run.times),
        "op_ms_p50": statistics.median(run.times) * 1000.0,
        "op_ms_p90": percentile(run.times, 0.9) * 1000.0,
    }
    scale = PROBE_REF_MS / statistics.median(run.probes)
    run.unscaled = raw
    metrics = {
        "ops_per_s": (raw["ops_per_s"] / scale, "ops/s"),
        "op_ms_p50": (raw["op_ms_p50"] * scale, "ms"),
        "op_ms_p90": (raw["op_ms_p90"] * scale, "ms"),
        "ok_frac": (run.passed / run.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup, "s"),
    }
    return run, metrics


def per_layer(workload: str, seed: int, modules: dict, caches: dict) -> tuple[Run, dict]:
    """Traced run; per-layer times are measured, not scaled by the host probe."""
    from tracing import Tracer

    imports = import_seconds()
    cli = modules["shiftfree.cli"]
    ops = stream(workload, seed)
    batch = [next(ops) for _ in range(TRACE_OPS[workload])]

    # Each op runs once traced and once untraced, in alternating order, so
    # the host's drift and warm CPU caches fall on both sides alike.  Run.do
    # clears the caches, and with them cache_info, before every call, so the
    # traced calls' hits and misses are summed as they happen.
    tracer = Tracer()
    run = Run(caches)
    lookups = {name: [0, 0] for name in caches}
    nodes = budget_exceeded = 0
    traced_s = untraced_s = 0.0
    for i, op in enumerate(batch):
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if not traced:
                untraced_s += run.do(cli, op)[2]
                continue
            tracer.install(modules)
            try:
                _, out, dt, status = run.do(cli, op)
            finally:
                tracer.uninstall()
            traced_s += dt
            for name, fn in caches.items():
                info = fn.cache_info()
                lookups[name][0] += info.hits
                lookups[name][1] += info.misses
            if op.command == "exact" and status == "ok":
                nodes += json.loads(out)["exact"]["nodes"]
            budget_exceeded += status == "timeout"

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-{seed}.jsonl")

    t = tracer.totals()

    def frac(name: str) -> float:
        hits, misses = lookups[name]
        return hits / (hits + misses) if hits + misses else 0.0

    m = {
        "groups.stabilizer.ms": (t["groups.stabilizer"]["ms"], "ms"),
        "groups.stabilizer.calls": (t["groups.stabilizer"]["calls"], "count"),
        "groups.stabilizer.cache_hit_frac": (frac("stabilizer"), "ratio"),
        "groups.translate.calls": (tracer.translate_calls, "count"),
        "groups.translate.elements": (tracer.translate_elements, "count"),
        "groups.quotient_view.ms": (t["groups.quotient_view"]["ms"], "ms"),
        "groups.quotient_view.cache_hit_frac": (frac("quotient_view"), "ratio"),
        "groups.project_subset.ms": (t["groups.project_subset"]["ms"], "ms"),
        "groups.preimage_subset.ms": (t["groups.preimage_subset"]["ms"], "ms"),
        "groups.subgroup_generated.ms": (t["groups.subgroup_generated"]["ms"], "ms"),
        "groups.from_indices.ms": (t["groups.from_indices"]["ms"], "ms"),
        "groups.indices.ms": (t["groups.indices"]["ms"], "ms"),
        "bounds.bounds_report.self_ms": (t["bounds.bounds_report"]["self_ms"], "ms"),
        "bounds.ceil_root_power.ms": (t["bounds.ceil_root_power"]["ms"], "ms"),
        "bounds.ceil_root_power.calls": (t["bounds.ceil_root_power"]["calls"], "count"),
        "bounds.ceil_root_power.target_bits_max": (tracer.root_target_bits_max, "bits"),
        "exact.translate_family.ms": (t["exact.translate_family"]["ms"], "ms"),
        "exact.exact_N.self_ms": (t["exact.exact_N"]["self_ms"], "ms"),
        "exact.nodes": (nodes, "count"),
        "exact.budget_exceeded": (budget_exceeded, "count"),
        "construct.construct_thm1.self_ms": (t["construct.construct_thm1"]["self_ms"], "ms"),
        "construct.construct_thm2.self_ms": (t["construct.construct_thm2"]["self_ms"], "ms"),
        "construct.search_avoider.ms": (t["construct.search_avoider"]["ms"], "ms"),
        "construct.search_avoider.calls": (t["construct.search_avoider"]["calls"], "count"),
        "construct.verify_avoids.ms": (t["construct.verify_avoids"]["ms"], "ms"),
        "construct.verify_avoids.calls": (t["construct.verify_avoids"]["calls"], "count"),
        "cli.parse_set.ms": (t["cli.parse_set"]["ms"], "ms"),
        "cli.main.self_ms": (t["cli.main"]["self_ms"], "ms"),
        "setup.import_numpy_s": (imports["setup.import_numpy_s"], "s"),
        "setup.import_shiftfree_s": (imports["setup.import_shiftfree_s"], "s"),
        "trace_overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    }
    return run, m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        modules = load_package()
        groups = modules["shiftfree.groups"]
        caches = {"stabilizer": groups.stabilizer, "quotient_view": groups.quotient_view}
        warm = Run(caches)
        warm.do(modules["shiftfree.cli"], Op(WARMUP_ARGV, "bounds", (6,), [0, 1]))
        if warm.passed != 1:
            raise BenchError("warm-up call answered wrongly")
        if args.trace:
            run, metrics = per_layer(args.workload, args.seed, modules, caches)
        else:
            run, metrics = end_to_end(args.workload, args.seed, args.seconds, modules, caches)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        **run.context(),
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.attempted - run.passed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
