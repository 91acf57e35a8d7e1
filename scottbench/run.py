"""Benchmark for scottgroups: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 scottbench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Workloads ``decide``, ``sentences`` and ``construct`` are closed loops with
one client inside this process.  ``cli`` is a closed loop that starts one
``scottgroups`` process per call.  The seed fixes the op list.  For the
in-process workloads, one untimed pass warms the caches the seeded inputs
fill.  The timed phase repeats whole passes over the list until
``--seconds`` have elapsed.  Every answer is checked against ``oracle``
after the timed phase.  The last line of stdout is one JSON object; the
lines before it print every metric by name with its unit.

Times are CPU times of the process that does the work: this process for an
op, the child process for set-up samples and cli calls.  Each is scaled by
readings of a fixed gauge taken around it (``Gauge``), because the speed of
a machine shared with other tenants drifts in CPU time as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced half, wraps each module's public entry points
(``spans.py``) and reports per-layer metrics plus the tracing overhead.  The
traced run of ``cli`` measures each subcommand as a process of its own, then
runs the same calls through ``cli.main`` in this process, traced.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_SAMPLES = 7          # fresh interpreters whose set-up time gives the median
CHILD_TIMEOUT_S = 120
TAIL_MIN_BEYOND = 10       # op_tail_ms: highest percentile with this many ops beyond


def fail(message: str) -> None:
    print(f"scottbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "scottgroups" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'scottgroups'}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import scottgroups
    if Path(scottgroups.__file__).resolve().parent != (SRC / "scottgroups").resolve():
        fail(f"imported scottgroups from {scottgroups.__file__}, not from {SRC}")
    return scottgroups


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def python_loop() -> float:
    """CPU seconds of a fixed piece of pure-Python work, about 1 ms."""
    t0 = time.process_time()
    table: dict[int, int] = {}
    total = 0
    for i in range(4000):
        table[i % 997] = (i * 2654435761) % 1000003
        total += table[i % 997] % 5
    return time.process_time() - t0


def bare_interpreter() -> float:
    """CPU seconds of a child process that starts the interpreter and exits."""
    cpu, out = run_child([sys.executable, "-c", "pass"])
    if out.returncode != 0:
        fail(f"bare interpreter failed: {out.stderr.strip()[-500:]}")
    return cpu


@dataclasses.dataclass(frozen=True)
class Gauge:
    """A fixed piece of work read among the measured ones.

    On a machine shared with other tenants, the speed at which a process runs
    drifts by up to 2x, in CPU time as much as in wall time: it jumps from one
    100 ms to the next, and its mean wanders over seconds to minutes.  Every
    end-to-end time, and each cli subcommand's, is scaled by the median of
    the readings taken over the same stretch of seconds:
    time * nominal_s / median.  A single reading is too short to use on its
    own.  Span times stay unscaled.
    """
    read: Callable[[], float]
    nominal_s: float           # times are scaled to a machine that reads this
    every_s: float             # CPU time of ops between two readings

    def scale(self, readings: list[float]) -> float:
        return self.nominal_s / statistics.median(readings)


# Ops in this process are read against a pure-Python loop.  Child processes
# are read against the bare interpreter: process start-up drifts apart from
# pure-Python speed, and over 20-s windows of four minutes, cli call times
# over the bare interpreter's ranged half as far as over the loop's.
IN_PROCESS = Gauge(python_loop, 1e-3, 0.02)
PROCESSES = Gauge(bare_interpreter, 0.05, 0.3)


def children_cpu() -> float:
    """CPU seconds of every child process this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``argv`` from the checkout root with ``src`` importable; returns
    (the child's CPU seconds, the finished process)."""
    before = children_cpu()
    out = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    return children_cpu() - before, out


def setup_samples(argv: list[str]) -> tuple[list[float], list[float]]:
    """CPU seconds of SETUP_SAMPLES fresh interpreters running ``argv``, and
    the readings of the PROCESSES gauge taken between them."""
    samples, readings = [], [PROCESSES.read() for _ in range(2)]
    for _ in range(SETUP_SAMPLES):
        cpu, out = run_child(argv)
        if out.returncode != 0:
            fail(f"set-up child failed: {out.stderr.strip()[-500:]}")
        samples.append(cpu)
        readings.append(PROCESSES.read())
    return samples, readings


def scaled_setup(argv: list[str]) -> list[float]:
    samples, readings = setup_samples(argv)
    return [cpu * PROCESSES.scale(readings) for cpu in samples]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[int, float]:
    """(P, value): the highest integer percentile with at least
    TAIL_MIN_BEYOND samples above its nearest-rank position."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return 0, ordered[0]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def run_passes(ops, seconds: float, passes: int | None = None, clock=time.process_time,
               gauge: Gauge = IN_PROCESS):
    """Whole passes over ``ops``: ``passes`` of them, or else as many as end
    within ``seconds`` of wall time if each takes as long as the one before
    (at least one).  Returns (per-pass lists of op times by ``clock``,
    scaled by the median ``gauge`` reading of their pass; the same unscaled;
    digests)."""
    scaled: list[list[float]] = []
    raw: list[list[float]] = []
    digests: list = []
    start = last = time.perf_counter()
    while len(raw) < (passes or math.inf):
        now = time.perf_counter()
        if passes is None and raw and now - start + (now - last) > seconds:
            break
        last = now
        times, readings, since = [], [gauge.read()], 0.0
        for op in ops:
            t0 = clock()
            try:
                digest = op.call()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                digest = exc
            elapsed = clock() - t0
            times.append(elapsed)
            digests.append(digest)
            since += elapsed
            if since >= gauge.every_s:
                readings.append(gauge.read())
                since = 0.0
        readings.append(gauge.read())
        raw.append(times)
        scale = gauge.scale(readings)
        scaled.append([t * scale for t in times])
    return scaled, raw, digests


def end_to_end(setup: list[float], latencies: list[list[float]],
               rss_mb: float) -> tuple[dict, str]:
    """The five end-to-end metrics from gauged times.  An op's latency is its
    median over the passes.  One client runs ops back to back, so ops_per_s
    is the op count of a pass over the median time of a pass."""
    per_op = [statistics.median(column) for column in zip(*latencies)]
    p, tail_s = tail(per_op)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(per_op) / statistics.median(map(sum, latencies)), "ops/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = (f"{len(latencies)} passes, tail = p{p} of {len(per_op)} ops, set-up samples "
            + " ".join(f"{x:.3f}" for x in setup))
    return metrics, info


def judge(ops, digests) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, unexpected, notes) over the distinct ops of the
    list, so that every run of a workload reports the same counts however
    many passes fit in its time.  ``digests`` holds the answers of every pass
    in op order; an op fails if any of its answers fails.  Every failure
    counts; only failures of ops outside the recorded known defects make the
    run incorrect."""
    failing: set[int] = set()
    notes: list[str] = []
    for i, digest in enumerate(digests):
        op = ops[i % len(ops)]
        ok = not isinstance(digest, Exception)
        if ok:
            try:
                ok = bool(op.check(digest))
            except Exception:
                ok = False
        if not ok and i % len(ops) not in failing:
            failing.add(i % len(ops))
            if not op.known_defect and len(notes) < 5:
                notes.append(f"{op.kind}: got {digest!r}"[:300])
    unexpected = sum(not ops[i].known_defect for i in failing)
    return len(ops), len(failing), unexpected, notes


def run_workload(workload: str, seed: int, seconds: float, traced: bool):
    """Returns (metrics, attempted, failed, unexpected, notes, info)."""
    sg = import_package()
    import warmups
    import workloads
    rng = random.Random(seed)
    if workload == "cli":
        ops = workloads.cli_calls(rng, cli_invoke_json)
        if traced:
            return cli_traced(sg, seed, ops, seconds)
        setup = scaled_setup([sys.executable, "-c", "import scottgroups.cli"])
        latencies, _, digests = run_passes(ops, seconds, clock=children_cpu, gauge=PROCESSES)
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        getattr(warmups, workload)(sg)
        ops = getattr(workloads, f"{workload}_ops")(rng, sg)
        setup = scaled_setup([sys.executable, str(HERE / "setup_child.py"), workload])
        if traced:
            metrics, digests, info = traced_passes(sg, ops, seconds, f"{workload}-seed{seed}")
            metrics.update(cli_placeholders())
            return (metrics, *judge(ops, digests), info)
        *_, digests = run_passes(ops, 0, 1)  # fills the caches the seeded inputs use
        gc.collect()
        latencies, _, timed = run_passes(ops, seconds)
        digests += timed
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, info = end_to_end(setup, latencies, rss_mb)
    return (metrics, *judge(ops, digests), info)


def traced_passes(sg, ops, seconds: float, label: str):
    """One untimed pass, an untraced half of ``seconds``, then as many passes
    traced.  Returns (per-layer metrics, digests of every pass, info)."""
    import spans
    *_, digests = run_passes(ops, 0, 1)
    gc.collect()
    plain_lat, _, timed = run_passes(ops, seconds / 2)
    digests += timed
    tracer = spans.Tracer()
    tracer.install(sg)
    try:
        traced_lat, traced_raw, timed = run_passes(with_op_ids(ops, tracer), 0,
                                                   len(plain_lat))
    finally:
        tracer.uninstall()
    digests += timed
    write_spans(tracer, label)
    attempted, failed = judge(ops, digests)[:2]
    metrics = spans.layer_metrics(tracer.summary(), tracer.counts,
                                  int(sum(map(sum, traced_raw)) * 1e9))
    metrics["trace.overhead"] = (statistics.median(map(sum, traced_lat))
                                 / statistics.median(map(sum, plain_lat)) - 1, "ratio")
    metrics["failed_share"] = (failed / attempted, "ratio")
    info = (f"{len(ops)} ops a pass, {len(plain_lat)} passes untraced then traced, "
            f"{len(tracer.spans)} spans")
    return metrics, digests, info


def with_op_ids(ops, tracer):
    """The same ops, each telling the tracer its index before it runs."""
    def tagged(i, call):
        def run():
            tracer.op_id = i
            return call()
        return run
    return [dataclasses.replace(op, call=tagged(i, op.call)) for i, op in enumerate(ops)]


def write_spans(tracer, label: str) -> None:
    """Spans as tab-separated name, start_ns, end_ns, parent, op under
    .bench_build/spans/ of the checkout, written once the run is over."""
    out = ROOT / ".bench_build" / "spans"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{label}.tsv", "w", encoding="utf-8") as fh:
        fh.write("name\tstart_ns\tend_ns\tparent\top\n")
        for span in tracer.spans:
            fh.write("\t".join(map(str, span)) + "\n")


# ---------------------------------------------------------------------------
# cli workload
# ---------------------------------------------------------------------------

CLI_ENTRY = "import sys; from scottgroups.cli import main; sys.exit(main())"


def cli_invoke_json(argv: list[str]) -> dict:
    """The payload a ``scottgroups`` process prints for ``argv``."""
    _, out = run_child([sys.executable, "-c", CLI_ENTRY, *argv])
    if out.returncode != 0:
        raise RuntimeError(f"exit {out.returncode}: {out.stderr.strip()[-300:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def cli_main_json(sg, argv: list[str]) -> dict:
    """The payload ``cli.main`` prints for ``argv``, called in this process."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = sg.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}")
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


def cli_placeholders() -> dict:
    """The cli layer's process-level metrics, zero outside the cli workload."""
    import workloads
    out = {"cli.interp_ms": (0.0, "ms"), "cli.import_ms": (0.0, "ms")}
    for op in workloads.cli_calls(random.Random(0), cli_invoke_json):
        out[f"cli.{op.kind}.p50_ms"] = (0.0, "ms")
    return out


def cli_traced(sg, seed: int, calls, seconds: float):
    """The cli workload's traced run: one pass of ``calls``, each a process
    of its own; the bare interpreter and the import; then the same calls
    through ``cli.main`` in this process, untraced and traced."""
    import workloads
    (latencies,), _, results = run_passes(calls, 0, 1, clock=children_cpu, gauge=PROCESSES)
    per_kind: dict[str, list[float]] = {}
    for op, cpu in zip(calls, latencies):
        per_kind.setdefault(op.kind, []).append(cpu)
    imports, bare = setup_samples([sys.executable, "-c", "import scottgroups.cli"])
    interp, imported = statistics.median(bare), statistics.median(imports)
    in_proc = workloads.cli_calls(random.Random(seed), lambda argv: cli_main_json(sg, argv))
    metrics, digests, info = traced_passes(sg, in_proc, seconds / 2, f"cli-seed{seed}")
    metrics["cli.interp_ms"] = (interp * 1e3, "ms")
    metrics["cli.import_ms"] = ((imported - interp) * 1e3, "ms")
    for kind, values in per_kind.items():
        metrics[f"cli.{kind}.p50_ms"] = (statistics.median(values) * 1e3, "ms")
    processes = judge(calls, results)
    in_process = judge(in_proc, digests)
    attempted, failed, unexpected, notes = (a + b for a, b in zip(processes, in_process))
    metrics["failed_share"] = (failed / attempted, "ratio")
    return (metrics, attempted, failed, unexpected, notes,
            f"{len(calls)} processes; in-process: {info}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

WORKLOADS = ("decide", "sentences", "construct", "cli")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, attempted, failed, unexpected, notes, info = result
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload:10s} {name:48s} {value:14.6g} {unit}")
    print(f"{args.workload:10s} failed {failed} of {attempted} "
          f"(share {failed / attempted:.4f}), {unexpected} outside the known defects; {info}")
    for note in notes:
        print(f"{args.workload:10s} wrong: {note}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
