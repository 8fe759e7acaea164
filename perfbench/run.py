"""Benchmark for the trisys command line, driven in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload report-sparse --seed 1 --seconds 30 --trace 0

One closed-loop client in one process: each op is one call of
`trisys.cli.run_command` with output captured in a buffer, and the next op
starts when the previous one returns.  The seeded corpus is written under
`perfbench/_work/`; the program only sees those files.  With `--trace 0` the
run times whole cycles of the corpus for about `--seconds` and reports the
end-to-end metrics; with `--trace 1` it runs one cycle untraced and then
once traced and reports per-layer metrics.  The last line of
standard output is the result object; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, TracerError

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
GOLDEN_FILE = BENCH_DIR / "golden.json"
DEFAULT_SEED = 1
# Set-up is timed this many times before the timed phase and again after it,
# so that its median samples two moments of a machine whose speed drifts.
SETUP_REPEATS = 10


class SetupError(RuntimeError):
    pass


# --- set-up -------------------------------------------------------------------------


def import_cli():
    """Fresh import of trisys from this checkout's `src/`; returns trisys.cli."""
    for name in [n for n in sys.modules if n == "trisys" or n.startswith("trisys.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        trisys = importlib.import_module("trisys")
        cli = importlib.import_module("trisys.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import trisys from {src}: {exc}") from None
    if Path(trisys.__file__).resolve().parent.parent != src.resolve():
        raise SetupError(f"imported trisys from {trisys.__file__}, not from {src}")
    return cli


def set_up(workload: workloads.Workload, seed: int, workdir: Path):
    """Import trisys, generate the corpus and write its files."""
    cli = import_cli()
    ops = workloads.build_ops(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for file, system in {op.file: op.system for op in ops}.items():
        (workdir / file).write_text(system.text(), encoding="utf-8")
    return cli, ops


def timed_set_up(workload, seed: int, workdir: Path):
    """SETUP_REPEATS set-ups into a fresh work directory; returns the last and all times."""
    shutil.rmtree(workdir, ignore_errors=True)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli, ops = set_up(workload, seed, workdir)
        times.append(time.perf_counter() - start)
    return cli, ops, times


# --- ops ------------------------------------------------------------------------------


class Runner:
    """Runs ops against the CLI and checks each output."""

    def __init__(self, cli, workdir: Path, golden: dict[str, str] | None):
        self.cli = cli
        self.workdir = workdir
        self.prefix = str(workdir) + os.sep
        self.golden = golden
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def run(self, op) -> tuple[float, str]:
        """Time one op; returns (seconds, output).  Checks happen after the clock stops."""
        out, err = io.StringIO(), io.StringIO()
        argv = [*op.argv, str(self.workdir / op.file)]
        start = time.perf_counter()
        try:
            code = self.cli.run_command(argv, out, err)
        except Exception as exc:  # an unexpected exception fails the op, not the run
            elapsed = time.perf_counter() - start
            self.failures.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
            return elapsed, ""
        elapsed = time.perf_counter() - start
        self._verify(op, code, out.getvalue(), err.getvalue())
        return elapsed, out.getvalue()

    def _verify(self, op, code: int, out: str, err: str) -> None:
        if code != op.expect_code:
            self.failures.append(f"{op.key}: exit {code}, expected {op.expect_code}; {err.strip()[:200]}")
            return
        text = out.replace(self.prefix, "")
        problem = op.check(op.system, text)
        if problem:
            self.failures.append(f"{op.key}: {problem}")
            return
        digest = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:16]
        self.digests[op.key] = digest
        if self.golden is not None and self.golden.get(op.key) != digest:
            self.failures.append(f"{op.key}: output digest {digest} differs from golden {self.golden.get(op.key)}")


def warm_up(runner: Runner, ops) -> None:
    """One untimed op on the smallest system, so lazy set-up is not timed."""
    runner.run(min(ops, key=lambda o: (o.system.dim, o.key)))


def timed_phase(runner: Runner, ops, seconds: float) -> list[list[float]]:
    """Whole cycles, stopping at the cycle end nearest to `seconds` (at least one).

    Returns the latencies of each op, one per cycle.
    """
    latencies: list[list[float]] = [[] for _ in ops]
    start = time.perf_counter()
    cycles = 0
    while True:
        for times, op in zip(latencies, ops):
            times.append(runner.run(op)[0])
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles / 2 > seconds:
            return latencies


def traced_pass(runner: Runner, ops, tracer: Tracer) -> float:
    """The op list once with the tracer installed; returns the summed op time."""
    tracer.install()
    try:
        total = 0.0
        for n, op in enumerate(ops):
            tracer.op_id = n
            elapsed, out = runner.run(op)
            total += elapsed
            tracer.counts["cli.output_bytes"] += len(out.encode("utf-8"))
    finally:
        tracer.uninstall()
    return total


# --- run record ---------------------------------------------------------------------


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record(seed: int) -> dict:
    return {
        "commit": commit_id(),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def load_golden(name: str, seed: int) -> dict[str, str] | None:
    if not GOLDEN_FILE.exists():
        return None
    doc = json.loads(GOLDEN_FILE.read_text())
    return doc["workloads"].get(name) if doc["seed"] == seed else None


# --- one workload ---------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = workloads.WORKLOADS[name]
    workdir = WORK_DIR / f"{name}-s{seed}"
    cli, ops, setup_times = timed_set_up(workload, seed, workdir)
    runner = Runner(cli, workdir, load_golden(name, seed))
    warm_up(runner, ops)
    runner.failures.clear()
    record = {**machine_record(seed), "workload": name, "trace": int(trace)}
    if trace:
        tracer = Tracer()
        untraced = sum(runner.run(op)[0] for op in ops)
        traced = traced_pass(runner, ops, tracer)
        metrics = tracer.metrics()
        metrics["tracing.untraced_ops_per_s"] = (len(ops) / untraced, "1/s")
        metrics["tracing.traced_ops_per_s"] = (len(ops) / traced, "1/s")
        metrics["tracing.slowdown"] = (traced / untraced, "ratio")
        attempted = 2 * len(ops)
        trace_file = WORK_DIR / f"trace-{name}-s{seed}.json"
        trace_file.write_text(json.dumps({"record": record, "spans": tracer.spans}))
        record.update(ops=len(ops), unreached=tracer.unreached(), trace_file=str(trace_file.relative_to(ROOT)))
    else:
        latencies = timed_phase(runner, ops, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times += timed_set_up(workload, seed, workdir)[2]
        cycles = len(latencies[0])
        attempted = cycles * len(ops)
        # An op's latency is its mean over the cycles: the machine's speed
        # swings within seconds, and a mean moves smoothly with the share of
        # slow time where a quantile of raw times jumps between modes.
        per_op = [statistics.fmean(times) for times in latencies]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (attempted / sum(map(sum, latencies)), "1/s"),
            "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(per_op, n=10)[8] * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record.update(ops=attempted, op_samples=len(per_op), cycles=cycles)
    failed = len(runner.failures)
    record.update(fail_ratio=failed / attempted, failures=runner.failures[:10])
    shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def write_golden(names: list[str], seed: int) -> None:
    """Record output digests of every op of the named workloads for one seed."""
    doc = {"seed": seed, "workloads": {}}
    for name in names:
        workload = workloads.WORKLOADS[name]
        workdir = WORK_DIR / f"{name}-s{seed}"
        cli, ops = set_up(workload, seed, workdir)
        runner = Runner(cli, workdir, None)
        for op in ops:
            runner.run(op)
        if runner.failures:
            raise SystemExit("refusing to record golden digests:\n" + "\n".join(runner.failures))
        doc["workloads"][name] = runner.digests
        shutil.rmtree(workdir, ignore_errors=True)
    GOLDEN_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name, repeatable or comma-separated: " + ", ".join(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record output digests for --seed into golden.json instead of measuring")
    args = parser.parse_args(argv)
    names = [n for arg in args.workload for n in arg.split(",") if n]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}")
    try:
        if args.write_golden:
            write_golden(names, args.seed)
            return 0
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (SetupError, TracerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record, result in results:
        for key, m in result["metrics"].items():
            print(f"{record['workload']}  {key} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
        if record.get("unreached"):
            print(f"{record['workload']}  spans never reached: {', '.join(record['unreached'])}", file=sys.stderr)
        print(json.dumps({"record": record}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
