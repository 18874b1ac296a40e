"""The qtower session benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload deep-nested --seed 1 --seconds 40 --trace 0

Run it from the root of a qtower checkout; it imports qtower from ./src and
writes only under ./.perfbench. It generates the workload from the seed,
times fresh interpreters reaching a ready session, replays the workload's
script in a fresh single-threaded worker process for --seconds, checks
every output, and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (END_TO_END), with times
in reference seconds (calib.py). With --trace 1 the worker spends half the
time untraced and half traced, and the metrics are the per-layer ones
(tracing.PER_LAYER), including the tracing overhead. `--workload all` runs
every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import gen
import tracing
from check import Checker, digest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
GOLDEN_HEX = 8  # hex digits of an output's SHA-256 kept in golden/
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
WORKER_GRACE_S = 120

# (name, unit, better) of the end-to-end metrics a --trace 0 run reports.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cmds_per_s", "1/s", "higher"),
    ("cmd_p50_ms", "ms", "lower"),
    ("cmd_tail_ms", "ms", "lower"),
    ("pass_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_command(workdir: Path, src: Path, *extra) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), str(workdir), "--src", str(src), *extra]


def prepare(name: str, seed: int, root: Path) -> tuple[gen.Workload, Path]:
    workload = gen.generate(name, seed)
    workdir = root / ".perfbench" / name / f"seed-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload.write(workdir)
    return workload, workdir


def setup_times(workdir: Path, src: Path) -> list[tuple[float, float]]:
    """(wall, reference) seconds from spawning a fresh interpreter to its
    ready session, once per probe. The probe runs the calibration kernel
    after it reports ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(worker_command(workdir, src, "--probe"), stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            t1 = time.perf_counter()
            if line.strip() != "ready":
                raise BenchError("setup probe did not reach a ready session")
            # The rest of its output is one short line, so it cannot block on
            # the pipe; read it through the same buffer as the first line.
            proc.wait(timeout=PROBE_TIMEOUT_S)
            kernel_times = proc.stdout.read().split()
        except subprocess.TimeoutExpired:
            raise BenchError("setup probe did not exit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not kernel_times:
            raise BenchError(f"setup probe failed (exit status {proc.returncode})")
        kernel = statistics.median(float(t) for t in kernel_times)
        times.append((t1 - t0, (t1 - t0) * calib.REFERENCE_S / kernel))
    return times


def run_worker(workdir: Path, src: Path, extra: list[str], timeout: float) -> dict:
    try:
        proc = subprocess.run(
            worker_command(workdir, src, *extra), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit status {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def load_golden(name: str, seed: int):
    """The recorded digest of each line's output for this seed, or None."""
    path = GOLDEN / f"{name}.json"
    if not path.is_file():
        return None
    joined = json.loads(path.read_text(encoding="utf-8")).get(str(seed))
    if joined is None:
        return None
    return [joined[j:j + GOLDEN_HEX] for j in range(0, len(joined), GOLDEN_HEX)]


def read_outputs(workdir: Path):
    """First output per script line, and later outputs that differ."""
    first, later = {}, {}
    with open(workdir / "outputs.jsonl", encoding="utf-8") as fh:
        for raw in fh:
            rec = json.loads(raw)
            if "k" in rec:
                later[rec["phase"], rec["k"]] = rec["out"]
            else:
                first[rec["i"]] = rec["out"]
    return first, later


def check_run(workload, workdir: Path, result: dict, golden):
    """Check every executed command. Returns attempted, failed and the
    first few failure reasons."""
    commands = workload.commands()
    first, later = read_outputs(workdir)
    checker = Checker()
    verdicts = {}
    attempted = failed = 0
    reasons = []
    for phase, timings in enumerate(result["phases"]):
        for k in range(len(timings["latency"])):
            i = k % len(commands)
            output = later.get((phase, k), first[i])
            key = (i, digest(output))
            if key not in verdicts:
                reason = checker.check(commands[i].spec, output)
                if reason is None and golden is not None and golden[i:i + 1] != [key[1][:GOLDEN_HEX]]:
                    reason = "differs from the recorded transcript for this seed"
                verdicts[key] = reason
            attempted += 1
            if verdicts[key] is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"line {i} `{commands[i].line[:60]}`: {verdicts[key]}")
    with open(workdir / "transcript.txt", "w", encoding="utf-8") as fh:
        for i in sorted(first):
            fh.write(f"> {commands[i].line}\n" + (first[i] + "\n" if first[i] else ""))
    return attempted, failed, reasons


def tail(latencies):
    """The latency with ten commands beyond it, its percentile and the count."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def reference_latencies(result, phase):
    """A phase's command latencies in reference seconds (calib.py)."""
    cal = calib.Calibration(result["calibration"])
    timings = result["phases"][phase]
    return [lat * cal.scale(t0, t0 + lat) for t0, lat in zip(timings["start"], timings["latency"])]


def end_to_end(result, setup, attempted, failed):
    latencies = reference_latencies(result, 0)
    wall = result["phases"][0]["latency"]
    value, pct, n = tail(latencies)
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "cmds_per_s": len(latencies) / sum(latencies),
        "cmd_p50_ms": statistics.median(latencies) * 1e3,
        "cmd_tail_ms": value * 1e3,
        "pass_ratio": 1 - failed / attempted,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; wall {statistics.median(w for w, _ in setup):.4f} s",
        "cmds_per_s": f"wall {len(wall) / sum(wall):.4g} 1/s",
        "cmd_p50_ms": f"wall {statistics.median(wall) * 1e3:.4g} ms",
        "cmd_tail_ms": f"p{pct:.2f} of {n} commands; wall {tail(wall)[0] * 1e3:.4g} ms",
        "pass_ratio": f"fail_ratio {failed / attempted:.4f}",
    }
    return metrics, notes


def per_layer(result):
    untraced, traced = reference_latencies(result, 0), reference_latencies(result, 1)
    n = min(len(untraced), len(traced))
    metrics = dict(result["trace"])
    # Compare the same leading commands of the pass, traced and untraced.
    metrics["trace.commands"] = len(traced)
    metrics["trace.untraced_cmds_per_s"] = n / sum(untraced[:n])
    metrics["trace.traced_cmds_per_s"] = n / sum(traced[:n])
    metrics["trace.overhead_ratio"] = sum(traced[:n]) / sum(untraced[:n])
    return metrics, {"trace.overhead_ratio": f"traced over untraced time of the first {n} commands"}


def run_one(name: str, seed: int, seconds: float, traced: bool, root: Path) -> dict:
    src = root / "src"
    workload, workdir = prepare(name, seed, root)
    setup = [] if traced else setup_times(workdir, src)
    extra = ["--seconds", str(seconds)] + (["--trace"] if traced else [])
    result = run_worker(workdir, src, extra, seconds + WORKER_GRACE_S)
    attempted, failed, reasons = check_run(workload, workdir, result, load_golden(name, seed))
    if traced:
        metrics, notes = per_layer(result)
        units = {m: u for m, u, _ in tracing.PER_LAYER}
    else:
        metrics, notes = end_to_end(result, setup, attempted, failed)
        units = {m: u for m, u, _ in END_TO_END}
    print(f"{name} seed {seed}: {attempted} commands checked, {failed} failed")
    for reason in reasons:
        print(f"  FAIL {reason}")
    shown = metrics if not traced else {m: metrics[m] for m in metrics if not m.startswith("tower.") or metrics[m]}
    for m, v in shown.items():
        note = f"  ({notes[m]})" if m in notes else ""
        print(f"  {m:32s} {v:14.6g} {units[m]}{note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qtower" / "cli.py").is_file():
        print("run from the root of a qtower checkout: src/qtower/cli.py is missing", file=sys.stderr)
        return 2
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_one(n, args.seed, args.seconds, bool(args.trace), root) for n in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
