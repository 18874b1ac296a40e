"""One workload process: set up a qtower session and replay the pass.

    python3 worker.py <workload dir> --src <checkout>/src --probe
    python3 worker.py <workload dir> --src <checkout>/src --seconds S [--trace]
    python3 worker.py <workload dir> --src <checkout>/src --one-pass

The process is single-threaded and serves one client in a closed loop: the
next script line is sent only after the previous reply. `--probe` reports
once the session is ready (the span set-up time measures), then times the
calibration kernel on the same CPU and exits. Otherwise the
pass (cycles/*.qts in order) is replayed from the preloaded session until
the time is up; each replay of the pass starts from that session again.

Outputs go to outputs.jsonl as they are produced: each script line's first
output, and any later output that differs from it. Command start times and
latencies, the calibration kernel runs (calib.py) taken between commands,
peak memory and, with --trace, the per-layer metrics go to result.json.
"""

# Set-up time runs from interpreter start to a ready session, so the probe
# path imports nothing it does not need.
import os
import sys


def _session(src):
    sys.path.insert(0, src)
    import qtower
    import qtower.cli as cli

    if not os.path.realpath(qtower.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"qtower imported from {qtower.__file__}, not from {src}")
    return cli, cli.Session(tower=cli.load_tower("preload.qt"))


def main() -> int:
    args = sys.argv[1:]
    os.chdir(args[0])
    src = args[args.index("--src") + 1]
    cli, session = _session(src)
    if "--probe" in args:
        print("ready", flush=True)
        # Kernel times taken here, on the CPU that just did the set-up.
        import calib

        print(" ".join(str(calib.measure()[1]) for _ in range(5)), flush=True)
        return 0

    import hashlib
    import json
    import resource
    import time
    from pathlib import Path

    import calib

    lines = []
    for path in sorted(Path("cycles").glob("*.qts")):
        for raw in path.read_text(encoding="utf-8").splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append(line)

    digests = {}
    out = open("outputs.jsonl", "w", encoding="utf-8")

    def record(phase, k, output):
        i = k % len(lines)
        d = hashlib.sha256(output.encode("utf-8")).digest()
        if i not in digests:
            digests[i] = d
            out.write(json.dumps({"i": i, "out": output}) + "\n")
        elif digests[i] != d:
            out.write(json.dumps({"i": i, "phase": phase, "k": k, "out": output}) + "\n")

    calibration = []

    def replay(phase, seconds, tracer=None):
        """Run script lines from the start of the pass, running the
        calibration kernel between commands as calib.py asks."""
        starts, latencies = [], []
        current = session
        deadline = None if seconds is None else time.perf_counter() + seconds
        k = 0
        while True:
            i = k % len(lines)
            if i == 0:
                current = session
            if not calibration or time.perf_counter() - calibration[-1][0] >= calib.INTERVAL_S:
                calibration.append(calib.measure())
            if tracer is not None:
                tracer.command_id = k
            t0 = time.perf_counter()
            try:
                current, output = cli.execute(current, lines[i])
            except cli.CommandError as exc:
                output = str(exc)
            t1 = time.perf_counter()
            starts.append(t0)
            latencies.append(t1 - t0)
            if t1 - t0 > calib.LONG_S:
                calibration.append(calib.measure())
            record(phase, k, output)
            k += 1
            if k == len(lines) if deadline is None else t1 >= deadline:
                calibration.append(calib.measure())
                return {"start": starts, "latency": latencies}

    result = {"lines": len(lines), "phases": []}
    if "--one-pass" in args:
        result["phases"].append(replay(0, None))
    elif "--trace" in args:
        import tracing

        half = float(args[args.index("--seconds") + 1]) / 2
        result["phases"].append(replay(0, half))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result["phases"].append(replay(1, half, tracer))
        finally:
            tracer.uninstall()
        selfs = tracer.self_times()
        result["trace"] = tracer.metrics(selfs)
        result["trace_counts"] = dict(tracer.counts)
        tracer.write_spans("spans.tsv.gz", selfs)
    else:
        result["phases"].append(replay(0, float(args[args.index("--seconds") + 1])))
    out.close()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["calibration"] = calibration
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
