"""Record the transcripts that later runs of the benchmark must reproduce.

    python3 perfbench/golden.py --seeds 0-10 [--workload NAME]

Run from the root of a qtower checkout. For each workload and seed it
replays one full pass untimed and checks every output. It stores an
8-digit SHA-256 prefix of each output line, joined into one string per
seed, in perfbench/golden/<workload>.json. A run of run.py on a recorded
seed then also requires its outputs to match these byte for byte. A pass
with a failed check is not recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import gen
from check import digest
from run import GOLDEN, GOLDEN_HEX, BenchError, check_run, prepare, read_outputs, run_worker

PASS_TIMEOUT_S = 900


def record(name: str, seed: int, root: Path) -> str:
    workload, workdir = prepare(name, seed, root)
    result = run_worker(workdir, root / "src", ["--one-pass"], PASS_TIMEOUT_S)
    attempted, failed, reasons = check_run(workload, workdir, result, None)
    if failed:
        raise BenchError(f"{name} seed {seed}: {failed} of {attempted} outputs failed: {reasons}")
    first, _ = read_outputs(workdir)
    return "".join(digest(first[i])[:GOLDEN_HEX] for i in range(len(workload.commands())))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-10")
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    root = Path.cwd()
    GOLDEN.mkdir(exist_ok=True)
    for name in (args.workload,) if args.workload else gen.WORKLOADS:
        path = GOLDEN / f"{name}.json"
        recorded = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        for seed in seeds:
            try:
                recorded[str(seed)] = record(name, seed, root)
            except BenchError as exc:
                print(f"not recorded: {exc}", file=sys.stderr)
                return 1
            print(f"{name} seed {seed}: {len(recorded[str(seed)]) // GOLDEN_HEX} outputs recorded")
            path.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
