"""Tests of the benchmark itself: generator, checker, tracer, contract.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

import io
import json
from pathlib import Path

import pytest

import calib
import gen
import run
import tracing
from check import Checker
from qtower import cli
from qtower.tower import load_tower

ROOT = Path(__file__).resolve().parents[2]


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_generator_is_deterministic(tmp_path, name):
    gen.generate(name, 7, cycles=3).write(tmp_path / "a")
    gen.generate(name, 7, cycles=3).write(tmp_path / "b")
    gen.generate(name, 8, cycles=3).write(tmp_path / "c")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def _replay(workload, workdir, monkeypatch):
    """Run every command in process, as the worker does."""
    monkeypatch.chdir(workdir)
    session = cli.Session(tower=load_tower("preload.qt"))
    outputs = []
    for cmd in workload.commands():
        try:
            session, out = cli.execute(session, cmd.line)
        except cli.CommandError as exc:
            out = str(exc)
        outputs.append(out)
    return outputs


def _corrupt(text: str) -> str:
    """Change the first nonzero digit, or append a mark if there is none."""
    for pos, ch in enumerate(text):
        if ch in "123456789":
            return text[:pos] + "123456789"[int(ch) % 9] + text[pos + 1:]
    return text + "!"


@pytest.mark.parametrize("name, cycles", [("multiquad-files", 2), ("cubic-verdicts", 3)])
def test_checker_accepts_outputs_and_flags_each_corrupted_line(tmp_path, monkeypatch, name, cycles):
    workload = gen.generate(name, 3, cycles=cycles)
    workload.write(tmp_path)
    outputs = _replay(workload, tmp_path, monkeypatch)
    checker = Checker()
    for cmd, out in zip(workload.commands(), outputs):
        assert checker.check(cmd.spec, out) is None, cmd.line
        assert checker.check(cmd.spec, _corrupt(out)) is not None, cmd.line


def test_checker_flags_wrong_deep_nested_element(tmp_path, monkeypatch):
    workload = gen.generate("deep-nested", 3, cycles=1)
    workload.cycles[0] = workload.cycles[0][:1]
    workload.write(tmp_path)
    (out,) = _replay(workload, tmp_path, monkeypatch)
    spec = workload.commands()[0].spec
    assert Checker().check(spec, out) is None
    assert Checker().check(spec, _corrupt(out)) is not None


def test_cycles_replay_by_hand_with_qtower_run(tmp_path, monkeypatch):
    workload = gen.generate("multiquad-files", 5, cycles=4)
    workload.write(tmp_path)
    outputs = _replay(workload, tmp_path, monkeypatch)
    # Cycle 0 ends with a rejected adjoin, which stops `qtower run`; cycle 3
    # ends with an accepted one.
    for c, status in ((0, 1), (3, 0)):
        start = sum(len(cycle) for cycle in workload.cycles[:c])
        cycle_outputs = outputs[start:start + len(workload.cycles[c])]
        expected = "".join(f"> {cmd.line}\n{out}\n" for cmd, out in zip(workload.cycles[c], cycle_outputs))
        buf = io.StringIO()
        assert cli.run_batch(f"cycles/{c:03d}.qts", tower_path="preload.qt", out=buf) == status
        assert buf.getvalue() == expected


def test_self_time_on_hand_built_span_tree():
    # 0 [0, 100]
    # |- 1 [10, 40]        children 3 [15, 25] and 4 [20, 35] overlap
    # |- 2 [50, 60]
    # 5 [200, 210]         a second root
    parent = [-1, 0, 0, 1, 1, -1]
    start = [0, 10, 50, 15, 20, 200]
    end = [100, 40, 60, 25, 35, 210]
    assert tracing.self_times(parent, start, end) == [100 - 30 - 10, 30 - 20, 10, 10, 15, 10]


def test_calibration_uses_kernel_runs_near_the_interval():
    cal = calib.Calibration([(0.0, 0.004), (1.0, 0.001), (1.1, 0.003), (5.0, 0.010)])
    assert cal.scale(1.0, 1.05) == pytest.approx(calib.REFERENCE_S / 0.002)
    with pytest.raises(ValueError):
        cal.scale(3.0, 3.1)


def test_tracer_counts_layers_and_restores_functions(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    originals = (cli.execute, cli.parse_expr, cli._checked, cli.load_tower)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        session = cli.Session()
        for line in ("adjoin 2", "adjoin 3", "eval g1*g2", "save t.qt", "load t.qt", "verdict [-2, 0, 0, 1]"):
            session, _ = cli.execute(session, line)
    finally:
        tracer.uninstall()
    assert (cli.execute, cli.parse_expr, cli._checked, cli.load_tower) == originals
    m = tracer.metrics(tracer.self_times())
    assert m["tower.mul.L2.calls"] == 1
    assert m["poly.verdict.calls"] == 1
    # divisors(|A0|) once, divisors(|A3|) once per divisor of |A0|
    assert m["exactnum.divisors.calls"] == 3
    assert m["poly.candidates"] == 4
    assert m["io.bytes_written"] == m["io.bytes_read"] > 0
    # adjoin, adjoin, load: each proven valid, then validated again by _checked
    assert m["validation.calls"] == 6
    assert m["validation.redundant_ratio"] == pytest.approx(3 / 4)
    assert sum(m[f"share.{layer}"] for layer in tracing.LAYERS) == pytest.approx(1)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
