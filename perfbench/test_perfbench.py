"""Self-tests of the benchmark: failure accounting, digest gate, tracing.

    python3 -m pytest perfbench
"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import run
import speed
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


def _inflate_kernels(system, levels):
    # every level claims the whole universe as kernel: a coresub violation
    everything = frozenset(range(system.universe_size))
    return tuple(replace(level, kernel=everything) for level in levels)


def test_tampered_levels_count_as_failed_items():
    result = run.role_measure("daisy-claims", seed=1, seconds=0, tamper=_inflate_kernels)
    assert result["attempted"] == 2
    assert result["failed"] / result["attempted"] > 0


def test_digest_mismatch_fails_every_item(monkeypatch):
    monkeypatch.setitem(workloads.PINNED, "daisy-claims", "0" * 64)
    result = run.run_workload("daisy-claims", seed=1, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def _bindings():
    """Every attribute of every loaded rldc module and class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "rldc" or name.startswith("rldc."):
            for key, value in vars(module).items():
                seen[(name, key)] = id(value)
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        seen[(name, key, attr)] = id(member)
    return seen


def test_traced_run_accounts_for_wall_time_and_restores():
    import rldc  # noqa: F401

    before = _bindings()
    result = run.role_trace("daisy-claims", seed=1, seconds=0, items=2)
    assert _bindings() == before
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    assert abs(metrics["trace.accounted_frac"] - 1) <= 0.05
    assert metrics["daisy.levels_calls"] == 18
    assert metrics["harness.generate_s"] > 0


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "daisy-claims",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_speed_probe_scales_and_removes_its_own_time():
    def busy():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass

    with speed.SpeedProbe() as probe:
        _, wall, scaled = probe.time(busy)
    window = probe.samples
    assert len(window) >= 4  # the two around the call and the timer's
    assert abs(wall + sum(taken for _, taken, _ in window[1:-1]) - 0.2) < 0.02
    assert scaled == wall * speed.REF_S / statistics.median(warm for _, _, warm in window)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
