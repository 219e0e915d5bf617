"""Run one workload of the rldc benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` next to this
directory.  Every measurement runs in a fresh child process, one at a time,
with no pools: `--trace 0` starts set-up-only children, one measuring child
and one child that runs the pinned CLI command; `--trace 1` starts one
tracing child and the CLI child.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
# set-up-only children: at least 2, then more while they have taken under
# PROBE_S seconds, up to 8; setup_s is the median of theirs and the measuring child's
SETUP_PROBES = (2, 8)
PROBE_S = 4.0
BUDGET_S = 170  # all children of one run end within this

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# in the child process


def run_items(workload, seed, more, tracer=None, fingerprints=False, probe=None):
    """Run items 0, 1, ... while more(j, elapsed_s) holds.

    Returns per-item wall times of the program call (checks excluded), the
    same scaled to the reference speed if a SpeedProbe is given, per-item
    failure flags, and per-item output fingerprints if asked.  An item that
    raises has failed.
    """
    times, scaled, bad, prints = [], [], [], []
    start = time.perf_counter()
    j = 0
    while more(j, time.perf_counter() - start):

        def call():
            try:
                return workload.item(seed, j)
            except Exception:
                traceback.print_exc()
                return None

        if tracer is not None:
            tracer.item = j
        with tracer.span("bench.item") if tracer is not None else contextlib.nullcontext():
            if probe is None:
                began = time.perf_counter()
                out = call()
                times.append(time.perf_counter() - began)
            else:
                out, wall, at_ref = probe.time(call)
                times.append(wall)
                scaled.append(at_ref)
            bad.append(out is None or workload.failed(out))
            if fingerprints:
                prints.append(None if out is None else workload.fingerprint(out))
        j += 1
    return times, scaled, bad, prints


def role_setup(name, seed, seconds):
    workload = workloads.make(name)
    with speed.SpeedProbe() as probe:
        _, _, setup_s = probe.time(workload.setup)
    workload.close()
    return {"setup_s": setup_s}


def role_measure(name, seed, seconds, tamper=None):
    """Set up, then run items until `seconds` have passed and at least the
    workload's minimum is done.

    Timings are scaled to the reference speed (speed.py); the figures as
    measured are returned too, under `raw_`.
    """
    workload = workloads.make(name, tamper)

    def more(j, elapsed):
        return not (j >= workload.min_items and elapsed >= seconds)

    with speed.SpeedProbe() as probe:
        _, _, setup_s = probe.time(workload.setup)
        try:
            raw, times, bad, _ = run_items(workload, seed, more, probe=probe)
        finally:
            workload.close()
    return {
        "attempted": len(times),
        "failed": sum(bad),
        "setup_s": setup_s,
        "items_per_s": len(times) / sum(times),
        "item_ms_p50": statistics.median(times) * 1000,
        "item_ms_p90": statistics.quantiles(times, n=10)[8] * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw_items_per_s": len(raw) / sum(raw),
        "raw_item_ms_p50": statistics.median(raw) * 1000,
        "reference_ms": statistics.median(warm for _, _, warm in probe.samples) * 1000,
    }


def role_trace(name, seed, seconds, items=None):
    """Traced set-up and a fixed number of items, then the same untraced.

    The fixed count makes every counter repeat exactly for a given seed.  An
    item fails if it fails its check or if its traced and untraced outputs
    differ.
    """
    import rldc  # noqa: F401  (the tracer rebinds names in loaded rldc modules)

    count = items if items is not None else workloads.make(name).trace_items

    def fixed(j, elapsed):
        return j < count

    def one_pass(tracer=None):
        workload = workloads.make(name)
        start = time.perf_counter()
        with tracer.span("bench.setup") if tracer is not None else contextlib.nullcontext():
            workload.setup()
        try:
            _, _, bad, prints = run_items(workload, seed, fixed, tracer, fingerprints=True)
        finally:
            workload.close()
        return time.perf_counter() - start, bad, prints

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s, bad, traced_prints = one_pass(tracer)
    finally:
        tracer.restore()
    untraced_s, _, prints = one_pass()

    metrics = tracer.metrics(traced_s, untraced_s)
    if abs(metrics["trace.accounted_frac"] - 1) > 0.05:
        raise BenchError(
            f"layer self times cover {metrics['trace.accounted_frac']:.3f} of the traced wall time"
        )
    tracer.write(SPAN_DIR / f"spans-{name}-seed{seed}.jsonl")
    failed = sum(b or p != q for b, p, q in zip(bad, traced_prints, prints))
    return {"attempted": count, "failed": failed, "metrics": metrics}


def role_digest(name, seed, seconds):
    """sha256 and exit code of the workload's pinned CLI command."""
    from rldc import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(list(workloads.make(name).digest_argv))
        except SystemExit as stop:
            code = stop.code
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": code}


ROLES = {"setup": role_setup, "measure": role_measure, "trace": role_trace, "digest": role_digest}


# ---------------------------------------------------------------------------
# in the parent process


def child(role, name, seed, seconds, deadline):
    """Run one role in a fresh interpreter and return its JSON result."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", role,
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
    ]
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        cmd,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"{role} child for {name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    """All children of one run, combined into the result object."""
    deadline = time.monotonic() + BUDGET_S
    digest = child("digest", name, seed, seconds, deadline)
    digest_ok = digest["exit"] == 0 and digest["sha256"] == workloads.PINNED[name]
    if trace:
        main = child("trace", name, seed, seconds, deadline)
        units = {metric: unit for metric, unit, _ in tracing.PER_LAYER}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in main["metrics"].items()}
    else:
        setups = []
        began = time.monotonic()
        least, most = SETUP_PROBES
        while len(setups) < least or (len(setups) < most and time.monotonic() - began < PROBE_S):
            setups.append(child("setup", name, seed, seconds, deadline)["setup_s"])
        main = child("measure", name, seed, seconds, deadline)
        main["setup_s"] = statistics.median(setups + [main["setup_s"]])
        metrics = {k: {"value": main[k], "unit": unit} for k, unit in END_TO_END}

    attempted = main["attempted"]
    # a digest mismatch fails every item of the run
    failed = main["failed"] if digest_ok else attempted
    print(
        f"{name} seed={seed} items={attempted} failed_frac={failed / attempted} "
        f"digest={'ok' if digest_ok else 'MISMATCH ' + digest['sha256']} exit={digest['exit']}"
    )
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']} {metric['unit']}")
    if not trace:
        print(
            f"  as measured: items_per_s {main['raw_items_per_s']} "
            f"item_ms_p50 {main['raw_item_ms_p50']}; reference() {main['reference_ms']} ms"
        )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=tuple(ROLES), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        result = ROLES[args.child](args.workload, args.seed, args.seconds)
        print(json.dumps(result))
        return 0
    if not (SRC / "rldc" / "__init__.py").is_file():
        print(f"perfbench: no rldc sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
