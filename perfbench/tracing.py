"""Tracing for the rldc benchmark, from outside the library.

`Tracer.install` rebinds each function in TARGETS wherever an rldc module
refers to it: in the module that defines it, in every module that imported
it by name, and on the class for a method.  Calls made inside the library
are therefore seen at their call sites without editing it, and `restore`
puts every original back.

Spans are kept in memory as (name, start, end, parent, item) and written out
at the end.  A span's layer is the part of its name before the first dot:
one of LAYERS, or `bench` for the benchmark's own code.  A layer's self time
is its spans' durations minus the time their child spans cover.  The run is
one process with no threads, so nothing waits on a queue and every layer's
wait time is zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = (
    "rng",
    "exact",
    "set_system",
    "daisy",
    "decoders",
    "preprocessing",
    "global_decoder",
    "harness",
    "bench",
)


def _count_sample(counts, coords) -> None:
    counts["global_decoder.sampled_coords"] += len(coords)


def _count_decode(counts, outcome) -> None:
    counts["global_decoder.assignments_tried"] += outcome.assignments_tried
    counts["global_decoder.petals_queried"] += outcome.fully_queried
    counts["global_decoder.decoded"] += outcome.status == "decoded"


def _count_reduce(counts, result) -> None:
    report = result[1]
    counts["preprocessing.reduce_attempts"] += report.attempts
    counts["preprocessing.reduce_passed"] += report.passed


# (module, attribute or Class.method, span name, counter of the return value)
TARGETS = (
    ("rldc.rng", "derive_rng", "rng.derive", None),
    ("rldc.exact", "floor_power_bound", "exact.floor", None),
    ("rldc.exact", "PowerBound.cmp", "exact.cmp", None),
    ("rldc.set_system", "petal_degrees", "set_system.petal_degrees", None),
    ("rldc.set_system", "WeightedSetSystem.from_weights", "set_system.from_weights", None),
    ("rldc.daisy", "build_daisy_sequence", "daisy.levels", None),
    ("rldc.daisy", "pick_heavy_level", "daisy.heavy", None),
    ("rldc.decoders", "parse_code_spec", "decoders.build", None),
    ("rldc.decoders", "Code.encode", "decoders.encode", None),
    ("rldc.decoders", "UnanimityView.materialize", "decoders.materialize", None),
    ("rldc.preprocessing", "preprocess_pipeline", "preprocessing.pipeline", None),
    ("rldc.preprocessing", "flatten_adaptive", "preprocessing.flatten", None),
    ("rldc.preprocessing", "amplify", "preprocessing.amplify", None),
    ("rldc.preprocessing", "reduce_randomness", "preprocessing.reduce", _count_reduce),
    ("rldc.global_decoder", "build_decode_packages", "global_decoder.packages", None),
    ("rldc.global_decoder", "sample_coordinates", "global_decoder.sample", _count_sample),
    ("rldc.global_decoder", "fully_queried_petals", "global_decoder.filter", None),
    ("rldc.global_decoder", "decode_index", "global_decoder.decode", _count_decode),
    ("rldc.harness", "run_daisy_claim_suite", "harness.run", None),
    ("rldc.harness", "run_global_trials", "harness.run", None),
    ("rldc.harness", "random_set_system", "harness.generate", None),
    ("rldc.harness", "random_masses", "harness.generate", None),
    ("rldc.harness", "make_in_radius_corpus", "harness.generate", None),
    ("rldc.harness", "audit_daisy_levels", "harness.audit", None),
    ("rldc.harness", "_audit_index", "harness.audit", None),
)

SECONDS = ("s", "lower")
COUNT = ("count", "lower")
SHARE = ("ratio", "higher")

# Every per-layer metric a traced run prints, in order, with unit and direction.
PER_LAYER = (
    ("harness.generate_s", *SECONDS),
    ("harness.audit_s", *SECONDS),
    ("harness.audit_calls", *COUNT),
    ("daisy.levels_s", *SECONDS),
    ("daisy.levels_calls", *COUNT),
    ("daisy.heavy_s", *SECONDS),
    ("exact.floor_s", *SECONDS),
    ("exact.floor_calls", *COUNT),
    ("exact.cmp_s", *SECONDS),
    ("exact.cmp_calls", *COUNT),
    ("set_system.petal_degrees_s", *SECONDS),
    ("set_system.from_weights_s", *SECONDS),
    ("global_decoder.decode_s", *SECONDS),
    ("global_decoder.decode_calls", *COUNT),
    ("global_decoder.assignments_tried", *COUNT),
    ("global_decoder.decoded_frac", *SHARE),
    ("global_decoder.filter_s", *SECONDS),
    ("global_decoder.petals_queried", *COUNT),
    ("global_decoder.sample_s", *SECONDS),
    ("global_decoder.sampled_coords", *COUNT),
    ("global_decoder.packages_s", *SECONDS),
    ("decoders.build_s", *SECONDS),
    ("decoders.encode_s", *SECONDS),
    ("decoders.encode_calls", *COUNT),
    ("decoders.materialize_s", *SECONDS),
    ("decoders.materialize_calls", *COUNT),
    ("preprocessing.flatten_s", *SECONDS),
    ("preprocessing.amplify_s", *SECONDS),
    ("preprocessing.reduce_s", *SECONDS),
    ("preprocessing.reduce_attempts", *COUNT),
    ("preprocessing.reduce_pass_frac", *SHARE),
    ("rng.derive_s", *SECONDS),
    ("rng.derive_calls", *COUNT),
    *((f"{layer}.self_s", *SECONDS) for layer in LAYERS),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.accounted_frac", "ratio", "higher"),
)


class Tracer:
    """Spans and counters at the layer boundaries named in TARGETS."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []  # (owner, attribute, original)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.item])
        self._stack.append(idx)
        self.counts[name + "_calls"] += 1
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Rebind every target; rldc and its modules must be imported."""
        modules = [m for name, m in sys.modules.items() if name == "rldc" or name.startswith("rldc.")]
        missing = []
        for module_name, qualname, span_name, count in TARGETS:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                missing.append(f"{module_name}.{qualname}")
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._rebind(owner, attr, classmethod(self._wrap(raw.__func__, span_name, count)))
            elif path:
                self._rebind(owner, attr, self._wrap(raw, span_name, count))
            else:
                wrapped = self._wrap(raw, span_name, count)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._rebind(module, key, wrapped)
        for name in missing:
            print(f"perfbench: {name} not found; its metrics read 0", file=sys.stderr)

    def restore(self) -> None:
        """Put back every original, then check that each is in place."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def self_times(self) -> Counter:
        """Self time per layer: span durations minus their children's."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        out: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - children[idx]
        return out

    def metrics(self, wall_s: float, untraced_s: float) -> dict[str, float]:
        """Every PER_LAYER metric; a layer the workload never calls reads 0."""
        values: dict[str, float] = dict(self.counts)
        for name, start, end, _, _ in self.spans:
            values[name + "_s"] = values.get(name + "_s", 0.0) + end - start
        self_times = self.self_times()
        for layer, seconds in self_times.items():
            values[layer + ".self_s"] = seconds
        c = self.counts
        values["global_decoder.decoded_frac"] = _share(
            c["global_decoder.decoded"], c["global_decoder.decode_calls"]
        )
        values["preprocessing.reduce_pass_frac"] = _share(
            c["preprocessing.reduce_passed"], c["preprocessing.reduce_attempts"]
        )
        values["trace.overhead_frac"] = wall_s / untraced_s - 1
        values["trace.accounted_frac"] = sum(self_times.values()) / wall_s
        return {name: values.get(name, 0) for name, _, _ in PER_LAYER}

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "item": item}
                ) + "\n")


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
