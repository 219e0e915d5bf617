"""The workloads of the rldc benchmark.

Each workload is a closed loop: one process runs one item after another.  A
workload object has a set-up (`setup`), one item (`item`), a check of an
item's output (`failed`), a canonical form of that output (`fingerprint`)
and `close`.  It also names the `rldc` CLI command whose output for
DEFAULT_SEED is pinned by sha256 digest.

`setup` imports rldc, so import time counts as set-up.  Every call into rldc
goes through a module attribute looked up at call time, so that the tracer's
rebinding (tracing.py) sees the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

DEFAULT_SEED = 0  # seed of the pinned CLI outputs (the CLI's default)


def item_seed(seed: int, workload: str, j: int) -> int:
    """The 64-bit master seed of item j of a run, made from the run's seed."""
    digest = hashlib.sha256(f"{workload}\x1f{seed}\x1f{j}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class DaisyClaims:
    """`run_daisy_claim_suite` over DEFAULT_POINTS (n in {64, 256, 1024} x
    l in {2, 3, 4}), one random system per point: an item is one pass over
    the nine points.  Per-system times differ by 20x between points, so a
    percentile over single systems would depend on where it falls between
    them; a pass has one cost distribution."""

    name = "daisy-claims"
    min_items = 2
    trace_items = 40
    digest_argv = (
        "verify", "--seed", str(DEFAULT_SEED), "--instances", "20",
        "--claims", "coresub", "partition", "external", "--format", "json",
    )

    def __init__(self, tamper=None):
        self.tamper = tamper  # fault-injection hook, passed on to the suite

    def setup(self) -> None:
        from rldc import harness

        self.harness = harness

    def item(self, seed: int, j: int):
        return self.harness.run_daisy_claim_suite(
            self.harness.DEFAULT_POINTS, 1, item_seed(seed, self.name, j), self.tamper
        )

    def failed(self, reports) -> bool:
        return any(report.violations for report in reports.values())

    def fingerprint(self, reports) -> str:
        return json.dumps({c: r.to_json() for c, r in reports.items()}, sort_keys=True)

    def close(self) -> None:
        pass


class GlobalTrials:
    """`run_global_trials` on one built-in code, one trial per item."""

    min_items = 100  # so that at least ten trials lie beyond p90

    def __init__(self, name, spec, strict, audit, trace_items, digest_argv):
        self.name = name
        self.spec = spec
        self.strict = strict
        self.audit = audit
        self.trace_items = trace_items
        self.digest_argv = digest_argv
        self._restore = None

    def setup(self) -> None:
        from rldc import decoders, global_decoder, harness

        self.harness = harness
        self.code, self.decoder = decoders.parse_code_spec(self.spec)
        packages = global_decoder.build_decode_packages(self.decoder)

        # run_global_trials extracts the daisy packages on every call, and an
        # item is one call.  Extraction is deterministic per decoder (see
        # run_global_decoder), so the packages built here are handed back
        # instead: extraction counts once, as set-up.  The pinned CLI output
        # is made without this.
        extract = harness.build_decode_packages

        def prebuilt(decoder, scale=None):
            if decoder is self.decoder and scale is None:
                return packages
            return extract(decoder, scale)

        self._restore = (harness, "build_decode_packages", extract)
        harness.build_decode_packages = prebuilt

    def item(self, seed: int, j: int):
        return self.harness.run_global_trials(
            self.code,
            self.decoder,
            1,
            item_seed(seed, self.name, j),
            strict=self.strict,
            audit=self.audit,
        )

    def failed(self, stats) -> bool:
        # wrong bits are checked against the true message x; completeness and
        # unanimous-wrong assignments by the exact audit, when it is on
        return bool(stats.wrong_bits or stats.completeness_violations or stats.soundness_violations)

    def fingerprint(self, stats) -> str:
        return repr(
            (stats.rows, stats.wrong_bits, stats.completeness_violations, stats.soundness_violations)
        )

    def close(self) -> None:
        if self._restore is not None:
            setattr(*self._restore)
            self._restore = None


def hadamard_xor_trees(m: int):
    """The Hadamard m decoder as an adaptive one: for bit i and each r with
    bit i clear, a depth-2 tree reading r, then r^e_i, and outputting their
    XOR, with weight 2/n."""
    from rldc import decoders

    n = 1 << m
    weight = Fraction(2, n)
    node = decoders.TreeNode
    trees = []
    for i in range(m):
        e = 1 << i
        trees.append(
            tuple(
                (weight, node(r, node(r ^ e, 0, 1), node(r ^ e, 1, 0)))
                for r in range(n)
                if not r & e
            )
        )
    return decoders.AdaptiveDecoder(k=m, n=n, locality=2, trees=tuple(trees))


def _view_rows(decoder):
    return [[(wt, v.coords, v.table) for wt, v in decoder.views[i]] for i in range(decoder.k)]


class Preprocess:
    """`preprocess_pipeline` (flatten -> amplify -> reduce) on an adaptive
    Hadamard m=6 decoder, one seed per item, with the CLI's defaults:
    epsilon 1/16 (R=4, locality 8), tolerance 2*epsilon, a multiset of 4n and
    50 in-radius corpus words."""

    name = "preprocess"
    min_items = 2
    trace_items = 2
    corpus_size = 50
    checked_messages = 4  # corpus messages whose codewords every reduced view must decode
    digest_argv = ("preprocess", "--code", "hadamard:m=6", "--seed", str(DEFAULT_SEED))

    def setup(self) -> None:
        from rldc import decoders, harness, preprocessing, rng

        self.decoders = decoders
        self.harness = harness
        self.preprocessing = preprocessing
        self.rng = rng
        self.code, builtin = decoders.parse_code_spec("hadamard:m=6")
        self.adaptive = hadamard_xor_trees(6)
        flat = preprocessing.flatten_adaptive(self.adaptive)
        if flat.locality != builtin.locality or _view_rows(flat) != _view_rows(builtin):
            raise RuntimeError("XOR trees do not flatten to the built-in Hadamard tables")
        epsilon = preprocessing.epsilon_for_locality(flat)
        self.tolerance = 2 * epsilon
        self.locality = flat.locality * preprocessing.repetitions_for(epsilon)
        self.multiset = 4 * self.code.n

    def item(self, seed: int, j: int):
        rng = self.rng.derive_rng(item_seed(seed, self.name, j), "preprocess")
        corpus = self.harness.make_in_radius_corpus(self.code, self.corpus_size, rng)
        reduced, report = self.preprocessing.preprocess_pipeline(
            self.adaptive, None, self.multiset, corpus, self.tolerance, rng
        )
        return corpus, reduced, report

    def failed(self, output) -> bool:
        corpus, reduced, report = output
        if not report.passed or report.max_wrong_rate > self.tolerance:
            return True
        if report.multiset_size != self.multiset or len(report.entry_rates) != len(corpus):
            return True
        if reduced.locality != self.locality:
            return True
        # valid codewords decode exactly under every reduced coin outcome
        for _, x in corpus[: self.checked_messages]:
            word = self.code.encoder(x)
            for i in range(reduced.k):
                if any(view.read_and_evaluate(word) != x[i] for _, view in reduced.views[i]):
                    return True
        return False

    def fingerprint(self, output) -> str:
        _, reduced, report = output
        doc = {"report": report.to_json(), "decoder": self.decoders.decoder_to_json(reduced)}
        return json.dumps(doc, sort_keys=True)

    def close(self) -> None:
        pass


def make(name: str, tamper=None):
    """A fresh workload object by name."""
    if name == "daisy-claims":
        return DaisyClaims(tamper)
    if name == "pivot-decode":
        return GlobalTrials(
            "pivot-decode",
            "shared-pivot:kappa=5,r=64,k=16",
            strict=True,
            audit=True,
            trace_items=30,
            digest_argv=(
                "simulate", "--code", "shared-pivot:kappa=5,r=64,k=16", "--trials", "20",
                "--seed", str(DEFAULT_SEED), "--strict", "--format", "csv",
            ),
        )
    if name == "hadamard-decode":
        return GlobalTrials(
            "hadamard-decode",
            "hadamard:m=14",
            strict=False,
            audit=False,
            trace_items=80,
            digest_argv=(
                "simulate", "--code", "hadamard:m=14", "--trials", "20",
                "--seed", str(DEFAULT_SEED), "--no-audit", "--format", "csv",
            ),
        )
    if name == "preprocess":
        return Preprocess()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("daisy-claims", "pivot-decode", "hadamard-decode", "preprocess")

# sha256 of the stdout of each workload's digest_argv, made at the seed commit
PINNED = {
    "daisy-claims": "711043901bf5a322e674b80dd4a8122f450290e987182ee402ebe18eee2b9fb0",
    "pivot-decode": "6c55de44ba59cec98274773e673e27e94b70efaf00edbb409a173dc7d3f42be9",
    "hadamard-decode": "382aea5515f19bc619b578fa6f4c21deebe17187b698cd9e02c3faae637df186",
    "preprocess": "8a1b64c619565bc5bada5963793c5cc6e7a29778c64986b97e0da8d7e53299b0",
}
