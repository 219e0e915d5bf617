"""Command-line front end.

Subcommands: extract-daisy, preprocess, simulate, verify, scaling, wrapup.
Exit codes: 0 clean, 1 violations found, 2 usage error.  Outputs are
byte-identical across runs with equal configs and seeds; the optional
--timing flag adds wall-clock columns and intentionally breaks that.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .daisy import build_daisy_sequence, extraction_report, pick_heavy_level
from .decoders import decoder_to_json, parse_code_spec
from .exact import parse_fraction
from .global_decoder import KERNEL_CAP
from .harness import (
    CLAIM_IDS,
    WRAPUP_MAX_K,
    make_in_radius_corpus,
    run_global_trials,
    scaling_study,
    verify_claims,
    wrapup_sanity,
)
from .preprocessing import ReductionFailedError, preprocess_pipeline, randomness_complexity
from .rng import derive_rng
from .set_system import system_from_json


def _add_common(parser: argparse.ArgumentParser, seed: bool = True, fmt: str | None = None) -> None:
    """--out on every subcommand; --seed and --format (default fmt) only where they are read."""
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="master seed (u64)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    if fmt:
        parser.add_argument("--format", choices=("csv", "json"), default=fmt, dest="fmt")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_json(doc, out: str | None) -> None:
    """Stream doc to the output; stdout also gets a trailing newline."""
    if out is None:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_extract_daisy(args) -> int:
    with open(args.infile) as fh:
        weighted = system_from_json(json.load(fh))
    scale = parse_fraction(args.scale) if args.scale is not None else None
    levels = build_daisy_sequence(weighted.system, args.ell, scale)
    heavy = pick_heavy_level(levels, weighted)
    report = extraction_report(weighted.system, levels, heavy)
    _emit_json(report, args.out)
    return 0 if report["verification"]["ok"] else 1


def _cmd_preprocess(args) -> int:
    code, decoder = parse_code_spec(args.code)
    rng = derive_rng(args.seed, "preprocess")
    corpus = make_in_radius_corpus(code, args.corpus_size, rng)
    epsilon = parse_fraction(args.epsilon) if args.epsilon is not None else None  # unset: the pipeline's default
    tolerance = parse_fraction(args.tolerance) if args.tolerance is not None else None
    try:
        reduced, report = preprocess_pipeline(
            decoder, epsilon, args.multiset_factor * code.n, corpus, tolerance, rng,
            literal_epsilon=args.epsilon_mode == "original",
        )
    except ReductionFailedError as failure:
        _emit_json({"report": failure.report.to_json(), "decoder": None}, args.out)
        return 1
    doc = {
        "report": report.to_json(),
        "coin_bits": randomness_complexity(reduced),
        "decoder": decoder_to_json(reduced),
    }
    _emit_json(doc, args.out)
    return 0


def _cmd_simulate(args) -> int:
    code, decoder = parse_code_spec(args.code)
    stats = run_global_trials(
        code,
        decoder,
        args.trials,
        args.seed,
        kernel_cap=args.kmax,
        p=args.p,
        query_budget=args.budget,
        strict=args.strict,
        audit=not args.no_audit,
        timing=args.timing,
    )
    if args.fmt == "csv":
        header = ["trial", "success", "queries", "per_index"]
        if args.timing:
            header.append("wall_time_ms")
        rows = []
        for row in stats.rows:
            record = [row.trial, int(row.success), row.queries, ";".join(row.statuses)]
            if args.timing:
                record.append(f"{row.wall_ms:.3f}")
            rows.append(record)
        _emit(_csv_text(header, rows), args.out)
    else:
        _emit_json(
            {
                "code": stats.code_name,
                "trials": stats.trials,
                "seed": stats.seed,
                "success_rate": stats.success_rate,
                "mean_queries": stats.mean_queries,
                "max_queries": stats.max_queries,
                "wrong_bits": stats.wrong_bits,
                "completeness_violations": stats.completeness_violations,
                "soundness_violations": stats.soundness_violations,
                "rows": [
                    {
                        "trial": r.trial,
                        "success": r.success,
                        "queries": r.queries,
                        "per_index": list(r.statuses),
                    }
                    for r in stats.rows
                ],
            },
            args.out,
        )
    bad = stats.wrong_bits + stats.completeness_violations + stats.soundness_violations
    return 1 if bad else 0


def _cmd_verify(args) -> int:
    reports = verify_claims(
        claims=args.claims, seed=args.seed, instances=args.instances, daisies=args.daisies,
        trials=args.trials, wrapup_max=args.wrapup_max,
    )
    if args.fmt == "json":
        _emit_json([r.to_json() for r in reports], args.out)
    else:
        rows = [
            [r.claim, r.instances, r.violations,
             "" if r.worst_margin is None else repr(r.worst_margin)]
            for r in reports
        ]
        _emit(_csv_text(["claim", "instances", "violations", "worst_margin"], rows), args.out)
    return 1 if any(r.violations for r in reports) else 0


def _cmd_scaling(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    result = scaling_study(args.family, sizes, args.trials, args.seed, p=args.p)
    if args.fmt == "csv":
        rows = [
            [row.n, row.trials, repr(row.success_rate), repr(row.mean_queries), row.max_queries]
            for row in result.rows
        ]
        text = _csv_text(
            ["n", "trials", "success_rate", "mean_queries", "max_queries"], rows
        )
        if result.exponent is not None:
            text += f"# fitted_exponent,{result.exponent!r}\n"
        for n, reason in result.skipped:
            text += f"# skipped,{n},{reason}\n"
        _emit(text, args.out)
    else:
        _emit_json(
            {
                "family": result.family,
                "rows": [
                    {
                        "n": row.n,
                        "trials": row.trials,
                        "success_rate": row.success_rate,
                        "mean_queries": row.mean_queries,
                        "max_queries": row.max_queries,
                    }
                    for row in result.rows
                ],
                "fitted_exponent": result.exponent,
                "residuals": list(result.residuals),
                "skipped": [{"n": n, "reason": reason} for n, reason in result.skipped],
            },
            args.out,
        )
    return 0


def _cmd_wrapup(args) -> int:
    violations = 0
    docs = []
    for k in range(1, args.k + 1):
        report = wrapup_sanity(k)
        violations += report.violations
        docs.append(report.to_json() | {"k": k})
    _emit_json(docs, args.out)
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rldc",
        description="Daisy extraction, decoder preprocessing, and sample-based global decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-daisy", help="extract daisy levels from a set-system JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ell", type=int, required=True, help="level count (max set size)")
    p.add_argument("--c", dest="scale", default=None, help="threshold scale (rational; default |T|/n floored at n^(-1/ell))")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_extract_daisy)

    p = sub.add_parser("preprocess", help="flatten, amplify, and reduce a decoder's randomness")
    p.add_argument("--code", required=True)
    target = p.add_mutually_exclusive_group()  # the mode only picks the default target
    target.add_argument("--epsilon", default=None, help="target error (rational); default 1/locality'^2")
    target.add_argument(
        "--epsilon-mode", choices=("final", "original"), default=None,
        help="default target: 1/locality^2 after (final, the default) or before (original) amplification",
    )
    p.add_argument("--multiset-factor", type=int, default=4)
    p.add_argument("--corpus-size", type=int, default=50)
    p.add_argument("--tolerance", default=None, help="validation tolerance (rational; default 2*epsilon)")
    _add_common(p)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("simulate", help="run seeded global-decoder trials")
    p.add_argument("--code", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--kmax", type=int, default=KERNEL_CAP, help="kernel enumeration cap (2^kmax assignments)")
    p.add_argument("--p", type=float, default=None, help="override the sampling probability")
    p.add_argument("--budget", type=int, default=None, help="abort runs that sample more coordinates")
    p.add_argument("--strict", action="store_true", help="two-sided consensus rule")
    p.add_argument("--no-audit", action="store_true")
    p.add_argument("--timing", action="store_true", help="include wall_time_ms (breaks byte-identical output)")
    _add_common(p, fmt="csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the claim-verification suites")
    p.add_argument("--instances", type=int, default=1000, help="instances per (n, ell) point")
    p.add_argument("--daisies", type=int, default=200, help="random daisies for the pluck suite")
    p.add_argument("--trials", type=int, default=200, help="global-decoder trials per code")
    p.add_argument("--wrapup-max", type=int, default=10)
    p.add_argument("--claims", nargs="+", choices=CLAIM_IDS, default=None, help="subset of claim ids to run")
    _add_common(p, fmt="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scaling", help="query-count scaling study with a log-log fit")
    p.add_argument("--family", default="hadamard")
    p.add_argument("--sizes", required=True, help="comma-separated blocklengths")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--p", type=float, default=None)
    _add_common(p, fmt="csv")
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("wrapup", help="exhaustive (k-1)-query impossibility check")
    p.add_argument("--k", type=int, default=8)
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_wrapup)

    return parser


# Bounds of the numeric flags, by argparse dest: (dest, lowest, highest or None).
BOUNDS = (
    ("seed", 0, (1 << 64) - 1), ("trials", 1, None), ("ell", 1, None), ("kmax", 0, None),
    ("budget", 0, None), ("instances", 0, None), ("daisies", 0, None), ("corpus_size", 0, None),
    ("wrapup_max", 0, WRAPUP_MAX_K), ("k", 0, WRAPUP_MAX_K), ("multiset_factor", 1, None),
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, low, high in BOUNDS:
            value, flag = getattr(args, name, None), "--" + name.replace("_", "-")
            if value is not None and value < low:
                raise ValueError(f"{flag} must be >= {low}, got {value}")
            if value is not None and high is not None and value > high:
                raise ValueError(f"{flag} must be <= {high}, got {value}")
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:  # the reader closed stdout; silence the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, OverflowError) as err:
        parser.exit(2, f"rldc: error: {err}\n")


if __name__ == "__main__":
    sys.exit(main())
