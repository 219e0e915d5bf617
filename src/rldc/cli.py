"""Command-line front end.

Subcommands: extract-daisy, preprocess, simulate, verify, scaling, wrapup.
Exit codes: 0 clean, 1 violations found, 2 usage error.  Outputs are
byte-identical across runs with equal configs and seeds; simulate's
optional --timing flag adds wall-clock times and intentionally breaks that.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from dataclasses import asdict, astuple, fields
from itertools import chain, repeat

from .daisy import MAX_LEVELS, build_daisy_sequence, extraction_report, pick_heavy_level
from .decoders import decoder_to_json, parse_code_spec
from .exact import MAX_RATIONAL_DIGITS, parse_fraction
from .global_decoder import KERNEL_CAP
from .harness import (
    CLAIM_IDS,
    WRAPUP_MAX_K,
    ScalingRow,
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


def _write(doc, out: str | None) -> None:
    """Write CSV text as it is, or stream a JSON document, with a final newline on stdout only."""
    with contextlib.nullcontext(sys.stdout) if out is None else open(out, "w") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            write_json(doc, fh)
            if out is None:
                fh.write("\n")


_SCALARS = frozenset({int, float, str, type(None)})  # exact types: a bool (True == 1) takes the stdlib path
_ROW_CHUNK = 1024  # list entries per C-encoder call, so a 2^16-entry table is never one string


def write_json(value, fh, pad: str = "\n") -> None:
    """Write the text of json.dump(value, fh, indent=2, sort_keys=True), one
    list at a time.  A non-empty list of scalars goes through the C encoder,
    _ROW_CHUNK entries a call, with an item separator that carries the
    newline and indent; dicts with str keys and other lists recurse; anything
    else (empty containers, scalars, dicts with other keys) is the standard
    library's text re-indented.  `pad` is the newline and indent before the
    value's closing bracket."""
    inner = pad + "  "
    if isinstance(value, dict) and value and all(type(key) is str for key in value):
        for sep, key in zip(chain(("{" + inner,), repeat("," + inner)), sorted(value)):
            fh.write(f"{sep}{json.dumps(key)}: ")
            write_json(value[key], fh, inner)
        fh.write(pad + "}")
    elif isinstance(value, (list, tuple)) and value and not set(map(type, value)) <= _SCALARS:
        for sep, item in zip(chain(("[" + inner,), repeat("," + inner)), value):
            fh.write(sep)
            write_json(item, fh, inner)
        fh.write(pad + "]")
    elif isinstance(value, (list, tuple)) and value:
        for start in range(0, len(value), _ROW_CHUNK):
            text = json.dumps(value[start : start + _ROW_CHUNK], separators=("," + inner, ": "))
            fh.write(("," if start else "[") + inner + text[1:-1])
        fh.write(pad + "]")
    else:
        fh.write(json.dumps(value, indent=2, sort_keys=True).replace("\n", pad))


def _csv_text(header: list[str], rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_int(text: str) -> int:
    """A JSON integer of at most MAX_RATIONAL_DIGITS digits, refused before
    int() meets Python's own digit limit."""
    if len(text) > MAX_RATIONAL_DIGITS + text.startswith("-"):
        raise ValueError(f"an integer exceeds {MAX_RATIONAL_DIGITS} digits")
    return int(text)


def _cmd_extract_daisy(args) -> tuple[int, dict]:
    with open(args.infile, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_int=_json_int)
        except RecursionError:
            raise ValueError(f"set-system JSON in {args.infile!r} is nested too deeply") from None
        except ValueError as err:  # not JSON, not UTF-8, or an integer past the digit limit
            raise ValueError(f"set-system JSON in {args.infile!r} cannot be read: {err}") from None
    weighted = system_from_json(doc)
    scale = parse_fraction(args.scale, "--c") if args.scale is not None else None
    levels = build_daisy_sequence(weighted, args.ell, scale)
    report = extraction_report(weighted, levels, pick_heavy_level(levels, weighted.masses))
    return (0 if report["verification"]["ok"] else 1), report


def _cmd_preprocess(args) -> tuple[int, dict]:
    code, decoder = parse_code_spec(args.code)
    rng = derive_rng(args.seed, "preprocess")
    corpus = make_in_radius_corpus(code, args.corpus_size, rng)
    epsilon = parse_fraction(args.epsilon, "--epsilon") if args.epsilon is not None else None  # unset: the pipeline's default
    tolerance = parse_fraction(args.tolerance, "--tolerance") if args.tolerance is not None else None
    try:
        reduced, report = preprocess_pipeline(
            decoder, epsilon, args.multiset_factor * code.n, corpus, tolerance, rng,
            literal_epsilon=args.epsilon_mode == "original",
        )
    except ReductionFailedError as failure:
        return 1, {"report": failure.report.to_json(), "decoder": None}
    return 0, {"report": report.to_json(), "coin_bits": randomness_complexity(reduced), "decoder": decoder_to_json(reduced)}


def _cmd_simulate(args) -> tuple[int, str | dict]:
    code, decoder = parse_code_spec(args.code)
    stats = run_global_trials(
        code, decoder, args.trials, args.seed, kernel_cap=args.kmax, p=args.p, query_budget=args.budget,
        strict=args.strict, audit=not args.no_audit,
    )
    status = 1 if stats.wrong_bits + stats.completeness_violations + stats.soundness_violations else 0
    header = ["trial", "success", "queries", "per_index", "wall_time_ms"][: 4 + args.timing]  # wall_time_ms with --timing only
    if args.fmt == "csv":
        rows = [(r.trial, int(r.success), r.queries, ";".join(r.statuses), f"{r.wall_ms:.3f}") for r in stats.rows]
        return status, _csv_text(header, [row[: len(header)] for row in rows])
    rows = [(r.trial, r.success, r.queries, list(r.statuses), round(r.wall_ms, 3)) for r in stats.rows]
    return status, {
        "code": stats.code_name, "trials": stats.trials, "seed": stats.seed, "success_rate": stats.success_rate,
        "mean_queries": stats.mean_queries, "max_queries": stats.max_queries, "wrong_bits": stats.wrong_bits,
        "completeness_violations": stats.completeness_violations, "soundness_violations": stats.soundness_violations,
        "rows": [dict(zip(header, row)) for row in rows],
    }


def _cmd_verify(args) -> tuple[int, str | list]:
    reports = verify_claims(
        claims=args.claims, seed=args.seed, instances=args.instances, daisies=args.daisies,
        trials=args.trials, wrapup_max=args.wrapup_max,
    )
    status = 1 if any(r.violations for r in reports) else 0
    if args.fmt == "json":
        return status, [r.to_json() for r in reports]
    rows = [[r.claim, r.instances, r.violations, r.worst_margin] for r in reports]  # None writes as ""
    return status, _csv_text(["claim", "instances", "violations", "worst_margin"], rows)


def _cmd_scaling(args) -> tuple[int, str | dict]:
    sizes = [int(s) for s in args.sizes.split(",")]
    result = scaling_study(args.family, sizes, args.trials, args.seed, p=args.p)
    if args.fmt == "json":
        return 0, {
            "family": result.family, "rows": [asdict(row) for row in result.rows], "fitted_exponent": result.exponent,
            "residuals": list(result.residuals), "skipped": [{"n": n, "reason": reason} for n, reason in result.skipped],
        }
    text = _csv_text([f.name for f in fields(ScalingRow)], [astuple(row) for row in result.rows])  # floats write as repr
    if result.exponent is not None:
        text += f"# fitted_exponent,{result.exponent!r}\n"
    return 0, text + "".join(f"# skipped,{n},{reason}\n" for n, reason in result.skipped)


def _cmd_wrapup(args) -> tuple[int, list]:
    reports = [wrapup_sanity(k) for k in range(1, args.k + 1)]
    return (1 if any(r.violations for r in reports) else 0), [r.to_json() | {"k": k} for k, r in enumerate(reports, 1)]


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
    ("seed", 0, (1 << 64) - 1), ("trials", 1, None), ("ell", 1, MAX_LEVELS), ("kmax", 0, None),
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
        status, doc = args.func(args)
        _write(doc, args.out)
        sys.stdout.flush()
        return status
    except BrokenPipeError:  # the reader closed stdout; silence the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, OverflowError) as err:
        parser.exit(2, f"rldc: error: {err}\n")


if __name__ == "__main__":
    sys.exit(main())
