import contextlib
import functools
import glob
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pinned import PINS, run_pin, write_pin_input

import rldc
from rldc import harness
from rldc.cli import main
from rldc.set_system import SetSystem, WeightedSetSystem, system_to_json


@pytest.fixture
def star_json(tmp_path):
    system = SetSystem(8, tuple((0, j) for j in range(1, 8)))
    path = tmp_path / "star.json"
    path.write_text(json.dumps(system_to_json(WeightedSetSystem.uniform(system))))
    return path


def test_extract_daisy(star_json, tmp_path):
    out = tmp_path / "daisy.json"
    rc = main(["extract-daisy", "--in", str(star_json), "--ell", "2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["heavy"]["kernel"] == [0]
    assert doc["heavy"]["level"] == 1
    assert doc["verification"]["ok"]
    assert len(doc["levels"]) == 2


def test_extract_daisy_explicit_scale(star_json, tmp_path):
    out = tmp_path / "daisy.json"
    rc = main(
        ["extract-daisy", "--in", str(star_json), "--ell", "2", "--c", "7/8",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["heavy"]["degree_bound"]["coeff"] == "7/8"


def test_simulate_csv_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["simulate", "--code", "hadamard:m=5", "--trials", "6", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "trial,success,queries,per_index"
    assert len(lines) == 7


def test_simulate_json_format(tmp_path):
    out = tmp_path / "r.json"
    rc = main(
        ["simulate", "--code", "shared-pivot:kappa=2,r=16,k=4", "--trials", "4",
         "--seed", "3", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["trials"] == 4
    assert doc["wrong_bits"] == 0
    assert len(doc["rows"]) == 4


def test_timing_measures_aborted_trials(capsys):
    # every trial of this run samples more than the budget and aborts
    argv = ["simulate", "--code", "hadamard:m=8", "--trials", "4", "--budget", "40", "--timing"]
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 4
    assert all(row[3].startswith("aborted") and float(row[4]) > 0 for row in rows)


def test_preprocess_round_trip(tmp_path):
    out = tmp_path / "pre.json"
    rc = main(
        ["preprocess", "--code", "hadamard:m=3", "--epsilon", "1/4",
         "--multiset-factor", "2", "--corpus-size", "5", "--seed", "1",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["passed"]
    assert doc["report"]["multiset_size"] == 16
    assert len(doc["decoder"]["indices"][0]["sets"]) == 16


@pytest.mark.parametrize("argv, digest", PINS, ids=[" ".join(argv) for argv, _ in PINS])
def test_pinned_output(argv, digest, tmp_path):
    assert run_pin(argv, write_pin_input(str(tmp_path))) == (0, digest)


@functools.lru_cache(maxsize=None)
def _other_interpreters():
    """The oldest and the newest Python >= 3.10 found as python3.10 ... python3.13
    on PATH or under $PYENV_ROOT/versions/*/bin, other than the running one;
    a candidate that fails to start (a pyenv shim without that version) is
    dropped."""
    names = [f"python3.{minor}" for minor in range(10, 14)]
    dirs = os.environ.get("PATH", "").split(os.pathsep)
    pyenv = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    dirs += sorted(glob.glob(os.path.join(pyenv, "versions", "*", "bin")))
    found, running = {}, os.path.realpath(sys.executable)
    for path in (os.path.join(d, name) for d in dirs if d for name in names):
        if not os.access(path, os.X_OK):
            continue
        try:
            probe = subprocess.run(
                [path, "-c", "import os, sys; print(os.path.realpath(sys.executable), *sys.version_info[:3])"],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = probe.stdout.split()
        if probe.returncode == 0 and len(fields) == 4 and fields[0] != running:
            found[fields[0]] = tuple(map(int, fields[1:]))
    if not found:
        return []
    ordered = sorted(found, key=found.get)
    return sorted({ordered[0], ordered[-1]}, key=found.get)


def _run_under_other_interpreters(name):
    """Run the stdlib-only script tests/<name> under each other interpreter."""
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other Python 3.10-3.13 interpreter starts here")
    script = os.path.join(os.path.dirname(__file__), name)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rldc.__file__)))
    for python in interpreters:
        run = subprocess.run([python, script], capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode == 0, (python, run.stdout, run.stderr)


def test_pinned_table_under_other_interpreters():
    # the table is stdlib-only, so interpreters without pytest can run it
    _run_under_other_interpreters("pinned.py")


def test_sample_draws_under_other_interpreters():
    # the sampler leans on how CPython builds random() from its words
    _run_under_other_interpreters("sample_draws.py")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["preprocess", "--code", "hadamard:m=6", "--epsilon", "1/1024"], "table entries"),
        (["simulate", "--code", "shared-pivot:kappa=40,r=2,k=2"], "2^41 table entries exceed"),
        # shared-pivot views share coordinates, so only the parts budget stops R = 6641
        (["preprocess", "--code", "shared-pivot:kappa=2,r=4,k=4", "--corpus-size", "2", "--epsilon", "1e-1999"],
         "samples 1912608 parts, over 1048576"),
        # no default target error exists at locality 1, whatever the table size
        (["preprocess", "--code", "identity:k=4"], "undefined at locality 1; give epsilon"),
        # no corpus meets a negative tolerance: rejected before any reduction
        (["preprocess", "--code", "hadamard:m=5", "--tolerance", "-1"], "tolerance must be >= 0, got -1"),
        (["preprocess", "--code", "hadamard:m=5", "--tolerance=-1/2"], "tolerance must be >= 0, got -1/2"),
    ],
)
def test_oversized_tables_are_usage_errors(argv, message, capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - start < 10
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("rldc: error:") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "spec, message",
    [
        ("hadamard:m=3,x=1", "takes no argument 'x'"),
        ("hadamard:m=3,m=4", "got argument 'm' twice"),
        ("identity:k=100000000", "exceed the budget"),
        ("repetition:k=100000,r=100000", "exceed the budget"),
        ("hadamard:m=17", "exceed the budget"),
    ],
)
def test_bad_code_specs_are_usage_errors(spec, message, capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--code", spec, "--trials", "1"])
    assert time.perf_counter() - start < 10
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("rldc: error:") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("claims", [["nope"], ["wrapup", "nope"]])
def test_verify_unknown_claim_is_usage_error(claims, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--wrapup-max", "2", "--claims", *claims])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'nope'" in captured.err
    assert captured.out == ""


def test_verify_small(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(
        ["verify", "--instances", "5", "--daisies", "5", "--trials", "2",
         "--wrapup-max", "3", "--claims", "coresub", "partition", "wrapup",
         "--seed", "4", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert [r["claim"] for r in doc] == ["coresub", "partition", "wrapup"]
    assert all(r["violations"] == 0 for r in doc)


def test_scaling_csv(tmp_path):
    out = tmp_path / "scale.csv"
    rc = main(
        ["scaling", "--family", "hadamard", "--sizes", "64,256", "--trials", "5",
         "--seed", "2", "--out", str(out)]
    )
    assert rc == 0
    text = out.read_text()
    assert text.startswith("n,trials,success_rate,mean_queries,max_queries\n")
    assert "# fitted_exponent," in text


def test_scaling_repeated_size_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scaling", "--sizes", "4,4", "--trials", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == "rldc: error: repeated size in [4, 4]\n"
    assert captured.out == ""


def test_scaling_nonpositive_size_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scaling", "--sizes", "0,4,8", "--trials", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == "rldc: error: sizes must be >= 1, got [0, 4, 8]\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--claims", "coresub", "wrapup", "--wrapup-max", "11"], "--wrapup-max"),
        (["wrapup", "--k", "11"], "--k"),
    ],
)
def test_wrapup_cap_fails_before_any_work(argv, flag, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a suite ran before the bound check")

    monkeypatch.setattr(harness, "run_daisy_claim_suite", no_work)
    monkeypatch.setattr("rldc.cli.wrapup_sanity", no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"rldc: error: {flag} must be <= {harness.WRAPUP_MAX_K}, got 11\n"
    assert captured.out == ""


@pytest.mark.parametrize("p", ["0", "1e-9"])
def test_scaling_without_queries_has_no_exponent(p, capsys):
    assert main(["scaling", "--sizes", "4,8", "--trials", "2", "--p", p]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["4,2,0.0,0.0,0", "8,2,0.0,0.0,0"]


def test_wrapup_clean(capsys):
    rc = main(["wrapup", "--k", "5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert [d["k"] for d in doc] == [1, 2, 3, 4, 5]
    assert all(d["violations"] == 0 for d in doc)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--code", "bogus:z=1", "--trials", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["wrapup", "--k", "2"],  # small: fails at the final flush
        ["preprocess", "--code", "shared-pivot:kappa=2,r=4,k=4"],  # fails mid-stream
    ],
)
def test_closed_stdout_exits_1_without_an_error_line(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rldc.__file__)))
    try:
        run = subprocess.run(
            [sys.executable, "-m", "rldc.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert run.returncode == 1
    assert run.stderr == b""


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--code", "hadamard:m=3", "--trials", "0", "--format", "json"],
        ["simulate", "--code", "hadamard:m=3", "--trials", "0"],
        ["scaling", "--sizes", "64,256", "--trials", "0"],
        ["simulate", "--code", "hadamard:m=3", "--trials", "1", "--seed", "-5"],
        ["verify", "--claims", "wrapup", "--wrapup-max", "2", "--seed", str(1 << 64)],
        ["extract-daisy", "--in", "{star}", "--ell", "0"],
        ["simulate", "--code", "hadamard:m=3", "--trials", "2", "--kmax", "-1"],
        ["simulate", "--code", "hadamard:m=3", "--trials", "2", "--budget", "-1"],
        ["verify", "--instances", "-1", "--claims", "coresub"],
        ["verify", "--daisies", "-3", "--claims", "simple-daisy-bound"],
        ["verify", "--wrapup-max", "-1", "--claims", "wrapup"],
        ["preprocess", "--code", "hadamard:m=3", "--corpus-size", "-4"],
        ["preprocess", "--code", "hadamard:m=3", "--multiset-factor", "0"],
        ["wrapup", "--k", "-3"],
    ],
)
def test_bad_trials_or_seed_is_usage_error(argv, star_json, capsys):
    # also the other numeric bounds: --ell >= 1, --kmax >= 0, --budget >= 0,
    # counts >= 0 and --multiset-factor >= 1, each named with its dashes
    with pytest.raises(SystemExit) as exc:
        main([arg.format(star=star_json) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("rldc: error: --")
    assert "_" not in captured.err
    assert captured.out == ""


def test_largest_seed_accepted():
    argv = ["verify", "--claims", "wrapup", "--wrapup-max", "2", "--seed", str((1 << 64) - 1)]
    assert main(argv) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["wrapup", "--k", "2", "--format", "csv"], "unrecognized arguments: --format csv"),
        (["wrapup", "--k", "2", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["extract-daisy", "--in", "x.json", "--ell", "2", "--seed", "1"], "unrecognized arguments"),
        (["preprocess", "--code", "hadamard:m=3", "--format", "json"], "unrecognized arguments"),
        (["scaling", "--sizes", "64,256", "--trials", "2", "--kmax", "-1"], "unrecognized arguments: --kmax"),
        (["verify", "--claims"], "--claims: expected at least one argument"),
        (["preprocess", "--code", "hadamard:m=4", "--epsilon", "1/8", "--epsilon-mode", "original"],
         "argument --epsilon-mode: not allowed with argument --epsilon"),
        (["preprocess", "--code", "hadamard:m=4", "--epsilon-mode", "final", "--epsilon", "1/8"],
         "argument --epsilon: not allowed with argument --epsilon-mode"),
    ],
)
def test_flag_a_subcommand_does_not_read_is_usage_error(argv, message, capsys):
    # --seed and --format exist only where they change the output, --claims
    # with no ids would otherwise mean every suite at full scale,
    # --epsilon-mode only picks the default target, so it excludes --epsilon,
    # and scaling has no --kmax, since neither of its families has a kernel
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"sets": [[0, 1]]}, "'n'"),
        ({"n": "eight", "sets": [[0, 1]]}, "'n'"),
        ({"n": 4}, "'sets'"),
        ({"n": 4, "sets": 3}, "'sets'"),
        ({"n": 4, "sets": [[0, 1]], "weights": [None]}, "'weights'"),
        ([[0, 1]], "'n'"),
        ({"n": 4, "sets": [[0, 1]], "weights": ["1/0"]}, "'weights'"),
        # JSON types are not coerced: no floats, bools or strings for integers
        ({"n": 2.7, "sets": [[0, 1]]}, "'n'"),
        ({"n": 4, "sets": [[0.9, 1]]}, "'sets'"),
        ({"n": 4, "sets": [[True, 2]]}, "'sets'"),
        ({"n": 4, "sets": [["1", 2]]}, "'sets'"),
        ({"n": 4, "sets": "01"}, "'sets'"),
        ({"n": 4, "sets": [[0, 1]], "weights": [True]}, "'weights'"),
    ],
)
def test_malformed_system_json_is_usage_error(doc, field, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["extract-daisy", "--in", str(path), "--ell", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("rldc: error: set-system JSON") and field in err


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ('{"n": 1e400, "sets": [[0, 1]]}', ["--ell", "2"], "field 'n' is ill-typed"),
        ('{"n": 8, "sets": [[0, 1], [0, 2]]}', ["--ell", "2", "--c", "1e999"], "too large"),
        (json.dumps({"n": 10**700, "sets": [[0], [1]]}), ["--ell", "1"], "too large"),
        (json.dumps({"n": 10**700, "sets": [[0], [1]]}), ["--ell", "2"], "too large"),
    ],
)
def test_overflowing_input_is_usage_error(text, argv, message, tmp_path, capsys):
    # an infinite n, and thresholds whose float approximation overflows
    path = tmp_path / "big.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["extract-daisy", "--in", str(path), *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("rldc: error:") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["preprocess", "--code", "hadamard:m=3", "--epsilon", "1/0"],
        ["preprocess", "--code", "hadamard:m=3", "--tolerance", "1/0"],
        ["extract-daisy", "--in", "{star}", "--ell", "2", "--c", "1/0"],
    ],
)
def test_zero_denominator_is_usage_error(argv, star_json, capsys):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(star=star_json) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == "rldc: error: zero denominator in '1/0'\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["preprocess", "--code", "hadamard:m=4", "--epsilon", "", "--seed", "2"],
        ["preprocess", "--code", "hadamard:m=4", "--tolerance", "", "--seed", "2"],
        ["extract-daisy", "--in", "{star}", "--ell", "2", "--c", ""],
    ],
)
def test_empty_rational_is_usage_error(argv, star_json, capsys):
    # an empty rational flag is a bad literal on every subcommand, not unset
    with pytest.raises(SystemExit) as exc:
        main([arg.format(star=star_json) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == "rldc: error: Invalid literal for Fraction: ''\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# fuzzing: every argument vector ends in exit 0, 1 or 2, never a traceback

FUZZ_FILES = {
    "star": json.dumps({"n": 8, "sets": [[0, j] for j in range(1, 8)]}),
    "weighted": json.dumps({"n": 4, "sets": [[0, 1], [2, 3]], "weights": ["1/3", "2/3"]}),
    "inf": '{"n": 1e400, "sets": [[0, 1]]}',
    "huge": json.dumps({"n": 10**700, "sets": [[0], [1]]}),
    "nan": '{"n": NaN, "sets": [[0, 1]]}',
    "list": "[[0, 1]]",
    "badweights": '{"n": 4, "sets": [[0, 1]], "weights": ["1/2"]}',
    "outside": '{"n": 2, "sets": [[0, 5]]}',
    "infset": '{"n": 4, "sets": [[0, 1e400]]}',
    "nested": '{"n": 4, "sets": [[[0]]]}',
    "negweights": '{"n": 4, "sets": [[0], [1]], "weights": ["-1/2", "3/2"]}',
    "text": "not json",
}
CODES = (
    "hadamard:m=2", "hadamard:m=4", "identity:k=3", "repetition:k=2,r=3",
    "shared-pivot:kappa=2,r=4,k=4", "shared-pivot:kappa=4,r=0,k=4", "hadamard:m=0",
    "identity:k=-1", "hadamard", "hadamard:m=", "hadamard:m=x", "hadamard:m=3,x=1",
    "bogus:z=1", "", ":",
)
# a tiny epsilon is valid but amplifies for seconds, so the pool stops at 1/16
RATIONALS = (None, "1/4", "1/16", "1", "0", "-1/4", "2", "1/0", "x", "1e999", "nan")
COUNTS = ("-1", "0", "1", "2", "x")  # never the full-scale defaults
SEEDS = (None, "0", "7", "-1", str((1 << 64) - 1), str(1 << 64))
OUTS = (None, "{missing}")
FLAG = (None, True)

COMMANDS = {
    "extract-daisy": {
        "--in": ["{%s}" % name for name in FUZZ_FILES] + ["{missing}"],
        "--ell": ("0", "1", "2", "3", "x"),
        "--c": RATIONALS,
        "--out": OUTS,
    },
    "preprocess": {
        "--code": CODES,
        "--epsilon": RATIONALS,
        "--epsilon-mode": (None, "final", "original", "other"),
        "--multiset-factor": (None, "0", "1", "2"),
        "--corpus-size": COUNTS,
        "--tolerance": RATIONALS,
        "--seed": SEEDS,
        "--out": OUTS,
    },
    "simulate": {
        "--code": CODES,
        "--trials": COUNTS,
        "--kmax": (None, "-1", "0", "3"),
        "--p": (None, "0", "0.5", "1", "-0.5", "2", "nan", "inf", "x"),
        "--budget": (None, "-1", "0", "5"),
        "--strict": FLAG,
        "--no-audit": FLAG,
        "--timing": FLAG,
        "--seed": SEEDS,
        "--format": (None, "csv", "json", "xml"),
        "--out": OUTS,
    },
    "verify": {
        "--instances": COUNTS,
        "--daisies": COUNTS,
        "--trials": COUNTS,
        "--wrapup-max": ("-1", "0", "2", "3", "11"),
        "--claims": [(claim,) for claim in harness.CLAIM_IDS]
        + [("coresub", "simple-daisy-bound", "completeness"), ("soundness", "wrapup"), ("nope",)],
        "--seed": SEEDS,
        "--format": (None, "csv", "json"),
        "--out": OUTS,
    },
    "scaling": {
        "--family": (None, "hadamard", "identity", "bogus"),
        "--sizes": ("4,16", "4", "16,4", "0,4", "4,4", "-4", "x", "", "4,,16"),
        "--trials": COUNTS,
        "--p": (None, "0", "0.5", "2", "nan"),
        "--seed": SEEDS,
        "--format": (None, "csv", "json"),
        "--out": OUTS,
    },
    "wrapup": {"--k": ("-1", "0", "2", "3", "11"), "--out": OUTS},
}


def _argv_strategy(command, pools):
    """[command, flag, value, ...] with one drawn value per flag; a drawn None
    leaves the flag out, True gives a bare switch and a tuple several values."""

    def argv(drawn):
        out = [command]
        for flag, value in zip(pools, drawn):
            if value is True:
                out.append(flag)
            elif isinstance(value, tuple):
                out += [flag, *value]
            elif value is not None:
                out += [flag, value]
        return out

    return st.tuples(*(st.sampled_from(list(values)) for values in pools.values())).map(argv)


ARGV = st.one_of(*(_argv_strategy(cmd, pools) for cmd, pools in COMMANDS.items()))


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"missing": str(root / "no-such-dir" / "file.json")}
    for name, text in FUZZ_FILES.items():
        (root / f"{name}.json").write_text(text)
        paths[name] = str(root / f"{name}.json")
    return paths


@settings(max_examples=300, deadline=None)
@given(argv=ARGV)
@example(argv=["extract-daisy", "--in", "{inf}", "--ell", "2"])
@example(argv=["extract-daisy", "--in", "{star}", "--ell", "2", "--c", "1e999"])
@example(argv=["extract-daisy", "--in", "{huge}", "--ell", "1"])
@example(argv=["extract-daisy", "--in", "{huge}", "--ell", "2"])
def test_cli_fuzz_exits_with_a_documented_code(argv, fuzz_paths):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([arg.format(**fuzz_paths) for arg in argv])
        except SystemExit as stop:
            code = stop.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
