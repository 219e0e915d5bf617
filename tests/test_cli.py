import hashlib
import json
import time

import pytest

from rldc.cli import main
from rldc.harness import random_set_system
from rldc.rng import derive_rng
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


@pytest.mark.parametrize(
    "seed, digest",
    [
        ("0", "292b8ae5c6bffebfc2528fc514209409264e7870040bfc9abf9d00292d8d5c1b"),
        ("7", "eda11b9389ead91b0491f7cb5d3f2bf24abb4036ffc325f5f471a0035f8a0588"),
    ],
)
def test_preprocess_shared_pivot_pinned(seed, digest, capsys):
    # amplified shared-pivot views carry REJECT entries through materialize
    assert main(["preprocess", "--code", "shared-pivot:kappa=2,r=8,k=4", "--seed", seed]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--code", "hadamard:m=8", "--budget", "128", "--seed", "0"],
         "f13d8f3cb9fd20ed1cb41a55f050231862ead88512c0fad14b7041509ed0a19e"),
        (["--code", "hadamard:m=8", "--budget", "128", "--seed", "7"],
         "9c7a99cc9312a665578976ab706b1b7143379ab98526169d9b6983f36238ed50"),
        (["--code", "shared-pivot:kappa=2,r=64,k=16", "--strict", "--seed", "0"],
         "acaa4487532682b279ef616fbb2ec05f32a5c61cc069df22b3feb526da912f23"),
        (["--code", "shared-pivot:kappa=2,r=64,k=16", "--strict", "--seed", "7"],
         "ba196e012be16c99a907053b3ae46145fab25ec24491337a4fb28f90795e1feb"),
    ],
)
def test_simulate_pinned(argv, digest, capsys):
    # the budget runs abort about half their trials; the strict runs audit
    assert main(["simulate", "--trials", "20", "--format", "json"] + argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_extract_daisy_pinned(tmp_path, capsys):
    # 256 random 3-sets over [256]: kernels, levels and petal degrees at scale
    system = random_set_system(256, 256, 3, derive_rng(0, "pin"))
    path = tmp_path / "pin.json"
    path.write_text(json.dumps(system_to_json(WeightedSetSystem.uniform(system))))
    assert main(["extract-daisy", "--in", str(path), "--ell", "3"]) == 0
    assert (
        hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        == "682d7469f2edba9c4f99a6583495cd8fbaf9975603b39882896082cef6cddbb5"
    )


def test_simulate_hadamard_extraction_pinned(capsys):
    # 12 view systems of 2048 pairs each go through the exact weight checks
    argv = ["simulate", "--code", "hadamard:m=12", "--trials", "5", "--no-audit", "--format", "json"]
    assert main(argv) == 0
    assert (
        hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        == "31f15768a4d88b3c5a613e5e66a56ecafd5af1142e8062e671150f98f82cd321"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["preprocess", "--code", "hadamard:m=6", "--epsilon", "1/1024"], "table entries"),
        (["simulate", "--code", "shared-pivot:kappa=40,r=2,k=2"], "2^41 table entries exceed"),
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
        ["wrapup", "--k", "2", "--seed", str(1 << 64)],
        ["extract-daisy", "--in", "{star}", "--ell", "0"],
        ["simulate", "--code", "hadamard:m=3", "--trials", "2", "--kmax", "-1"],
        ["scaling", "--sizes", "64,256", "--trials", "2", "--kmax", "-1"],
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
    assert main(["wrapup", "--k", "2", "--seed", str((1 << 64) - 1)]) == 0


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
