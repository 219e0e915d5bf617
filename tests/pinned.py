"""Pinned CLI outputs: each argv with the SHA-256 of its stdout (exit code 0).

The table needs only the standard library and rldc, so it runs under any
supported interpreter, pytest or not:

    PYTHONPATH=src python tests/pinned.py

checks every pin in one process, prints one line per pin and exits 1 on a
mismatch.  tests/test_cli.py::test_pinned_output reads the same table, and
tests/test_cli.py::test_pinned_table_under_other_interpreters runs this
script under the other installed Pythons.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

from rldc.cli import main
from rldc.exact import format_fraction
from rldc.harness import random_set_system
from rldc.rng import derive_rng
from rldc.set_system import SetSystem, WeightedSetSystem

# "{pin}" stands for the input file that write_pin_input makes.
PINS = (
    # amplified shared-pivot views carry REJECT entries through materialize
    (("preprocess", "--code", "shared-pivot:kappa=2,r=8,k=4", "--seed", "0"),
     "292b8ae5c6bffebfc2528fc514209409264e7870040bfc9abf9d00292d8d5c1b"),
    (("preprocess", "--code", "shared-pivot:kappa=2,r=8,k=4", "--seed", "7"),
     "eda11b9389ead91b0491f7cb5d3f2bf24abb4036ffc325f5f471a0035f8a0588"),
    # the literal target 1/locality^2, and the default tolerance 2 * epsilon
    (("preprocess", "--code", "hadamard:m=4", "--epsilon-mode", "original", "--seed", "3"),
     "e676b6f20a1efc7e832c4416cce2b7d8d9ecc9dc311886e4f4689633eebb0150"),
    (("preprocess", "--code", "shared-pivot:kappa=2,r=4,k=4", "--epsilon", "1/64", "--seed", "5"),
     "28fe4a95a317c752feb3c3f670a8e6fddd4f159939dbb2b5447a24a25b24fbf9"),
    # the benchmark's preprocess pin: rows of one shape share a table through decoder_to_json
    (("preprocess", "--code", "hadamard:m=6", "--seed", "0"),
     "8a1b64c619565bc5bada5963793c5cc6e7a29778c64986b97e0da8d7e53299b0"),
    # the budget runs abort about half their trials; the strict runs audit
    (("simulate", "--trials", "20", "--format", "json", "--code", "hadamard:m=8", "--budget", "128",
      "--seed", "0"),
     "f13d8f3cb9fd20ed1cb41a55f050231862ead88512c0fad14b7041509ed0a19e"),
    (("simulate", "--trials", "20", "--format", "json", "--code", "hadamard:m=8", "--budget", "128",
      "--seed", "7"),
     "9c7a99cc9312a665578976ab706b1b7143379ab98526169d9b6983f36238ed50"),
    (("simulate", "--trials", "20", "--format", "json", "--code", "shared-pivot:kappa=2,r=64,k=16",
      "--strict", "--seed", "0"),
     "acaa4487532682b279ef616fbb2ec05f32a5c61cc069df22b3feb526da912f23"),
    (("simulate", "--trials", "20", "--format", "json", "--code", "shared-pivot:kappa=2,r=64,k=16",
      "--strict", "--seed", "7"),
     "ba196e012be16c99a907053b3ae46145fab25ec24491337a4fb28f90795e1feb"),
    # 256 random 3-sets over [256]: kernels, levels and petal degrees at scale
    (("extract-daisy", "--in", "{pin}", "--ell", "3"),
     "682d7469f2edba9c4f99a6583495cd8fbaf9975603b39882896082cef6cddbb5"),
    # 12 view systems of 2048 pairs each go through the exact weight checks
    (("simulate", "--code", "hadamard:m=12", "--trials", "5", "--no-audit", "--format", "json"),
     "31f15768a4d88b3c5a613e5e66a56ecafd5af1142e8062e671150f98f82cd321"),
    # empty kernels: strict mode with the audit at an explicit p, and one-view indices
    (("simulate", "--code", "hadamard:m=10", "--strict", "--p", "0.5", "--trials", "20", "--format", "json"),
     "40831252c51d9d54f6ab87fb7c132326ddab161b9c3a44bd97ca397375e59aaf"),
    (("simulate", "--code", "identity:k=64", "--trials", "20", "--format", "json"),
     "2c1bcc2fe3a750701cf43ec418ae280a96f835e1f284e370094acc3034441c44"),
    # the repetition family: 16 one-coordinate views per index
    (("simulate", "--code", "repetition:k=8,r=16", "--trials", "20", "--format", "json"),
     "ba9f304df6c79b7dc7809ded5a4b7576dcd907a7997304ae285197e82e3e1971"),
    # reduced rows of lengths 1-4 in one list: the row checks over rows of several lengths
    (("preprocess", "--code", "repetition:k=4,r=4", "--epsilon", "1/16"),
     "57fd6cd8b56ea7c4b5b529376de26a4ebc68cd7eeb62f532f17cae0d7da8b49c"),
    # R = 2 with an odd multiset: rows of two draws, some of them the same view
    (("preprocess", "--code", "hadamard:m=5", "--epsilon", "1/4", "--multiset-factor", "1", "--seed", "9"),
     "b6180e9894fc5e085cfb1f88077946fac1286c275437ecb82fb7ef88418eb923"),
    # wider amplified rows with REJECT entries
    (("preprocess", "--code", "shared-pivot:kappa=5,r=8,k=2", "--seed", "1"),
     "f7d169aee74eb80e07070edfebfe067660f92bee982e917cd7c8b5f244f2ef69"),
)


def system_to_json(obj: SetSystem) -> dict:
    """The JSON form that system_from_json reads: {"n":..., "sets":[[...]...],
    "weights":["a/b",...]}, with no weights field for a bare SetSystem."""
    doc = {"n": obj.universe_size, "sets": [list(s) for s in obj.sets]}
    if isinstance(obj, WeightedSetSystem):
        doc["weights"] = [format_fraction(Fraction(m, obj.total)) for m in obj.masses]
    return doc


def write_pin_input(directory: str) -> str:
    """Write the extract-daisy pin's set system into `directory`; its path."""
    system = random_set_system(256, 256, 3, derive_rng(0, "pin"))
    path = os.path.join(directory, "pin.json")
    with open(path, "w") as fh:
        json.dump(system_to_json(WeightedSetSystem.uniform(system.universe_size, system.sets)), fh)
    return path


def run_pin(argv, pin_path: str) -> tuple[int, str]:
    """(exit code, stdout digest) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main([arg.format(pin=pin_path) for arg in argv])
    return status, hashlib.sha256(out.getvalue().encode()).hexdigest()


def check_all() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as directory:
        pin_path = write_pin_input(directory)
        for argv, digest in PINS:
            status, got = run_pin(argv, pin_path)
            ok = status == 0 and got == digest
            failures += not ok
            print(("ok  " if ok else "BAD ") + " ".join(argv) + ("" if ok else f": exit {status}, {got}"))
    print(f"{len(PINS) - failures} of {len(PINS)} pins match under Python {sys.version.split()[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(check_all())
