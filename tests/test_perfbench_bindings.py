"""The benchmark's tracer finds every library function it rebinds by name.

perfbench/tracing.py only prints a warning when a TARGETS entry is missing,
and that layer's metrics then read 0; a rename in the library fails here.
"""

import importlib.util
from pathlib import Path

import rldc  # noqa: F401  (Tracer.install needs the rldc modules loaded)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_target(capsys):
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        err = capsys.readouterr().err
    finally:
        tracer.restore()
    assert "not found" not in err
