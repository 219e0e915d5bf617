"""Row-type layouts, stdlib-only: each row type adds only its own slots.

WeightedSetSystem declares its slots masses and total by hand, and
ExplicitViews its slot tables, because Python 3.10's `dataclass(slots=True)`
re-declares every inherited slot in a subclass; a cache field would add
more.  The check needs only the standard library and rldc, so it runs under
any supported interpreter, pytest or not:

    PYTHONPATH=src python tests/layout.py

prints one line per mismatch and exits 1 if there is any.
tests/test_set_system.py::test_row_types_add_only_their_own_slots runs the
same check, and tests/test_cli.py::test_layout_under_other_interpreters runs
this script under the other installed Pythons.
"""

import struct
import sys
from dataclasses import fields

from rldc.decoders import ExplicitViews
from rldc.set_system import SetSystem, WeightedSetSystem

POINTER = struct.calcsize("P")
EXPLICIT_FIELDS = ["universe_size", "sets", "masses", "total", "tables"]


def layout_errors() -> list[str]:
    """One line per departure from the expected layout: each row type is its
    parent plus one pointer per own field, and an ExplicitViews holds exactly
    EXPLICIT_FIELDS."""
    errors = []
    for cls, parent, own in ((WeightedSetSystem, SetSystem, 2), (ExplicitViews, WeightedSetSystem, 1)):
        want = parent.__basicsize__ + own * POINTER
        if cls.__basicsize__ != want:
            errors.append(f"{cls.__name__}.__basicsize__ is {cls.__basicsize__}, not {want}")
    names = [f.name for f in fields(ExplicitViews)]
    if names != EXPLICIT_FIELDS:
        errors.append(f"ExplicitViews fields are {names}, not {EXPLICIT_FIELDS}")
    return errors


if __name__ == "__main__":
    errors = layout_errors()
    print("\n".join(errors) or f"row-type layouts match under Python {sys.version.split()[0]}")
    sys.exit(1 if errors else 0)
