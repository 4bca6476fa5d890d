"""The CLI's outputs are those recorded in ``golden.json`` (see ``golden.py``)."""

import json

import numpy as np
import pytest

import golden

ACCURACY_TOL = 1e-9  # the fit's accuracies; every other value must be equal


def _moved(recorded: dict, now: dict) -> list[str]:
    """The fields of one case that moved: the fit's accuracies by more than
    ``ACCURACY_TOL``, any other field at all."""

    fields = sorted(recorded.keys() ^ now.keys())
    for key in sorted(recorded.keys() & now.keys()):
        a, b = recorded[key], now[key]
        if key == "accuracies" and a is not None and b is not None and len(a) == len(b):
            if any((x is None) != (y is None) or (x is not None and abs(x - y) > ACCURACY_TOL) for x, y in zip(a, b)):
                fields.append(key)
        elif a != b:
            fields.append(key)
    return fields


def test_outputs_are_the_golden_ones(tmp_path):
    recorded = json.loads(golden.GOLDEN.read_text())
    now = golden.outputs(tmp_path)
    assert sorted(now) == sorted(recorded["cases"])
    moved = {name: _moved(value, now[name]) for name, value in recorded["cases"].items()}
    moved = {name: fields for name, fields in moved.items() if fields}
    assert not moved, (
        f"{len(moved)} golden case(s) moved (recorded under numpy {recorded['numpy']}, now {np.__version__}), "
        f"case: fields: {moved}"
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("labels_sha256", "0" * 64),
        ("ties_broken", 1),
        ("accuracies", [0.5 + 2 * ACCURACY_TOL]),
        ("accuracies", [None]),
        ("accuracies", None),
    ],
)
def test_a_moved_field_is_named(field, value):
    recorded = {"labels_sha256": "f" * 64, "ties_broken": 0, "accuracies": [0.5]}
    assert _moved(recorded, dict(recorded, accuracies=[0.5 + ACCURACY_TOL / 2])) == []
    assert _moved(recorded, dict(recorded, **{field: value})) == [field]
