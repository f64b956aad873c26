"""The package's campaign reports and catalog verification records match
the committed golden outputs of ``tests/golden/verify.json``.

Integers and flags must match exactly.  Floats must match bitwise where
the numpy version and the machine are those that wrote the file; numpy's
SIMD ``sin`` and ``exp`` may round differently elsewhere, so there they
must match within ``CROSS_CHECK_MARGIN_TOL``.  A change that moves an
output on purpose regenerates the file with ``tests/golden/make_golden.py``.
"""

import importlib.util
import json
import pathlib
import platform

import numpy as np

from gateqsl.harness import CROSS_CHECK_MARGIN_TOL

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def mismatches(got: dict, golden: dict, bitwise: bool) -> list[str]:
    """Where the outputs ``got`` differ from the decoded golden file."""
    found = []
    for key, records in got.items():
        want_records = golden[key]
        if len(records) != len(want_records):
            return [f"{key}: {len(records)} records, the file holds {len(want_records)}"]
        for i, (mine, want) in enumerate(zip(records, want_records)):
            if mine.keys() != want.keys():
                found.append(f"{key}[{i}]: fields {sorted(mine)} != {sorted(want)}")
                continue
            for field, value in mine.items():
                stored = want[field]
                if isinstance(value, float):
                    same = (value.hex() == stored if bitwise
                            else abs(value - float.fromhex(stored)) <= CROSS_CHECK_MARGIN_TOL)
                else:
                    # a report's dims tuple reads back as a list
                    same = json.loads(json.dumps(value)) == stored
                if not same:
                    found.append(f"{key}[{i}].{field}: {value!r} != {stored!r}")
    return found


def test_outputs_match_the_golden_file():
    golden = json.loads((GOLDEN / "verify.json").read_text(encoding="utf-8"))
    bitwise = (golden["numpy"], golden["machine"]) == (np.__version__, platform.machine())
    got = make_golden.outputs()
    assert got.keys() == golden.keys() - {"numpy", "machine"}
    assert mismatches(got, golden, bitwise) == []


def test_last_bit_of_a_margin_is_caught():
    golden = json.loads((GOLDEN / "verify.json").read_text(encoding="utf-8"))
    record = golden["verify"][0]
    value = float.fromhex(record["worst_margin"])
    flipped = np.nextafter(value, np.inf).item()
    got = {"verify": [{**record, "worst_margin": flipped}]}
    assert mismatches(got, {"verify": [record]}, bitwise=True) == [
        f"verify[0].worst_margin: {flipped!r} != {record['worst_margin']!r}"]
    assert mismatches(got, {"verify": [record]}, bitwise=False) == []
