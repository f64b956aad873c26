"""Write ``verify.json``: campaign reports and catalog verification records
that ``tests/test_golden.py`` compares the package against.

Run from the repository root as ``PYTHONPATH=src python
tests/golden/make_golden.py``, with ``OPENBLAS_NUM_THREADS=1``.  Floats
are stored as ``float.hex``, so a comparison can be exact; the file also
records the numpy version and the machine it was made on, since other
numpy builds or CPUs may round ``sin`` and ``exp`` differently.  A change
that moves an output on purpose regenerates the file in the same commit.
"""

from __future__ import annotations

import json
import math
import pathlib
import platform

import numpy as np

from gateqsl.catalog import (MubFamily, QubitParams, QutritMubParams, fourier, grover,
                             hadamard_power, permutation, qubit_unitary, qutrit_mub)
from gateqsl.harness import QUTRIT_X, run_random_campaign
from gateqsl.minimal_time import verify_dominance

PATH = pathlib.Path(__file__).with_name("verify.json")

# (dims, samples per dimension, seeds) of each campaign shape
CAMPAIGNS = (
    (tuple(range(3, 9)), 3, range(50)),
    (tuple(range(2, 9)), 200, range(10)),
    (tuple(range(2, 9)) + (16, 32, 64), 200, range(5)),
    ((8, 3, 128, 64, 127), 1, range(10)),
)


def catalog_gates():
    """(name, matrix) of the catalog gates up to n = 64."""
    for n in range(1, 65):
        yield f"fourier({n})", fourier(n)
    for n in range(2, 65):
        for target in sorted({0, n // 2}):
            yield f"grover({n}, {target})", grover(n, target)
        shift = [(j + 1) % n for j in range(n)]
        yield f"permutation(shift {n})", permutation(shift)
        yield f"permutation(reverse {n})", permutation(range(n)[::-1])
    for q in range(1, 7):
        yield f"hadamard_power({q})", hadamard_power(q)
    angles = (0.0, 0.3, math.pi / 4.0, 1.0, math.pi / 2.0)
    for alpha in angles:
        for theta in angles:
            p = QubitParams(0.7, alpha, 0.2, theta)
            yield f"qubit_unitary({alpha!r}, {theta!r})", qubit_unitary(p)
    for family in MubFamily:
        for x in QUTRIT_X:
            for y in QUTRIT_X:
                p = QutritMubParams(family, x, y)
                yield f"qutrit_mub({family.name}, {x!r}, {y!r})", qutrit_mub(p)


def outputs() -> dict:
    """The compared outputs: lists of records of plain Python values."""
    verify = [run_random_campaign(dims, samples, seed).as_json_dict()
              for dims, samples, seeds in CAMPAIGNS for seed in seeds]
    dominance = [{"gate": name, **vars(verify_dominance(u))} for name, u in catalog_gates()]
    return {"verify": verify, "verify_dominance": dominance}


def encode(record: dict) -> str:
    """One record as a line of JSON, its floats as ``float.hex``."""
    return json.dumps({key: float.hex(value) if isinstance(value, float) else value
                       for key, value in record.items()})


def main() -> None:
    head = {"numpy": np.__version__, "machine": platform.machine()}
    # one record a line; a report's dims tuple goes out as a list
    parts = [json.dumps(head)[:-1]] + [
        f', "{key}": [\n' + ",\n".join(map(encode, records)) + "\n]"
        for key, records in outputs().items()]
    PATH.write_text("".join(parts) + "}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
