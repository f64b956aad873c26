"""Command-line front end.

Subcommands:

* ``bounds``  - print the five trace bounds for a named or file-supplied gate
* ``verify``  - run a randomized dominance campaign, emit a JSON report
* ``figure``  - emit CSV curve data for the qubit/qutrit figures
* ``catalog`` - list the named gate families and their closed-form traces

The ``verify`` seed defaults to 12345, overridable by the QSL_SEED
environment variable; an explicit ``--seed`` flag always wins.  Numbers
are printed with 12 significant digits.

Exit codes: 0 success, 1 a bound was broken, 2 bad input or unwritable
output (stdout, help included, or ``-o``), 3 a file-supplied matrix is not
unitary, 4 a campaign's internal cross-check failed; :func:`main` returns
the code for every outcome, usage errors and ``--help`` included.  A
command that exits nonzero prints one ``error:`` or ``FAILED:`` line on
stderr; only argparse's own usage errors print a usage line before theirs.
Gate dimensions from ``--dims``, a matrix file's ``"n"``, ``--fourier``,
``--grover`` and ``--permutation`` are capped at ``MAX_DIM``;
``figure --resolution`` runs from 1 to ``MAX_RESOLUTION``.  ``--target``
needs ``--grover``.  ``verify`` otherwise takes the input rules of the
campaign it runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import NoReturn

import numpy as np

from . import bounds, catalog, harness
from .linalg import square_matrix, trace_deficit, unitarity_error
from .spectrum import _sorted_levels, level_stats

DEFAULT_SEED = 12345

FILE_UNITARY_TOL = 1e-6

# Largest gate dimension accepted from --dims, a matrix file or a named
# gate: that of the largest Hadamard power.
MAX_DIM = catalog._MAX_HADAMARD_DIM

# Largest ``figure --resolution``: grid intervals per block of rows.
MAX_RESOLUTION = 10**5

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_UNITARY = 3
EXIT_CROSS_CHECK = 4


# One printed number: 12 significant digits.
_NUMBER = "{:.12g}"


def _fmt(x: float) -> str:
    return _NUMBER.format(x)


def _end(code: int, message: str) -> NoReturn:
    """End the command with exit ``code`` and ``message`` as its one stderr line."""
    _parser().exit(code, message + "\n")


def _write(path, what: str, lines) -> None:
    """Write the strings ``lines`` to the file ``path``, or to stdout (flushed) when
    ``path`` is None; a closed stdout or any OSError ends the command with exit 2."""
    try:
        if path is not None:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.writelines(lines)
        elif sys.stdout is None:
            raise OSError("stdout is closed")
        else:
            sys.stdout.writelines(lines)
            sys.stdout.flush()
    except OSError as exc:
        if path is None and sys.stdout is not None:
            # Point fd 1 at devnull: the bytes a failed flush leaves in stdout's
            # buffer are flushed again at exit, and must not fail a second time.
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        _end(EXIT_BAD_INPUT, f"error: cannot write {what}: {exc}")


def _ints_csv(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _floats_csv(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")


def _qubit_params(text: str) -> catalog.QubitParams:
    vals = _floats_csv(text)
    if len(vals) != 4:
        raise argparse.ArgumentTypeError("expected phi,alpha,beta,theta")
    try:
        return catalog.QubitParams(*vals)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


_FAMILY_NAMES = {"1": catalog.MubFamily.ONE, "one": catalog.MubFamily.ONE,
                 "u1": catalog.MubFamily.ONE, "2": catalog.MubFamily.TWO,
                 "two": catalog.MubFamily.TWO, "u2": catalog.MubFamily.TWO}


def _qutrit_params(text: str) -> catalog.QutritMubParams:
    parts = text.split(",")
    if len(parts) != 3 or parts[0].strip().lower() not in _FAMILY_NAMES:
        raise argparse.ArgumentTypeError("expected family,x,y with family one of 1/2/one/two")
    try:
        x, y = float(parts[1]), float(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad qutrit angles in {text!r}")
    try:
        return catalog.QutritMubParams(_FAMILY_NAMES[parts[0].strip().lower()], x, y)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def load_matrix_file(path: str) -> np.ndarray:
    """Read the JSON matrix format {"n": int, "re": [[...]], "im": [[...]]}."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f'"n" must be an integer, got {n!r}')
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f'"n" = {n} is outside [1, {MAX_DIM}]')
    re, im = np.asarray(data["re"]), np.asarray(data["im"])
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"re/im must both be {n}x{n} arrays")
    # strings, booleans and nulls make arrays of other kinds, but numpy
    # reads booleans mixed with numbers as numbers: look at the values too
    entries = itertools.chain.from_iterable(data["re"] + data["im"])
    if (re.dtype.kind not in "iuf" or im.dtype.kind not in "iuf"
            or not {bool}.isdisjoint(map(type, entries))):
        raise ValueError("re/im entries must be JSON numbers")
    return square_matrix(re + 1j * im)


def _parse_spectrum(text: str) -> np.ndarray:
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            levels = [float(line) for line in fh if line.strip()]
    else:
        levels = [float(part) for part in text.split(",")]
    return _sorted_levels(levels)


def _capped(n: int) -> int:
    """``n``, checked against ``MAX_DIM`` before an n-by-n gate is built."""
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} is above {MAX_DIM}")
    return n


def _build_gate(args) -> np.ndarray:
    if args.file is not None:
        return load_matrix_file(args.file)
    if args.fourier is not None:
        return catalog.fourier(_capped(args.fourier))
    if args.grover is not None:
        return catalog.grover(_capped(args.grover), 0 if args.target is None else args.target)
    if args.permutation is not None:
        _capped(len(args.permutation))
        return catalog.permutation(args.permutation)
    if args.hadamard_power is not None:
        return catalog.hadamard_power(args.hadamard_power)
    if args.qubit is not None:
        return catalog.qubit_unitary(args.qubit)
    return catalog.qutrit_mub(args.qutrit_mub)


# Units of the rows ``bounds`` prints: times with --spectrum, else products in
# units of one over each bound's statistic, found by bounds.STATISTIC_INDEX.
_TIME_UNITS = ("[time]",) * len(bounds.BOUND_NAMES) + ("[time, max(ml, mt)]",)
_PRODUCT_UNITS = tuple("[units 1/%s]" % ("E", "dE", "width", "(Emax-mean)")[i]
                       for i in bounds.STATISTIC_INDEX) + ("[max(ml, mt) at E = dE = 1]",)


def _gate_products(u):
    """n, |tr U| and the ML and MT products that ``bounds`` prints for ``u``."""
    n = u.shape[0]
    tr, deficit = trace_deficit(u)
    # A file matrix is unitary only to FILE_UNITARY_TOL, so its trace can
    # overshoot n by more than rounding does; r is taken at most 1.
    tr = min(tr, float(n))
    return n, tr, bounds.ml_product(tr / n), bounds.mt_from_deficit(deficit)


def cmd_bounds(args) -> int:
    if args.target is not None and args.grover is None:
        _end(EXIT_BAD_INPUT, "error: --target is taken only with --grover")
    try:
        u = _build_gate(args)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        _end(EXIT_BAD_INPUT, f"error: cannot build gate: {exc}")
    if args.file is not None and not unitarity_error(u) <= FILE_UNITARY_TOL:
        _end(EXIT_NOT_UNITARY,
              f"error: matrix in {args.file} is not unitary to {FILE_UNITARY_TOL:g}")

    n, tr, ml, mt = _gate_products(u)
    spectrum = None
    if args.spectrum is not None:
        try:
            spectrum = _parse_spectrum(args.spectrum)
        except (OSError, ValueError) as exc:
            _end(EXIT_BAD_INPUT, f"error: bad spectrum: {exc}")
        if spectrum.size != n:
            _end(EXIT_BAD_INPUT,
                  f"error: spectrum has {spectrum.size} levels, gate has dimension {n}")
    try:
        stats = None if spectrum is None else level_stats(spectrum)
        bs = bounds.bounds_from_products(ml, mt, stats)
    except ValueError as exc:
        _end(EXIT_BAD_INPUT, f"error: {exc}")
    values = [*bs, bs[:2].max()]
    units = _PRODUCT_UNITS if spectrum is None else _TIME_UNITS
    lines = [f"n          {n}\n", f"|tr U|     {_fmt(tr)}\n", f"r=|trU|/n  {_fmt(tr / n)}\n"]
    lines += [f"{name:<11}{_fmt(value)}  {unit}\n"
              for name, value, unit in zip(bounds.BOUND_NAMES + ("combined",), values, units)]
    _write(None, "bounds", lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed is None:
        raw = os.environ.get("QSL_SEED", "")
        try:
            args.seed = int(raw) if raw else DEFAULT_SEED
        except ValueError:
            _end(EXIT_BAD_INPUT, f"error: QSL_SEED is not an integer: {raw!r}")
    if max(args.dims) > MAX_DIM:
        _end(EXIT_BAD_INPUT, f"error: --dims entries must be at most {MAX_DIM}")
    try:
        report = harness.run_random_campaign(args.dims, args.samples, args.seed)
    except harness.CampaignInputError as exc:
        _end(EXIT_BAD_INPUT, f"error: {exc}")
    except harness.CrossCheckError as exc:
        _end(EXIT_CROSS_CHECK, f"error: internal cross-check failed: {exc}")
    payload = json.dumps(report.as_json_dict(), indent=2, sort_keys=True) + "\n"
    _write(args.out, "report", [payload])
    if report.failures:
        _end(EXIT_FAILED_CHECK,
              f"FAILED: {report.failures} of {report.samples} samples broke a bound")
    return EXIT_OK


_FIGURES = {
    "qubit": harness.figure_qubit,
    "qubit-mub": harness.figure_qubit_mub,
    "qutrit-u1": functools.partial(harness.figure_qutrit, catalog.MubFamily.ONE),
    "qutrit-u2": functools.partial(harness.figure_qutrit, catalog.MubFamily.TWO),
}


def cmd_figure(args) -> int:
    if args.resolution < 1:
        _end(EXIT_BAD_INPUT, "error: --resolution must be at least 1")
    if args.resolution > MAX_RESOLUTION:
        _end(EXIT_BAD_INPUT, f"error: --resolution must be at most {MAX_RESOLUTION}")
    try:
        points = _FIGURES[args.name](args.resolution + 1)
    except harness._FigureCheckError as exc:
        _end(EXIT_FAILED_CHECK, f"FAILED: {exc}")
    # CSV rows with CRLF endings, as the csv module writes them; a figure
    # with no mt column leaves that cell empty
    row = ",".join([_NUMBER] * points.shape[1] + [""] * (4 - points.shape[1])) + "\r\n"
    rows = [row.format(*p) for p in points.tolist()]
    _write(args.out, "figure data", ["abscissa,exact,ml,mt\r\n"] + rows)
    return EXIT_OK


def cmd_catalog(_args) -> int:
    rows = [
        ("fourier N", "|tr| = sqrt(2), 1, 0, 1 for N = 0,1,2,3 (mod 4)"),
        ("grover N [target]", "|tr| = N - 4 + 4/N   (N >= 2, target-independent)"),
        ("permutation P", "|tr| = number of fixed points of P"),
        ("hadamard-power q", "dimension 2^q, |tr| = 0"),
        ("qubit phi,alpha,beta,theta", "|tr| = 2 |cos(theta) cos(alpha)|"),
        ("qutrit-mub 1,x,y", "|tr| = |1 + w~ (e^{ix} + e^{iy})| / sqrt(3), w = e^{2 pi i/3}"),
        ("qutrit-mub 2,x,y", "|tr| = |1 + w (e^{ix} + e^{iy})| / sqrt(3)"),
    ]
    width = max(len(name) for name, _ in rows)
    lines = [f"{name:<{width}}  {trace}\n" for name, trace in rows]
    lines.append("\nMUB trace cap: |tr U| <= sqrt(N) for any basis-to-MUB gate\n")
    _write(None, "catalog", lines)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help, and that of its subcommands, goes to
    stdout through :func:`_write`."""

    def print_help(self, file=None):
        if file is not None:
            super().print_help(file)
        else:
            _write(None, "help", [self.format_help()])


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves it unchanged."""
    parser = _Parser(
        prog="gateqsl",
        description="Trace-based quantum speed-limit bounds for unitary gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="print the bounds for one gate")
    source = p_bounds.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="JSON matrix file {n, re, im}")
    source.add_argument("--fourier", type=int, metavar="N")
    source.add_argument("--grover", type=int, metavar="N")
    source.add_argument("--permutation", type=_ints_csv, metavar="P0,P1,...")
    source.add_argument("--hadamard-power", type=int, metavar="Q")
    source.add_argument("--qubit", type=_qubit_params, metavar="PHI,ALPHA,BETA,THETA")
    source.add_argument("--qutrit-mub", type=_qutrit_params, metavar="FAMILY,X,Y")
    p_bounds.add_argument("--target", type=int, default=None,
                          help="Grover target state (default 0)")
    p_bounds.add_argument("--spectrum", metavar="E0,E1,... | @FILE",
                          help="energy levels; when given, bounds are absolute times")
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="run a randomized dominance campaign")
    p_verify.add_argument("--dims", type=_ints_csv, default=tuple(range(2, 9)),
                          metavar="D0,D1,...")
    p_verify.add_argument("--samples", type=int, default=200,
                          help="samples per dimension (default 200)")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("-o", "--out", help="report path (default: stdout)")
    p_verify.set_defaults(func=cmd_verify)

    p_figure = sub.add_parser("figure", help="emit CSV curve data")
    p_figure.add_argument("name", choices=sorted(_FIGURES))
    p_figure.add_argument("-o", "--out", help="CSV path (default: stdout)")
    p_figure.add_argument("-r", "--resolution", type=int, default=200,
                          help="grid intervals; output has resolution+1 rows per block")
    p_figure.set_defaults(func=cmd_figure)

    p_catalog = sub.add_parser("catalog", help="list named gates and traces")
    p_catalog.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code, for every outcome: an
    argparse usage error returns 2 after a usage line, ``--help`` returns 0."""
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse and _end are the only sources of SystemExit
        return exc.code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
