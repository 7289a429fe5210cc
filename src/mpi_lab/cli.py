"""Command-line front end: load operators, run check suites, emit reports.

Operators travel as single-file JSON:
{"dims": [n, n], "flavors": ["H", "H"], "matrix": [[[re, im], ...], ...]}
row-major, first leg most significant, 0-based.  Exit codes: 0 all
executed checks pass, 1 some check failed, 2 input error.  --tol, by
default RESIDUAL_TOL, must be finite and > 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import corpus as cp
from .report import reports_to_json
from .runner import LEVELS, corpus_suite, run_suite
from .tensor import Operator, RESIDUAL_TOL, space

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    pass


def _read_json(path: str, kind: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {kind}{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {kind}{path}: {exc}") from exc


def load_operator(path: str) -> Operator:
    """Parse and validate an operator file."""
    return operator_from_dict(_read_json(path, ""), origin=path)


def operator_from_dict(data: dict, origin: str = "<data>") -> Operator:
    if not isinstance(data, dict):
        raise InputError(f"{origin}: expected a JSON object")
    for key in ("dims", "flavors", "matrix"):
        if key not in data:
            raise InputError(f"{origin}: missing key {key!r}")
    dims = data["dims"]
    flavors = data["flavors"]
    if (
        not isinstance(dims, list)
        or not all(type(d) is int and d >= 1 for d in dims)  # bool is an int
        or not isinstance(flavors, list)
        or not all(isinstance(f, str) for f in flavors)
        or len(dims) != len(flavors)
    ):
        raise InputError(f"{origin}: dims/flavors malformed")
    total = 1
    for d in dims:
        total *= d
    rows = data["matrix"]
    if not isinstance(rows, list) or len(rows) != total:
        raise InputError(
            f"{origin}: matrix must have {total} rows, found {len(rows) if isinstance(rows, list) else 'none'}"
        )
    out = np.empty((total, total), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != total:
            raise InputError(f"{origin}: row {i} must have {total} entries")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(type(x) in (int, float) for x in cell)  # bool is an int
            ):
                raise InputError(f"{origin}: entry [{i}][{j}] must be [re, im]")
            try:
                out[i, j] = complex(cell[0], cell[1])
            except OverflowError as exc:  # an integer beyond float range
                raise InputError(f"{origin}: entry [{i}][{j}] is out of float range") from exc
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise InputError(f"{origin}: non-finite entries")
    try:
        sp = space(*dims, flavors=flavors)
        return Operator(sp, out)
    except ValueError as exc:
        raise InputError(f"{origin}: {exc}") from exc


def operator_to_dict(op: Operator) -> dict:
    return {
        "dims": [leg.dim for leg in op.space.legs],
        "flavors": [leg.flavor for leg in op.space.legs],
        "matrix": [
            [[float(z.real), float(z.imag)] for z in row] for row in op.matrix
        ],
    }


def save_operator(op: Operator, path: str) -> None:
    _write(path, json.dumps(operator_to_dict(op)))


def _write(path: str, text: str) -> None:
    """text, ending in a newline, to the file path; an unwritable path is
    an input error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def load_groupoid_spec(path: str) -> cp.GroupoidSpec:
    """Groupoid JSON: units, arrows [[id, source, target], ...],
    compose [[g, h, gh], ...], inverse {g: g^{-1}}."""
    data = _read_json(path, "groupoid spec ")
    try:
        compose = {(g, h): gh for g, h, gh in data["compose"]}
        return cp.GroupoidSpec(
            tuple(data["units"]),
            tuple(tuple(a) for a in data["arrows"]),
            compose,
            dict(data["inverse"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid groupoid spec {path}: {exc}") from exc


def load_group_table(path: str) -> list[list[int]]:
    data = _read_json(path, "group table ")
    if not isinstance(data, list) or not all(
        isinstance(row, list) and all(type(g) is int for g in row) for row in data
    ):
        raise InputError(f"{path}: expected a list of rows of integers")
    return data


def _tol(args) -> float:
    """--tol, which must be finite and > 0."""
    if not 0.0 < args.tol < math.inf:
        raise InputError(f"--tol must be finite and > 0, got {args.tol!r}")
    return args.tol


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        _write(out_path, text)
    else:
        print(text)


def cmd_check(args) -> int:
    w = load_operator(args.operator)
    q = load_operator(args.q) if args.q else None
    rep = run_suite(
        w, q=q, level=args.level, tol=_tol(args), fixture_id=os.path.basename(args.operator)
    )
    if args.report == "json":
        _emit(rep.to_json(include_timings=args.timings), args.out)
    else:
        _emit(rep.to_text(), args.out)
    return EXIT_OK if rep.overall_pass else EXIT_CHECK_FAILED


def cmd_gen(args) -> int:
    if args.kind == "example":
        op = cp.matrix_unit_example()
    elif args.kind == "group":
        if not args.table:
            raise InputError("gen group requires --table")
        op = cp.group_mpu(load_group_table(args.table))
    elif args.kind == "groupoid":
        if not args.spec:
            raise InputError("gen groupoid requires --spec")
        op = cp.groupoid_mpi(load_groupoid_spec(args.spec))
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown generator {args.kind!r}")
    save_operator(op, args.out)
    return EXIT_OK


def cmd_suite(args) -> int:
    if not args.corpus:
        raise InputError("suite requires --corpus")
    reports = corpus_suite(tol=_tol(args), seed=args.seed)
    if args.report == "json":
        _emit(reports_to_json(reports, include_timings=args.timings), args.out)
    else:
        text = "\n\n".join(r.to_text() for r in reports)
        passed = sum(1 for r in reports if r.overall_pass)
        text += f"\n\nsuite: {passed}/{len(reports)} fixtures pass"
        _emit(text, args.out)
    return EXIT_OK if all(r.overall_pass for r in reports) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpi-lab",
        description="Check multiplicative partial isometries and their derived structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the check suite on an operator file")
    p_check.add_argument("operator", help="operator JSON file")
    p_check.add_argument("--q", help="positive operator JSON file for manageability")
    p_check.add_argument("--level", default="all", choices=[*LEVELS, "all"])
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a fixture operator file")
    p_gen.add_argument("kind", choices=["example", "group", "groupoid"])
    p_gen.add_argument("--table", help="group multiplication table JSON (for group)")
    p_gen.add_argument("--spec", help="groupoid spec JSON (for groupoid)")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_suite = sub.add_parser("suite", help="run the built-in corpus")
    p_suite.add_argument("--corpus", action="store_true")
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.set_defaults(func=cmd_suite)
    for p in (p_check, p_suite):
        p.add_argument("--tol", type=float, default=RESIDUAL_TOL)
        p.add_argument("--report", default="text", choices=["json", "text"])
        p.add_argument("--out", default=None)
        p.add_argument("--timings", action="store_true", help="add each level's wall time to JSON")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
