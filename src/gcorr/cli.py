"""Command-line front end: validate / compose / verify / example / random.

Exit codes: 0 ok, 1 parse or validation failure (an unreadable input
file, an unwritable output file, a bad `--tol` or `--trials`), 2
composition failure, 3 theorem tolerance breach, or a
certificate that cannot run because a weight has no positive finite
float (one line on stderr naming it).  `--tol` must be a finite number
of at least 0; any other value is rejected before an input is read.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import catalog, cstar, io_json
from .composition import CompositionStageError, GroupoidMismatch, compose
from .correspondence import validate
from .randgen import random_pair
from .report import DEFAULT_TOL, Report
from .util import GcorrError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPOSITION = 2
EXIT_THEOREM = 3


def _emit(report: Report, as_json: bool) -> None:
    if as_json:
        print(io_json.canonical_json(report.to_json()))
    else:
        print(report.render())


def _read_text(path: str) -> str:
    """The UTF-8 text of `path`; a file that cannot be read or decoded is
    a ParseError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise io_json.ParseError(path, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except OSError as exc:
        raise io_json.ParseError(path, exc.strerror or str(exc)) from exc


def _write_text(path: str, text: str) -> bool:
    """Write `text` to `path`; False after naming the path on stderr."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        print(f"write error: {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _load(path: str) -> io_json.InstanceData:
    """The instance in `path`, which must hold a correspondence."""
    data = io_json.parse_instance(_read_text(path), source=path)
    if not data.correspondences:
        raise io_json.ParseError(path, "instance files must contain a correspondence")
    return data


def _load_pair(path_x: str, path_y: str):
    return _load(path_x).correspondences[0][1], _load(path_y).correspondences[0][1]


def cmd_validate(args) -> int:
    try:
        data = _load(args.path)
    except io_json.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    overall = Report(f"validate {args.path}")
    for name, corr in data.correspondences:
        rep = validate(corr, tol=args.tol)
        for chk in rep.checks:
            overall.add(f"{name}.{chk.name}", chk.passed, chk.residual, chk.witness)
        for note in ("scalar_mode", "properness_max_fibre"):
            overall.notes[f"{name}.{note}"] = rep.notes[note]
    _emit(overall, args.json)
    return EXIT_OK if overall.passed else EXIT_VALIDATION


def _read_cochain(path: str, point_ids) -> tuple:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise io_json.ParseError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    if not isinstance(doc, dict):
        raise io_json.ParseError(path, "expected a JSON object {point-id: weight}")
    weights = io_json.positive_weights(doc, point_ids, path, "cochain file misses point {!r}")
    io_json.known_keys(doc, set(point_ids), path, "not a point of the middle space Z")
    return weights


def _load_valid_pair(path_x: str, path_y: str, tol: float = DEFAULT_TOL):
    """Parse both inputs and validate them at `tol`; None after reporting
    the first problem on stderr."""
    try:
        corr_x, corr_y = _load_pair(path_x, path_y)
    except io_json.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None
    for name, corr in (("first", corr_x), ("second", corr_y)):
        rep = validate(corr, tol=tol)
        if not rep.passed:
            print(f"{name} input fails validation:\n{rep.render()}", file=sys.stderr)
            return None
    return corr_x, corr_y


def cmd_compose(args) -> int:
    pair = _load_valid_pair(args.path_x, args.path_y, args.tol)
    if pair is None:
        return EXIT_VALIDATION
    corr_x, corr_y = pair
    b_values = None
    try:
        if args.cochain_file:
            # probe the middle space once so the override can be indexed
            from .groupoids import fibre_product

            fp = fibre_product(corr_x.space.right, corr_y.space.left)
            b_values = _read_cochain(args.cochain_file, fp.point_ids)
        result = compose(corr_x, corr_y, b_values=b_values, tol=args.tol)
    except io_json.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GroupoidMismatch, CompositionStageError, GcorrError) as exc:
        stage = getattr(exc, "stage", "input")
        print(f"composition failed at {stage}: {exc}", file=sys.stderr)
        return EXIT_COMPOSITION
    if not _write_text(args.out, io_json.serialize_instance([("composite", result.composite)])):
        return EXIT_VALIDATION
    _emit(result.report, args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 0:
        print(f"bad --trials {args.trials}; expected a count of at least 0", file=sys.stderr)
        return EXIT_VALIDATION
    # inputs and the composition precondition run at the composition's own
    # stage tolerance; --tol governs the theorem deviations below
    pair = _load_valid_pair(args.path_x, args.path_y)
    if pair is None:
        return EXIT_VALIDATION
    corr_x, corr_y = pair
    try:
        result = compose(corr_x, corr_y)
    except (GroupoidMismatch, CompositionStageError) as exc:
        stage = getattr(exc, "stage", "input")
        print(f"composition failed at {stage}: {exc}", file=sys.stderr)
        return EXIT_COMPOSITION
    try:
        gram = cstar.verify_theorem(
            corr_x, corr_y, result,
            trials=args.trials, seed=args.seed, tol=args.tol,
        )
    except GcorrError as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EXIT_THEOREM
    _emit(gram.report(), args.json)
    return EXIT_OK if gram.passed else EXIT_THEOREM


def cmd_example(args) -> int:
    try:
        corr_x, corr_y, meta = catalog.example_pair(args.name)
    except GcorrError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    if not _write_pair(args.out, corr_x, corr_y):
        return EXIT_VALIDATION
    print(f"{args.name}: {meta['description']}")
    print(f"wrote {args.out}.x.json and {args.out}.y.json")
    return EXIT_OK


def cmd_random(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        sizes = []
    if not 1 <= len(sizes) <= 3 or min(sizes) < 1:
        print(f"bad --sizes {args.sizes!r}; expected up to three sizes of at least 1, e.g. 16,16,8", file=sys.stderr)
        return EXIT_VALIDATION
    max_x, max_y, max_mid = sizes + [16, 16, 8][len(sizes):]
    corr_x, corr_y = random_pair(args.seed, max_x=max_x, max_y=max_y, max_mid=max_mid)
    if not _write_pair(args.out, corr_x, corr_y):
        return EXIT_VALIDATION
    print(f"wrote {args.out}.x.json and {args.out}.y.json (seed {args.seed})")
    return EXIT_OK


def _write_pair(prefix: str, corr_x, corr_y) -> bool:
    return _write_text(f"{prefix}.x.json", io_json.serialize_instance([("x", corr_x)])) and _write_text(
        f"{prefix}.y.json", io_json.serialize_instance([("y", corr_y)])
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each `parse_args` call
    returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="gcorr",
        description="validate, compose and certify finite groupoid correspondences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="numerical tolerance, finite and at least 0")
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("validate", help="check one instance file")
    p.add_argument("path")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("compose", help="compose two instances and write the composite")
    p.add_argument("path_x")
    p.add_argument("path_y")
    p.add_argument("out")
    p.add_argument("--cochain-file", default=None, help="JSON {point: weight} overriding the middle cochain")
    common(p)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("verify", help="compose and certify the Hilbert-module isometry")
    p.add_argument("path_x")
    p.add_argument("path_y")
    p.add_argument("--trials", type=int, default=200, help="random vectors per instance")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("example", help="emit a catalog pair as instance files")
    p.add_argument("name", choices=list(catalog.EXAMPLE_NAMES))
    p.add_argument("out", help="output path prefix")
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("random", help="emit a seeded random pair as instance files")
    p.add_argument("out", help="output path prefix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", default="16,16,8", help="max points X, max points Y, max middle arrows; missing ones default to 16,16,8")
    p.set_defaults(fn=cmd_random)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tol = getattr(args, "tol", 0.0)
    if not 0.0 <= tol < math.inf:
        print(f"bad --tol {tol}; expected a finite tolerance of at least 0", file=sys.stderr)
        return EXIT_VALIDATION
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
