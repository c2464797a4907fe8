"""Command-line front end.

Commands:
  invariants --spec FILE --max-q Q [--format json|table]
  pq         --spec FILE --p P --q Q --plane i,j,... [--format json|table]
  decompose  --input FORM.json
  verify     --suite NAME [--n N] [--trials T] [--seed S] [--timings FILE]

Exit codes: 0 success, 1 identity failure, 2 usage or schema error, or
stdout refusing the output.  Output on stdout is byte-identical for
identical inputs; JSON goes out in chunks as it is made (see
serialize.dumps_canonical); timing goes to stderr.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import json
import os
import re
import sys
import time

from . import serialize, verify
from .core import DoubleFormError, IdentityError, cell_budget
from .curvature import (
    Frame,
    InvariantReport,
    SectionalSample,
    build_invariant_report,
    pq_sectional,
)
from .decomposition import decompose
from .serialize import SchemaError


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key given twice is refused, not overwritten."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load_json(path: str):
    try:
        with open(path, "rb") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise SchemaError(path, f"cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(path, f"malformed JSON: not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(path, "malformed JSON: nested too deeply") from exc
    except ValueError as exc:  # JSONDecodeError, a duplicate key, or an integer past int()'s digits
        raise SchemaError(path, f"malformed JSON: {exc}") from exc


def _read_tensor(path: str):
    """The curvature tensor of the model spec in a JSON file; see
    serialize.build_curvature_tensor for when R is made and certified."""
    return serialize.build_curvature_tensor(serialize.model_spec_from_dict(_load_json(path)))


class OutputError(Exception):
    """stdout refused the output: a full disk, a closed pipe."""


def _write_output(obj) -> None:
    """Write a table's text, or obj as canonical JSON in chunks, to stdout
    and flush it, so that a write stdout refuses fails here."""
    try:
        stream = _stdout_writer()
        if isinstance(obj, str):
            stream.write(obj)
        else:
            serialize.dumps_canonical(obj, stream)
        sys.stdout.flush()
    except OSError as exc:
        raise OutputError(f"cannot write output: {exc}") from exc


def _stdout_writer():
    """sys.stdout, or, where its binary layer is a raw stream (python -u,
    PYTHONUNBUFFERED), a _RawWriter over that stream: the text layer hands a
    raw stream each text once and drops what a short write leaves."""
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        return sys.stdout
    sys.stdout.flush()  # text written before goes first
    return _RawWriter(raw, sys.stdout.encoding, sys.stdout.errors)


class _RawWriter:
    """Writes each text's encoded bytes to a raw binary stream until the
    stream has taken every byte; a write that takes none raises OSError."""

    def __init__(self, raw, encoding: str, errors: str):
        self.raw, self.encoding, self.errors = raw, encoding, errors

    def write(self, text: str) -> None:
        view = memoryview(text.encode(self.encoding, self.errors))
        while view:
            taken = self.raw.write(view)
            if not taken:  # None: a non-blocking stream would block
                raise OSError(errno.EAGAIN, "stdout took none of the output")
            view = view[taken:]


def _write_report(report: InvariantReport, fmt: str) -> int:
    """Write a report to stdout as a table or as canonical JSON."""
    _write_output(serialize.report_to_table(report) if fmt == "table" else report)
    return 0


def _cmd_invariants(args) -> int:
    report = build_invariant_report(_read_tensor(args.spec), args.max_q)
    return _write_report(report, args.format)


_INTEGER_RE = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """An integer flag value: ASCII digits with an optional leading '-',
    matched in full (no sign '+', spaces, underscores or other digits)."""
    if not _INTEGER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    try:  # int() refuses more digits than the interpreter's conversion limit
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"number too long: {exc}") from exc


def _parse_plane(text: str) -> tuple[int, ...]:
    if not text:
        raise SchemaError("--plane", "needs at least one index")
    try:
        return tuple(map(_integer, text.split(",")))
    except argparse.ArgumentTypeError as exc:
        raise SchemaError("--plane", f"expected comma-separated integers, got {text!r}") from exc


def _cmd_pq(args) -> int:
    tensor = _read_tensor(args.spec)
    if args.p == 0 and args.plane:
        raise SchemaError("--plane", "s_(0,q) is a scalar and takes no plane")
    plane = _parse_plane(args.plane) if args.p > 0 else ()
    if args.p > 0 and len(plane) != args.p:
        raise SchemaError("--plane", f"expected {args.p} indices, got {len(plane)}")
    frame = Frame.coordinate(tensor.n, plane) if args.p > 0 else None
    value = pq_sectional(tensor, args.p, args.q, frame)
    report = InvariantReport(
        tensor.n, (), (SectionalSample(args.p, args.q, plane, value),), None
    )
    return _write_report(report, args.format)


def _cmd_decompose(args) -> int:
    form = serialize.form_from_dict(_load_json(args.input))
    result = decompose(form)
    if result.reconstruct() != form:
        raise IdentityError("decomposition failed to reconstruct its input")
    _write_output(result)
    return 0


def _cmd_verify(args) -> int:
    dims = [args.n] if args.n is not None else [4, 5]
    for n in dims:  # before opening --timings, which empties the file
        verify.check_arguments(args.suite, n, args.trials, args.seed)
    timings = None
    if args.timings is not None:  # opened before the run, so that a bad path fails at once
        try:
            timings = open(args.timings, "w", encoding="utf-8")
        except OSError as exc:
            raise SchemaError("--timings", f"cannot write file: {exc}") from exc
    started = time.perf_counter()
    outcomes = []
    try:
        for n in dims:
            outcomes.append(verify.run_verify(args.suite, n, args.trials, args.seed))
        elapsed = time.perf_counter() - started
    finally:  # a run refused midway leaves FILE with the runs that finished
        if timings is not None:
            try:
                with timings:
                    json.dump({"runs": [o.timings_dict() for o in outcomes]}, timings, indent=2)
                    timings.write("\n")
            except OSError as exc:
                raise SchemaError("--timings", f"cannot write file: {exc}") from exc
    if len(outcomes) == 1:
        payload = outcomes[0].to_dict()
    else:
        payload = {"runs": [o.to_dict() for o in outcomes]}
    _write_output(payload)
    print(f"verify: {sum(o.cases for o in outcomes)} cases in {elapsed:.2f}s", file=sys.stderr)
    return 0 if all(o.ok for o in outcomes) else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every main call."""
    parser = argparse.ArgumentParser(
        prog="doubleforms",
        description="Exact double-form algebra: curvature invariants and identity suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="h_{2q} and T_{2q} tables for a model")
    p_inv.add_argument("--spec", required=True, help="model spec JSON file")
    p_inv.add_argument("--max-q", type=_integer, required=True, dest="max_q")
    p_inv.add_argument("--format", choices=("json", "table"), default="json")
    p_inv.set_defaults(func=_cmd_invariants)

    p_pq = sub.add_parser("pq", help="s_{(p,q)} on a coordinate plane")
    p_pq.add_argument("--spec", required=True)
    p_pq.add_argument("--p", type=_integer, required=True)
    p_pq.add_argument("--q", type=_integer, required=True)
    p_pq.add_argument("--plane", default="", help="comma-separated indices, e.g. 0,1")
    p_pq.add_argument("--format", choices=("json", "table"), default="json")
    p_pq.set_defaults(func=_cmd_pq)

    p_dec = sub.add_parser("decompose", help="effective components of a (p,p)-form")
    p_dec.add_argument("--input", required=True, help="DoubleForm JSON file")
    p_dec.set_defaults(func=_cmd_decompose)

    p_ver = sub.add_parser("verify", help="run an identity suite")
    p_ver.add_argument("--suite", required=True)
    p_ver.add_argument("--n", type=_integer, default=None, help="dimension (default: 4 and 5)")
    p_ver.add_argument("--trials", type=_integer, default=50)
    p_ver.add_argument("--seed", type=_integer, default=0)
    p_ver.add_argument(
        "--timings", default=None, metavar="FILE",
        help="write each check's wall time and case count, per n, as JSON to FILE",
    )
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cell_budget()  # a bad DOUBLEFORMS_CELL_BUDGET is a usage error
        return args.func(args)
    except IdentityError as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, verify.UsageError, DoubleFormError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process's entry point (python -m doubleforms.cli, and the
    doubleforms script): main on sys.argv, then exit with its code.  Text
    that stdout refused may still be buffered, and the interpreter's flush
    at exit would report it again, so that flush goes to the null device.
    Only the process does this: main leaves an in-process caller's stdout
    where it is."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()
