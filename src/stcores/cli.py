"""Command-line surface: enumerate, table, verify, bijection, render.

Exit codes: 0 success / verification passed, 1 usage error, 2 the request
names a mathematically infinite family, 3 verification failed.

Output goes to stdout (or a --out file) in one of three formats: text
(human readable), json (stable schema, counts string-encoded so consumers
never overflow), csv (byte-stable; used for table golden files).
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd
from typing import Optional

from .bijection import inverse_lambda_d, inverse_lambda_o, is_composition, lambda_d, lambda_o
from .claims import CLAIMS, ClaimCase, VerificationReport, run_claim
from .partition import Partition, hook_length, perimeter
from .search import (
    FILTERS,
    EnumerationResult,
    InfiniteFamilyError,
    enumerate_core,
    enumerate_core_bounded,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFINITE = 2
EXIT_VERIFY_FAILED = 3

TABLE_CAP = 12
INF_CSV = "inf"
INF_TEXT = "∞"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors with exit code 1 instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Parse '3,2,1', '(3,2,1)' or '{3,2,1}' into a tuple of ints."""
    stripped = text.strip()
    if stripped[:1] + stripped[-1:] in ("()", "{}", "[]"):
        stripped = stripped[1:-1].strip()
    if not stripped:
        return ()
    try:
        return tuple(int(tok) for tok in stripped.replace(" ", "").split(","))
    except ValueError:
        raise ValueError(f"cannot parse {text!r} as a comma-separated integer list") from None


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


# ---------------------------------------------------------------- enumerate

def _enumeration_payload(result: EnumerationResult, bound: Optional[int]) -> dict:
    payload = {
        "s": result.s,
        "t": result.t,
        "filter": result.filter,
        "count": str(result.count),
        "max_size": result.max_size,
        "witnesses": [list(lam.parts) for lam in result.max_size_witnesses],
        "partitions": [list(lam.parts) for lam in result.partitions],
    }
    if bound is not None:
        payload["partial"] = True
        payload["bound"] = bound
    return payload


def _render_enumeration(result: EnumerationResult, fmt: str, bound: Optional[int]) -> str:
    if fmt == "json":
        return _json_dump(_enumeration_payload(result, bound))
    if fmt == "csv":
        lines = ["size,parts"]
        lines += [f"{lam.size},{' '.join(str(p) for p in lam.parts)}" for lam in result.partitions]
        return "\n".join(lines) + "\n"
    header = f"({result.s},{result.t})-core partitions, filter {result.filter}"
    if bound is not None:
        header += f" [partial: sizes <= {bound} only]"
    lines = [
        header,
        f"count: {result.count}",
        f"max size: {result.max_size}",
        "max-size witnesses: " + " ".join(str(lam) for lam in result.max_size_witnesses),
        "partitions:",
    ]
    lines += [f"  {lam}" for lam in result.partitions]
    return "\n".join(lines) + "\n"


def _cmd_enumerate(args) -> int:
    if args.s < 1 or args.t < 1:
        return _fail("--s and --t must be positive integers")
    try:
        if args.bound is not None:
            if args.bound < 0:
                return _fail("--bound must be nonnegative")
            result = enumerate_core_bounded(args.s, args.t, args.part_filter, args.bound)
        else:
            result = enumerate_core(args.s, args.t, args.part_filter)
    except InfiniteFamilyError as exc:
        print(
            f"error: {exc}; pass --bound H for a partial listing of sizes <= H",
            file=sys.stderr,
        )
        return EXIT_INFINITE
    except ValueError as exc:
        return _fail(str(exc))
    if args.bound is not None:
        print(f"note: partial listing, sizes <= {args.bound} only", file=sys.stderr)
    _emit(_render_enumeration(result, args.format, args.bound), args.out)
    return EXIT_OK


# ------------------------------------------------------------------- table

def _table_cells(max_s: int, max_t: int, part_filter: str) -> list[list[Optional[int]]]:
    """Grid of counts, None marking infinite (non-coprime) cells."""
    return [
        [
            enumerate_core(s, t, part_filter).count if gcd(s, t) == 1 else None
            for t in range(1, max_t + 1)
        ]
        for s in range(1, max_s + 1)
    ]


def _render_table(
    cells: list[list[Optional[int]]], max_s: int, max_t: int, part_filter: str,
    fmt: str, inf_marker: Optional[str],
) -> str:
    if fmt == "csv":
        marker = inf_marker if inf_marker is not None else INF_CSV
        lines = ["s\\t," + ",".join(str(t) for t in range(1, max_t + 1))]
        for s in range(1, max_s + 1):
            row = [str(s)] + [marker if c is None else str(c) for c in cells[s - 1]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        marker = inf_marker if inf_marker is not None else INF_CSV
        payload = {
            "filter": part_filter,
            "max_s": max_s,
            "max_t": max_t,
            "cells": [[marker if c is None else str(c) for c in row] for row in cells],
        }
        return _json_dump(payload)
    marker = inf_marker if inf_marker is not None else INF_TEXT
    body = [[marker if c is None else str(c) for c in row] for row in cells]
    widths = [
        max(len(str(t)), max(len(body[s - 1][t - 1]) for s in range(1, max_s + 1)))
        for t in range(1, max_t + 1)
    ]
    left = max(3, len(str(max_s)))
    lines = ["s\\t".ljust(left) + "  " + "  ".join(str(t).rjust(widths[t - 1]) for t in range(1, max_t + 1))]
    for s in range(1, max_s + 1):
        lines.append(
            str(s).ljust(left)
            + "  "
            + "  ".join(body[s - 1][t - 1].rjust(widths[t - 1]) for t in range(1, max_t + 1))
        )
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> int:
    max_s = args.max if args.max is not None else args.max_s
    max_t = args.max if args.max is not None else args.max_t
    if max_s < 1 or max_t < 1:
        return _fail("table dimensions must be positive")
    if (max_s > TABLE_CAP or max_t > TABLE_CAP) and not args.force:
        return _fail(
            f"requested table exceeds the default cap of {TABLE_CAP}; rerun with --force"
        )
    cells = _table_cells(max_s, max_t, args.part_filter)
    _emit(_render_table(cells, max_s, max_t, args.part_filter, args.format, args.inf_marker), args.out)
    return EXIT_OK


# ------------------------------------------------------------------ verify

def _report_payload(report: VerificationReport) -> dict:
    return {
        "claim": report.claim,
        "range": report.range,
        "cases": [
            {"params": c.params, "expected": c.expected, "got": c.got, "ok": c.ok}
            for c in report.cases
        ],
        "pass": report.passed,
        "seconds": round(report.seconds, 6),
    }


def _merge_reports(reports: list[VerificationReport]) -> VerificationReport:
    cases = tuple(
        ClaimCase(dict({"claim": r.claim}, **c.params), c.expected, c.got, c.ok)
        for r in reports
        for c in r.cases
    )
    return VerificationReport(
        claim="all",
        range="; ".join(f"{r.claim}: {r.range}" for r in reports),
        cases=cases,
        passed=all(r.passed for r in reports),
        seconds=sum(r.seconds for r in reports),
    )


def _render_report(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return _json_dump(_report_payload(report))
    if fmt == "csv":
        lines = ["claim,params,expected,got,ok"]
        for c in report.cases:
            params = " ".join(f"{k}={v}" for k, v in c.params.items())
            lines.append(f"{report.claim},{params},{c.expected},{c.got},{c.ok}")
        return "\n".join(lines) + "\n"
    summary = CLAIMS[report.claim].summary if report.claim in CLAIMS else ""
    lines = [f"claim: {report.claim}"]
    if summary:
        lines.append(f"  {summary}")
    lines.append(f"range: {report.range}")
    for c in report.cases:
        params = " ".join(f"{k}={v}" for k, v in c.params.items())
        mark = "ok  " if c.ok else "FAIL"
        lines.append(f"  {mark} {params}: expected {c.expected}, got {c.got}")
    verdict = "PASS" if report.passed else f"FAIL ({len(report.mismatches)} mismatches)"
    lines.append(f"result: {verdict} ({len(report.cases)} cases, {report.seconds:.2f}s)")
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    names = list(CLAIMS) if args.claim == "all" else [args.claim]
    ranges = {
        "max_s": args.max_s,
        "max_m": args.max_m,
        "max_d": args.max_d,
        "max_sum": args.max_sum,
    }
    reports = []
    for name in names:
        applicable = (
            {k: v for k, v in ranges.items() if k in CLAIMS[name].defaults}
            if args.claim == "all"
            else ranges
        )
        try:
            reports.append(run_claim(name, **applicable))
        except ValueError as exc:
            return _fail(str(exc))
    report = reports[0] if len(reports) == 1 else _merge_reports(reports)
    _emit(_render_report(report, args.format), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------- bijection

def _cmd_bijection(args) -> int:
    try:
        if args.mu is not None:
            mu = _parse_int_list(args.mu)
            if not is_composition(mu):
                raise ValueError(
                    f"invalid composition {mu}: parts must be 1 or 2 and the last part must be 1"
                )
        elif args.distinct is not None:
            mu = inverse_lambda_d(Partition(_parse_int_list(args.distinct)))
        else:
            mu = inverse_lambda_o(Partition(_parse_int_list(args.odd)))
        image_d = lambda_d(mu)
        image_o = lambda_o(mu)
    except ValueError as exc:
        return _fail(str(exc))
    if args.format == "json":
        payload = {
            "mu": list(mu),
            "lambda_d": list(image_d.parts),
            "lambda_o": list(image_o.parts),
            "perimeter": sum(mu),
            "size_d": image_d.size,
            "size_o": image_o.size,
        }
        _emit(_json_dump(payload), args.out)
        return EXIT_OK
    if args.format == "csv":
        return _fail("csv format is not supported for bijection; use text or json")
    mu_text = "(" + ",".join(str(x) for x in mu) + ")"
    lines = [
        f"mu        = {mu_text}",
        f"lambda_d  = {image_d}   size {image_d.size}",
        f"lambda_o  = {image_o}   size {image_o.size}",
        f"perimeter = {sum(mu)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ------------------------------------------------------------------- render

def _diagram_rows(lam: Partition, with_hooks: bool) -> list[str]:
    if not lam:
        return ["(empty)"]
    if not with_hooks:
        return ["#" * p for p in lam.parts]
    width = len(str(hook_length(lam, 1, 1)))
    return [
        " ".join(str(hook_length(lam, i, j)).rjust(width) for j in range(1, lam.parts[i - 1] + 1))
        for i in range(1, lam.ell + 1)
    ]


def _cmd_render(args) -> int:
    try:
        lam = Partition(_parse_int_list(args.partition))
    except ValueError as exc:
        return _fail(str(exc))
    rows = _diagram_rows(lam, args.hooks)
    if args.format == "json":
        payload = {"partition": list(lam.parts), "perimeter": perimeter(lam), "rows": rows}
        _emit(_json_dump(payload), args.out)
        return EXIT_OK
    if args.format == "csv":
        return _fail("csv format is not supported for render; use text or json")
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


# -------------------------------------------------------------------- main

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="stcores",
        description="Exact enumeration and verification of simultaneous core partitions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default: text)",
    )
    common.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_enum = sub.add_parser(
        "enumerate", parents=[common],
        help="list all (s, t)-core partitions passing a filter",
    )
    p_enum.add_argument("--s", type=int, required=True)
    p_enum.add_argument("--t", type=int, required=True)
    p_enum.add_argument(
        "--filter", dest="part_filter", choices=sorted(FILTERS), default="all",
    )
    p_enum.add_argument(
        "--bound", type=int, metavar="H",
        help="partial listing of sizes <= H (required for non-coprime pairs)",
    )
    p_enum.set_defaults(func=_cmd_enumerate)

    p_table = sub.add_parser(
        "table", parents=[common],
        help="grid of (s, t)-core counts; infinite families marked",
    )
    p_table.add_argument("--max", type=int, help="set both --max-s and --max-t")
    p_table.add_argument("--max-s", type=int, default=TABLE_CAP)
    p_table.add_argument("--max-t", type=int, default=TABLE_CAP)
    p_table.add_argument(
        "--filter", dest="part_filter", choices=sorted(FILTERS), default="all",
    )
    p_table.add_argument(
        "--force", action="store_true",
        help=f"allow dimensions beyond the default cap of {TABLE_CAP}",
    )
    p_table.add_argument(
        "--inf-marker", metavar="TEXT",
        help=f"marker for infinite cells (default: {INF_CSV!r} in csv, {INF_TEXT!r} in text)",
    )
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser(
        "verify", parents=[common],
        help="check a counting claim by exhaustive enumeration",
    )
    p_verify.add_argument(
        "claim", choices=sorted(CLAIMS) + ["all"], metavar="claim",
        help="one of: " + ", ".join(sorted(CLAIMS)) + ", all",
    )
    p_verify.add_argument("--max-s", type=int, default=None)
    p_verify.add_argument("--max-m", type=int, default=None)
    p_verify.add_argument("--max-d", type=int, default=None)
    p_verify.add_argument("--max-sum", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_bij = sub.add_parser(
        "bijection", parents=[common],
        help="map between a 1/2-composition, a distinct-parts partition, and an odd-parts partition",
    )
    source = p_bij.add_mutually_exclusive_group(required=True)
    source.add_argument("--mu", help="composition, e.g. 1,2,1")
    source.add_argument("--distinct", help="partition into distinct parts, e.g. 4,3")
    source.add_argument("--odd", help="partition into odd parts, e.g. 3,1,1")
    p_bij.set_defaults(func=_cmd_bijection)

    p_render = sub.add_parser(
        "render", parents=[common], help="ASCII Young diagram of a partition",
    )
    p_render.add_argument("--partition", required=True, help="e.g. 3,2,1")
    p_render.add_argument("--hooks", action="store_true", help="annotate each cell with its hook length")
    p_render.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help exits 0, usage errors exit 1
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
