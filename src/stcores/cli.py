"""Command-line surface: enumerate, table, verify, bijection, render.

Exit codes: 0 success / verification passed, 1 usage error or a failed
--out write, 2 the request names a mathematically infinite family,
3 verification failed; `main` alone maps errors to them.

Output goes to stdout (or a --out file) in one of three formats: text
(human readable), json (stable schema, counts string-encoded so consumers
never overflow), csv (byte-stable; used for table golden files).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import stat
import sys
from functools import partial
from math import gcd
from typing import Optional

from .bijection import inverse_lambda_d, inverse_lambda_o, lambda_d, lambda_o
from .claims import CLAIMS, run_claim, shared_fold
from .partition import Partition, format_parts, hook_rows, perimeter
from .search import (
    FILTERS,
    GAP_LIMIT,
    InfiniteFamilyError,
    _listing,
    _shared,
    family_size,
    summarize_core,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFINITE = 2
EXIT_VERIFY_FAILED = 3

TABLE_CAP = 12
# Largest family `enumerate` lists without --force, about 4x the (11, 12)
# family of 58,786; time and memory of a listing grow with its count.
ENUMERATE_CAP = 250_000
# Largest `render` partition (cells) and `bijection --distinct/--odd`
# partition (perimeter): each builds a list entry per cell or unit of
# perimeter.  In a fresh process, `bijection --distinct 1000000` takes about
# 0.7 s as text, 1.1 s as json; `render` of a 1000x1000 square 0.1 s, 0.4 s
# with --hooks (Python 3.11, 2-CPU VM).
SHAPE_CAP = 1_000_000
# verify's range flags: every key some claim takes, in registry order.
RANGE_KEYS = tuple(dict.fromkeys(k for c in CLAIMS.values() for k in c.defaults))
INF_CSV = "inf"
INF_TEXT = "∞"


def _parse_int(text: str) -> int:
    """Parse an integer flag or a number of `_parse_int_list`.

    A number is an optional sign and ASCII digits 0-9, with blanks around it
    but not inside it: int() alone would also read '1_0' as 10 and non-ASCII
    digits such as '٣' as 3.
    """
    if not re.fullmatch("[+-]?[0-9]+", text.strip()):
        raise ValueError(f"cannot parse {text!r} as an integer")
    return int(text)


_parse_int.__name__ = "integer"  # argparse names the type: "invalid integer value: '1_0'"


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Parse '3,2,1', '(3,2,1)', '[3,2,1]' or '{3,2,1}' into ints, each by `_parse_int`."""
    stripped = text.strip()
    if stripped[:1] + stripped[-1:] in ("()", "{}", "[]"):
        stripped = stripped[1:-1].strip()
    return tuple(map(_parse_int, stripped.split(","))) if stripped else ()


class _StrCache(dict):
    """str(n) for each n looked up, computed once; a listing's renderers read its parts through one.

    Equal keys share an entry, so only exact ints may be looked up: True would read as 1.
    """

    def __missing__(self, n) -> str:
        text = self[n] = str(n)
        return text


def _emit(text: str, out: Optional[str]) -> None:
    """print text to stdout, or to the file `out` with symlinks followed.

    print writes the newline after the text, so the text is never copied to
    append it.  A new or regular file (one link, our owner and group) is
    renamed into place from a temp file with its mode, so a failed write
    keeps the old bytes; other targets, such as /dev/null or a FIFO, are
    written in place.
    """
    if out is None:
        print(text)
        return
    old = os.stat(out) if os.path.exists(out) else None
    if old is not None and not (
        stat.S_ISREG(old.st_mode) and old.st_nlink == 1
        and (not hasattr(os, "geteuid") or (old.st_uid, old.st_gid) == (os.geteuid(), os.getegid()))
    ):
        with open(out, "w", encoding="utf-8") as fh:
            print(text, file=fh)
        return
    target = os.path.realpath(out)
    head, name = os.path.split(target)
    # Random, not the pid: a killed run's leftover must not block a later process given its pid.
    tmp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")  # if this raises, tmp is not ours to remove
    try:
        with fh:
            print(text, file=fh)
        if old is not None:
            os.chmod(tmp, stat.S_IMODE(old.st_mode))
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# Each _cmd_* validates its arguments, raising ValueError (exit 1) or
# InfiniteFamilyError (exit 2), and returns the JSON payload.  The text and
# csv renderers below read only that payload.

# ---------------------------------------------------------------- enumerate

def _cmd_enumerate(args) -> dict:
    if args.s < 1 or args.t < 1:
        raise ValueError("--s and --t must be positive integers")
    if args.bound is not None:
        if args.bound < 0:
            raise ValueError("--bound must be nonnegative")
        if not args.force and _count_sizes_upto(args.bound) > ENUMERATE_CAP:
            raise ValueError(
                f"--bound {args.bound} hook-tests every partition of size <= {args.bound}, "
                f"more than the listing cap of {ENUMERATE_CAP}; rerun with --force"
            )
    else:
        count = family_size(args.s, args.t, args.part_filter)  # refuses a walk too big to run
        if count is not None and count > ENUMERATE_CAP and not args.force:
            raise ValueError(
                f"the ({args.s}, {args.t}) family with filter {args.part_filter} has {count} "
                f"partitions, above the listing cap of {ENUMERATE_CAP}; rerun with --force"
            )
    listing = _listing(args.s, args.t, args.part_filter, args.bound)
    payload = {
        "s": args.s,
        "t": args.t,
        "filter": args.part_filter,
        "count": str(len(listing.parts)),
        "max_size": listing.max_size,
        "witnesses": listing.parts[listing.witness_start :],
        "partitions": listing.parts,
    }
    if args.bound is not None:
        print(f"note: partial listing, sizes <= {args.bound} only", file=sys.stderr)
        payload.update(partial=True, bound=args.bound)
    return payload


def _count_sizes_upto(bound: int) -> int:
    """Number of partitions of 0..bound, exact until it passes ENUMERATE_CAP.

    p(n) comes from Euler's pentagonal recurrence, and the count stops
    growing once it is above the cap (at n = 41), so any bound is instant.
    """
    p = [1]
    while len(p) <= bound and sum(p) <= ENUMERATE_CAP:
        n = len(p)
        p.append(sum(
            (-1) ** (k + 1) * p[n - g]
            for k in range(1, n + 1)
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
            if g <= n
        ))
    return sum(p)


def _enumerate_text(p: dict) -> str:
    header = f"({p['s']},{p['t']})-core partitions, filter {p['filter']}"
    if "bound" in p:
        header += f" [partial: sizes <= {p['bound']} only]"
    part_str = _StrCache().__getitem__
    return "\n".join([
        header,
        f"count: {p['count']}",
        f"max size: {p['max_size']}",
        "max-size witnesses: "
        + " ".join(f"({','.join(map(part_str, w))})" for w in p["witnesses"]),
        "partitions:",
        *(f"  ({','.join(map(part_str, parts))})" for parts in p["partitions"]),
    ])


def _enumerate_csv(p: dict) -> str:
    part_str = _StrCache().__getitem__
    return "\n".join(["size,parts"] + [
        f"{sum(parts)},{' '.join(map(part_str, parts))}" for parts in p["partitions"]
    ])


def _enumerate_json(p: dict) -> str:
    """`_payload_json(p)` byte for byte, without the stdlib's pure-Python indenting encoder.

    That encoder yields one small chunk per part; here each listing is one
    `_listing_json` string, each other field a scalar, and the object one join.
    """
    pieces = ["{"]
    for key, value in sorted(p.items()):
        listing = key in ("partitions", "witnesses")
        text = _listing_json(value) if listing else json.dumps(value, ensure_ascii=False)
        pieces += (f'\n  "{key}": ', text, ",")
    pieces[-1] = "\n}"
    return "".join(pieces)


# Its own function, not inlined above: its item strings, one per partition,
# are freed when it returns, before the object's join copies the listing.
# Inlined, the (11, 12) listing's max RSS rose by about 1 MiB.
def _listing_json(listing: list) -> str:
    """A nonempty list of int tuples at depth 1, as json.dumps(indent=2) writes it.

    Each tuple's parts are read through one `_StrCache` and joined once; the
    first and last items carry the list's brackets.
    """
    part_str = _StrCache().__getitem__
    sep = ",\n      "
    items = [f"[\n      {sep.join(map(part_str, parts))}\n    ]" if parts else "[]"
             for parts in listing]
    items[0] = "[\n    " + items[0]
    items[-1] += "\n  ]"
    return ",\n    ".join(items)


# ------------------------------------------------------------------- table

def _cmd_table(args) -> dict:
    if args.max is not None and (args.max_s is not None or args.max_t is not None):
        raise ValueError("--max sets both --max-s and --max-t, so it cannot be combined with them")
    both = TABLE_CAP if args.max is None else args.max
    max_s = both if args.max_s is None else args.max_s
    max_t = both if args.max_t is None else args.max_t
    if max_s < 1 or max_t < 1:
        raise ValueError("table dimensions must be positive")
    if (max_s > TABLE_CAP or max_t > TABLE_CAP) and not args.force:
        raise ValueError(
            f"requested table exceeds the default cap of {TABLE_CAP}; rerun with --force"
        )
    if args.inf_marker is not None and any(c in args.inf_marker for c in ",\r\n"):
        raise ValueError(
            f"--inf-marker must not contain a comma or a line break, got {args.inf_marker!r}"
        )
    default = INF_TEXT if args.format == "text" else INF_CSV
    marker = default if args.inf_marker is None else args.inf_marker
    fold = _shared(summarize_core)  # cells (s, t) and (t, s) count one family
    cells = [
        [str(fold(s, t, args.part_filter).count) if gcd(s, t) == 1 else marker
         for t in range(1, max_t + 1)]
        for s in range(1, max_s + 1)
    ]
    return {"filter": args.part_filter, "max_s": max_s, "max_t": max_t, "cells": cells}


def _table_text(p: dict) -> str:
    cells = p["cells"]
    heads = [str(t) for t in range(1, p["max_t"] + 1)]
    widths = [max(len(head), *(len(row[j]) for row in cells)) for j, head in enumerate(heads)]
    left = max(3, len(str(p["max_s"])))
    rows = [("s\\t", heads)] + [(str(s), row) for s, row in enumerate(cells, 1)]
    return "\n".join(
        label.ljust(left) + "  " + "  ".join(c.rjust(w) for c, w in zip(row, widths))
        for label, row in rows
    )


def _render_table(p: dict) -> str:
    """The table as csv.  Looked up by name per call: perfbench's corruption test patches it."""
    head = ",".join(["s\\t", *(str(t) for t in range(1, p["max_t"] + 1))])
    return "\n".join([head] + [",".join([str(s), *row]) for s, row in enumerate(p["cells"], 1)])


# ------------------------------------------------------------------ verify

def _cmd_verify(args) -> dict:
    ranges = {k: getattr(args, k) for k in RANGE_KEYS}
    merged = args.claim == "all"  # every claim, with the range flags each one accepts
    fold = shared_fold()  # each unordered family is folded once across the claims
    reports = [
        run_claim(n, fold=fold,
                  **{k: v for k, v in ranges.items() if not merged or k in CLAIMS[n].defaults})
        for n in (CLAIMS if merged else [args.claim])
    ]
    return {
        "claim": args.claim,
        "range": "; ".join(f"{r.claim}: {r.range}" if merged else r.range for r in reports),
        "cases": [
            {"params": {"claim": r.claim, **c.params} if merged else c.params,
             "expected": c.expected, "got": c.got, "ok": c.ok}
            for r in reports for c in r.cases
        ],
        "pass": all(r.passed for r in reports),
        "seconds": round(sum(r.seconds for r in reports), 6),
    }


def _params_text(case: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in case["params"].items())


def _verify_text(p: dict) -> str:
    lines = [f"claim: {p['claim']}"]
    if p["claim"] in CLAIMS:
        lines.append(f"  {CLAIMS[p['claim']].summary}")
    lines.append(f"range: {p['range']}")
    for c in p["cases"]:
        mark = "ok  " if c["ok"] else "FAIL"
        lines.append(f"  {mark} {_params_text(c)}: expected {c['expected']}, got {c['got']}")
    failed = sum(not c["ok"] for c in p["cases"])
    verdict = "PASS" if p["pass"] else f"FAIL ({failed} mismatches)"
    lines.append(f"result: {verdict} ({len(p['cases'])} cases, {p['seconds']:.2f}s)")
    return "\n".join(lines)


def _verify_csv(p: dict) -> str:
    return "\n".join(["claim,params,expected,got,ok"] + [
        f"{p['claim']},{_params_text(c)},{c['expected']},{c['got']},{c['ok']}" for c in p["cases"]
    ])


# ---------------------------------------------------------------- bijection

def _cmd_bijection(args) -> dict:
    if args.mu is not None:
        mu = _parse_int_list(args.mu)  # lambda_d rejects an invalid composition
    else:
        distinct = args.distinct is not None
        lam = Partition(_parse_int_list(args.distinct if distinct else args.odd))
        if perimeter(lam) > SHAPE_CAP:
            raise ValueError(
                f"the partition has perimeter {perimeter(lam)}, above the limit of {SHAPE_CAP}"
            )
        mu = inverse_lambda_d(lam) if distinct else inverse_lambda_o(lam)
    image_d = lambda_d(mu)
    image_o = lambda_o(mu)
    return {
        "mu": mu,
        "lambda_d": image_d.parts,
        "lambda_o": image_o.parts,
        "perimeter": sum(mu),
        "size_d": image_d.size,
        "size_o": image_o.size,
    }


def _bijection_text(p: dict) -> str:
    return "\n".join([
        f"mu        = {format_parts(p['mu'])}",
        f"lambda_d  = {format_parts(p['lambda_d'])}   size {p['size_d']}",
        f"lambda_o  = {format_parts(p['lambda_o'])}   size {p['size_o']}",
        f"perimeter = {p['perimeter']}",
    ])


# ------------------------------------------------------------------- render

def _diagram_rows(lam: Partition, with_hooks: bool) -> list[str]:
    if not lam:
        return ["(empty)"]
    if not with_hooks:
        return ["#" * p for p in lam.parts]
    rows = list(hook_rows(lam))[::-1]
    width = len(str(rows[0][0]))
    return [" ".join(str(h).rjust(width) for h in row) for row in rows]


def _cmd_render(args) -> dict:
    lam = Partition(_parse_int_list(args.partition))
    if lam.size > SHAPE_CAP:
        raise ValueError(f"the partition has {lam.size} cells, above the limit of {SHAPE_CAP}")
    rows = _diagram_rows(lam, args.hooks)
    return {"partition": lam.parts, "perimeter": perimeter(lam), "rows": rows}


# Renderers per command; a missing entry is a usage error.  json is the
# stdlib's encoder unless the command names its own.
_payload_json = partial(json.dumps, indent=2, sort_keys=True, ensure_ascii=False)
RENDERERS = {
    "enumerate": {"text": _enumerate_text, "csv": _enumerate_csv, "json": _enumerate_json},
    "table": {"text": _table_text, "csv": lambda p: _render_table(p)},
    "verify": {"text": _verify_text, "csv": _verify_csv},
    "bijection": {"text": _bijection_text},
    "render": {"text": lambda p: "\n".join(p["rows"])},
}


# -------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_enum.add_argument("--s", type=_parse_int, required=True)
    p_enum.add_argument("--t", type=_parse_int, required=True)
    p_enum.add_argument("--filter", dest="part_filter", choices=sorted(FILTERS), default="all")
    p_enum.add_argument(
        "--bound", type=_parse_int, metavar="H",
        help="partial listing of sizes <= H (required for non-coprime pairs)",
    )
    p_enum.add_argument(
        "--force", action="store_true",
        help=f"list families above {ENUMERATE_CAP} partitions, or a --bound H whose sizes "
        f"0..H hold more than {ENUMERATE_CAP} partitions to hook-test; a family's size is "
        "known in advance for filters all and self_conjugate only, so without --bound "
        f"distinct and odd are refused only above {GAP_LIMIT} gaps, a limit --force "
        "does not lift",
    )
    p_enum.set_defaults(func=_cmd_enumerate)

    p_table = sub.add_parser(
        "table", parents=[common],
        help="grid of (s, t)-core counts; infinite families marked",
    )
    p_table.add_argument("--max", type=_parse_int, help="set both --max-s and --max-t")
    p_table.add_argument("--max-s", type=_parse_int)
    p_table.add_argument("--max-t", type=_parse_int)
    p_table.add_argument("--filter", dest="part_filter", choices=sorted(FILTERS), default="all")
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
    for key in RANGE_KEYS:
        p_verify.add_argument("--" + key.replace("_", "-"), type=_parse_int)
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

    p_render = sub.add_parser("render", parents=[common], help="ASCII Young diagram of a partition")
    p_render.add_argument("--partition", required=True, help="e.g. 3,2,1")
    p_render.add_argument("--hooks", action="store_true", help="annotate each cell with its hook length")
    p_render.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.out == "":  # an unset "$OUT" would otherwise write to stdout
            raise ValueError("--out needs a file name, not an empty string")
        payload = args.func(args)
        render = {"json": _payload_json, **RENDERERS[args.command]}.get(args.format)
        if render is None:
            raise ValueError(
                f"{args.format} format is not supported for {args.command}; use text or json"
            )
        _emit(render(payload), args.out)
    except InfiniteFamilyError as exc:
        message, code = f"{exc}; pass --bound H for a partial listing of sizes <= H", EXIT_INFINITE
    except ValueError as exc:
        message, code = str(exc), EXIT_USAGE
    except OSError as exc:
        message, code = f"cannot write {args.out or 'stdout'}: {exc.strerror or exc}", EXIT_USAGE
    except MemoryError:
        message, code = "out of memory; try a smaller range or family", EXIT_USAGE
    else:
        return EXIT_VERIFY_FAILED if payload.get("pass") is False else EXIT_OK
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
