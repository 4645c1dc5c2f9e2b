"""The benchmark's requests, grouped into workloads, and the checks on their outputs.

Every input is fixed: a seed only permutes the order of a workload's
requests.  CLI requests go through `stcores.cli.main` in-process with
stdout captured; the bijection request calls the library directly.

A request's output is checked after its timed call returns: the exit code,
the sha256 of the output bytes against the value recorded when the
benchmark was defined, and, where one exists, the count against its
closed form.  Closed forms are looked up on `stcores.sequences` at check
time, so a corrupted formula shows up as a failed check.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import re
import time
from dataclasses import dataclass
from typing import Callable, Optional

import stcores.cli
from stcores import bijection, search, sequences


class CheckFailed(Exception):
    """A request's output differs from the expected one."""


class Sink:
    """Stand-in for stdout: hashes every byte written and keeps the text."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self._parts: list[str] = []
        self.nbytes = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self._sha.update(data)
        self.nbytes += len(data)
        self._parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    @property
    def sha256(self) -> str:
        return self._sha.hexdigest()

    @property
    def text(self) -> str:
        return "".join(self._parts)


@dataclass
class Output:
    """What one request produced: an exit code, and text or library objects."""

    code: int
    sink: Optional[Sink] = None
    pairs: Optional[list] = None

    @property
    def nbytes(self) -> int:
        return self.sink.nbytes if self.sink is not None else 0


@dataclass(frozen=True)
class Request:
    name: str
    run: Callable[[], Output]
    check: Callable[[Output], None]
    steady: bool  # long enough (>= ~1 s) for its own time to be a metric


def _cli(*argv: str) -> Callable[[], Output]:
    def run() -> Output:
        sink = Sink()
        with contextlib.redirect_stdout(sink):
            code = stcores.cli.main(list(argv))
        return Output(code, sink=sink)

    return run


BIJECTION_MAX_M = 20


def _run_bijection() -> Output:
    """Map every distinct-parts partition of perimeter 1..20 to odd parts and back."""
    pairs = []
    for m in range(1, BIJECTION_MAX_M + 1):
        distinct = search.enumerate_distinct_by_perimeter(m)
        odd = search.enumerate_odd_by_perimeter(m)
        images = [bijection.distinct_to_odd(lam) for lam in distinct]
        preimages = [bijection.odd_to_distinct(lam) for lam in odd]
        pairs.append((m, distinct, odd, images, preimages))
    return Output(0, pairs=pairs)


# sha256 of each request's output bytes, recorded at the commit that defined
# the benchmark.  The bijection entry hashes the text that
# `_bijection_text` makes from the pairs.
EXPECTED_SHA256 = {
    "listing": "c9f5d1e5f9bfdae380b7f48daabe6834adb1125a2db5151d78e52a727ae466bb",
    "distinct": "153b2cede280987ebbe1fc4ac7db5eb17771f8efedea6aa2e9793a3fbb8b8b7d",
    "self_conjugate": "b3448c45f536e8c8744b0a40e78fd980afd8d46a57e532aedf6335764a8129fa",
    "odd": "a2c9648e607456caf9c77e44ac28faef73ef95f878fc1d0baaf3b0e8c2c90fa1",
    "verify_all": "19e4a509620d6d332b130ebb4698e3182a82719c8ae244587e5d9285314d4bcb",
    "table_distinct": "4c252c10b1db38fe99c209a1bfd13c5cd9af6e6b037bdd5fc93291c4ef5063e0",
    "bijection": "2ee70acc33187b09e8e7fe008c51e970bdda80147b226d4c368f9ac9a51448bc",
}


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_common(name: str, out: Output, digest: str) -> None:
    _expect(out.code == 0, f"{name}: exit code {out.code}")
    _expect(digest == EXPECTED_SHA256[name], f"{name}: output sha256 {digest} differs")


def _check_cli(name: str, out: Output) -> None:
    _check_common(name, out, out.sink.sha256)


def _text_listing_count(name: str, out: Output) -> int:
    """Count in a text enumeration, checked against the number of listed partitions."""
    lines = out.sink.text.splitlines()
    match = re.fullmatch(r"count: (\d+)", lines[1]) if len(lines) > 1 else None
    _expect(match is not None, f"{name}: no count line")
    count = int(match.group(1))
    listed = len(lines) - lines.index("partitions:") - 1
    _expect(listed == count, f"{name}: count {count} but {listed} partitions listed")
    return count


def _check_listing(out: Output) -> None:
    _check_cli("listing", out)
    match = re.search(r'"count": "(\d+)"', out.sink.text[:200])
    _expect(match is not None, "listing: no count field")
    count = int(match.group(1))
    want = sequences.anderson_count(11, 12)
    _expect(count == want, f"listing: count {count}, closed form {want}")


def _check_distinct(out: Output) -> None:
    _check_cli("distinct", out)
    count = _text_listing_count("distinct", out)
    want = sequences.fibonacci(23)
    _expect(count == want, f"distinct: count {count}, F(23) = {want}")


def _check_self_conjugate(out: Output) -> None:
    _check_cli("self_conjugate", out)
    count = _text_listing_count("self_conjugate", out)
    want = sequences.fms_selfconjugate_count(11, 12)
    _expect(count == want, f"self_conjugate: count {count}, closed form {want}")


def _check_odd(out: Output) -> None:
    _check_cli("odd", out)
    _text_listing_count("odd", out)


def _check_verify_all(out: Output) -> None:
    _check_cli("verify_all", out)
    rows = out.sink.text.splitlines()[1:]
    _expect(bool(rows), "verify_all: no cases")
    bad = [row for row in rows if not row.endswith(",True")]
    _expect(not bad, f"verify_all: {len(bad)} cases not ok, first: {bad[:1]}")


def _check_table_distinct(out: Output) -> None:
    _check_cli("table_distinct", out)
    rows = [line.split(",") for line in out.sink.text.splitlines()[1:]]
    for s in range(1, 12):
        got = int(rows[s - 1][s + 1])  # column t = s + 1 sits at index s + 1
        want = sequences.fibonacci(s + 1)
        _expect(got == want, f"table_distinct: cell ({s},{s + 1}) = {got}, F({s + 1}) = {want}")


def _bijection_text(pairs: list) -> str:
    lines = []
    for m, distinct, _odd, images, _preimages in pairs:
        lines += [f"{m};{lam};{image}" for lam, image in zip(distinct, images)]
    return "\n".join(lines) + "\n"


def _check_bijection(out: Output) -> None:
    digest = hashlib.sha256(_bijection_text(out.pairs).encode("utf-8")).hexdigest()
    _check_common("bijection", out, digest)
    total = 0
    for m, distinct, odd, images, preimages in out.pairs:
        want = sequences.fibonacci(m)
        _expect(len(distinct) == want, f"bijection: {len(distinct)} distinct at M={m}, F(M) = {want}")
        _expect(len(odd) == want, f"bijection: {len(odd)} odd at M={m}, F(M) = {want}")
        inverse = dict(zip(odd, preimages))
        _expect(sorted(images, key=search.canonical_key) == odd, f"bijection: not onto at M={m}")
        _expect(
            all(inverse[image] == lam for lam, image in zip(distinct, images)),
            f"bijection: odd_to_distinct does not invert distinct_to_odd at M={m}",
        )
        total += len(distinct)
    want = sequences.fibonacci(BIJECTION_MAX_M + 2) - 1
    _expect(total == want, f"bijection: {total} partitions mapped, F(22) - 1 = {want}")


REQUESTS: dict[str, Request] = {
    r.name: r
    for r in [
        Request(
            "listing",
            _cli("enumerate", "--s", "11", "--t", "12", "--filter", "all", "--format", "json"),
            _check_listing,
            steady=True,
        ),
        Request(
            "distinct",
            _cli("enumerate", "--s", "22", "--t", "23", "--filter", "distinct"),
            _check_distinct,
            steady=True,
        ),
        Request(
            "self_conjugate",
            _cli("enumerate", "--s", "11", "--t", "12", "--filter", "self_conjugate"),
            _check_self_conjugate,
            steady=True,
        ),
        Request(
            "odd",
            _cli("enumerate", "--s", "11", "--t", "12", "--filter", "odd"),
            _check_odd,
            steady=True,
        ),
        Request("verify_all", _cli("verify", "all", "--format", "csv"), _check_verify_all, steady=True),
        Request(
            "table_distinct",
            _cli("table", "--max", "12", "--filter", "distinct", "--format", "csv"),
            _check_table_distinct,
            steady=False,
        ),
        Request("bijection", _run_bijection, _check_bijection, steady=True),
    ]
}

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: dict[str, tuple[str, ...]] = {
    "listing": ("listing",),
    "filtered": ("distinct", "self_conjugate", "odd"),
    "counts": ("verify_all", "table_distinct", "bijection"),
}


@dataclass
class Result:
    name: str
    seconds: float
    error: Optional[str]


def run_request(request: Request, around: Optional[Callable] = None) -> Result:
    """Time one request, then check its output outside the timed region.

    `around(request, box)` is entered around the timed call only; the traced
    run uses it to install the wrappers and open the request's root span, and
    reads the output from `box` afterwards.
    """
    box: dict = {}
    gc.collect()  # start each request without garbage left by the previous one
    try:
        with around(request, box) if around else contextlib.nullcontext():
            start = time.perf_counter()
            out = request.run()
            seconds = time.perf_counter() - start
            box["output"] = out
    except Exception as exc:  # a crashing request is a failed request
        return Result(request.name, 0.0, f"{request.name}: {type(exc).__name__}: {exc}")
    try:
        request.check(out)
    except CheckFailed as exc:
        return Result(request.name, seconds, str(exc))
    except Exception as exc:  # malformed output the check could not parse
        return Result(request.name, seconds, f"{request.name}: check raised {type(exc).__name__}: {exc}")
    return Result(request.name, seconds, None)
