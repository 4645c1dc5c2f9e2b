"""One workload in a fresh interpreter; started by run.py, not meant to be run by hand.

Runs passes over the workload's requests, in an order drawn from the seed,
while the next pass, taking as long as the slowest so far, would end
within --seconds.  With --trace 1 each step is an untraced and a traced
pass over the same order, so the tracing overhead is measured in the same
process.  Before each request it times a fixed calibration task, which
run.py uses to scale times to a steady machine speed.  Prints one JSON
object with the samples; the peak RSS it reports is read after the first
pass, so it belongs to this workload alone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import json
import random
import resource
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def _traced_around(tracer: spans.Tracer):
    @contextlib.contextmanager
    def around(request, box):
        with spans.instrument(tracer), tracer.span(spans.ROOT_SPAN) as root:
            yield
        output = box.get("output")
        root[spans.DETAIL] = output.nbytes if output is not None else 0

    return around


def calibrate() -> float:
    """Seconds for a fixed pure-Python task: tuples, frozensets, a keyed sort, string joins."""
    start = time.perf_counter()
    rows = [tuple(range(i % 13, i % 13 + i % 5 + 1)) for i in range(30000)]
    sets = [frozenset(row) for row in rows]
    rows.sort(key=lambda row: (sum(row), tuple(-x for x in row)))
    "\n".join(",".join(map(str, row)) for row in rows)
    sets.clear()
    return time.perf_counter() - start


def _write_spans(path: Path, header: dict, spans_list: list) -> None:
    """Gzipped JSON; start and end are integer nanoseconds from the first span's start."""
    origin = spans_list[0][1] if spans_list else 0.0
    rows = [[n, round((s - origin) * 1e9), round((e - origin) * 1e9), p, d] for n, s, e, p, d in spans_list]
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump(dict(header, fields=["name", "start_ns", "end_ns", "parent", "detail"], spans=rows), fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import stcores

    if not Path(stcores.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: stcores imported from {stcores.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import workloads

    names = list(workloads.WORKLOADS[args.workload])
    rng = random.Random(args.seed)
    passes, errors, steps, calibration = [], [], [], []
    last_spans: list = []
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        # The first pass keeps the workload's own order, so that the peak RSS
        # read after it does not depend on the seed.
        order = rng.sample(names, len(names)) if steps else names
        modes = (False, True) if args.trace else (False,)
        for traced in modes[:: 1 if len(steps) % 2 == 0 else -1]:  # alternate which side runs first
            tracer = spans.Tracer()
            around = _traced_around(tracer) if traced else None
            results = []
            for name in order:
                gc.collect()
                calibration.append(calibrate())
                results.append(workloads.run_request(workloads.REQUESTS[name], around))
            record = {
                "traced": traced,
                "seconds": {r.name: r.seconds for r in results},
                "failed": [r.name for r in results if r.error is not None],
            }
            errors += [r.error for r in results if r.error is not None]
            if traced:
                last_spans = tracer.take()
                record["layers"] = spans.layer_metrics(last_spans)
            passes.append(record)
        if not steps:
            first_pass_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        steps.append(time.perf_counter() - step_start)
        if time.perf_counter() - start + max(steps) > args.seconds:
            break

    if args.trace:
        header = {"workload": args.workload, "seed": args.seed, "order": order}
        _write_spans(OUT_DIR / f"{args.workload}.spans.json.gz", header, last_spans)
    for message in errors[:5]:
        print(f"check failed: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "passes": passes,
                "steady": [n for n in names if workloads.REQUESTS[n].steady],
                "calibration": calibration,
                "errors": errors[:20],
                "maxrss_kib": first_pass_rss_kib,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
