"""Benchmark for stcores.

    python3 perfbench/run.py --workload {listing,filtered,counts} --seed N --seconds S --trace {0,1}

Run from anywhere; it measures the checkout it sits in, importing stcores
from that checkout's `src`.  Each run starts fresh interpreters: several
that only import `stcores.cli` (setup_s), then one that runs the workload
(see worker.py), so peak RSS and setup time belong to one workload.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the
per-layer metrics from the traced run.  A human-readable summary goes to
stderr, and the full record with run metadata and per-metric quartiles to
perfbench/out/<workload>-trace<0|1>.json.  The exit code is non-zero, with
no result line, when the workload cannot be run at all.

Times are scaled to a steady machine speed.  On a shared machine other
tenants slow pure-Python code by up to 1.8x for spells of seconds to
minutes, which moved the median pass of a 35 s run by 25-40% between runs.
The worker therefore times a fixed calibration task before every request,
and each reported time is the run's mean (setup_s: median) multiplied by
CALIBRATION_REF_S / the run's mean calibration time, i.e. seconds at the
speed at which the calibration task takes CALIBRATION_REF_S.  Raw samples,
their medians and quartiles, and the scale factor are in the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
DEADLINE_S = 170.0
SETUP_SAMPLES = 21
IMPORT_TIMER = "import time; t = time.perf_counter(); import stcores.cli; print(time.perf_counter() - t)"
# The calibration task's duration on an idle 2-CPU Xeon VM under Python 3.11.
CALIBRATION_REF_S = 0.1


def summary(values: list[float], value: float) -> dict:
    """The reported `value`, with the count, mean, median and quartiles of the raw samples."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {
        "value": value, "n": len(values), "mean": statistics.fmean(values),
        "median": median, "q1": q1, "q3": q3, "samples": values,
    }


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def setup_samples(count: int) -> list[float]:
    """Seconds a fresh interpreter takes to import stcores.cli, `count` times."""
    command = [sys.executable, "-c", IMPORT_TIMER]
    subprocess.run(command, env=_env(), check=True, capture_output=True)  # writes bytecode caches
    return [
        float(subprocess.run(command, env=_env(), check=True, capture_output=True, text=True).stdout)
        for _ in range(count)
    ]


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stcores").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def end_to_end(child: dict, setup: list[float], scale: float) -> dict:
    """Metrics of the untraced passes, plus each request's time for the record."""
    plain = [p for p in child["passes"] if not p["traced"]]

    def timed(samples: list[float]) -> dict:
        return summary(samples, statistics.fmean(samples) * scale)

    requests = {f"req.{name}_s": timed([p["seconds"][name] for p in plain]) for name in plain[0]["seconds"]}
    steady = [requests[f"req.{name}_s"]["value"] for name in child["steady"]]
    rss = child["maxrss_kib"] / 1024
    return {
        "wall_s": timed([sum(p["seconds"].values()) for p in plain]),
        "setup_s": summary(setup, statistics.median(setup) * scale),
        "peak_rss_mib": summary([rss], rss),
        "req.max_s": summary(steady, max(steady)),
        "req.min_s": summary(steady, min(steady)),
        **requests,
    }


def per_layer(child: dict, scale: float) -> dict:
    """Mean over the traced passes of each layer metric; times scaled like end-to-end ones."""
    plain = [p for p in child["passes"] if not p["traced"]]
    traced = [p for p in child["passes"] if p["traced"]]
    untraced_walls = [sum(p["seconds"].values()) for p in plain]
    samples = {key: [p["layers"][key] for p in traced] for key in traced[0]["layers"]}
    samples["bench.untraced_wall_s"] = untraced_walls
    samples["bench.trace_overhead_s"] = [
        t["layers"]["bench.traced_wall_s"] - u for t, u in zip(traced, untraced_walls)
    ]
    return {
        key: summary(values, statistics.fmean(values) * (scale if key.endswith("_s") else 1.0))
        for key, values in samples.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stcores benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        setup = [] if args.trace else setup_samples(SETUP_SAMPLES)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=_env(), stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (time.perf_counter() - started),
        )
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: cannot run the workload: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.splitlines()[-1])

    attempted = sum(len(p["seconds"]) for p in child["passes"])
    failed = sum(len(p["failed"]) for p in child["passes"])
    scale = CALIBRATION_REF_S / statistics.fmean(child["calibration"])
    computed = per_layer(child, scale) if args.trace else end_to_end(child, setup, scale)
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "passes": len(child["passes"]),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": child["errors"],
        "calibration_s": summary(child["calibration"], statistics.fmean(child["calibration"])),
        "scale": scale,
        "metrics": computed,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    units = {m["name"]: m["unit"] for m in declared}
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} passes={record['passes']} "
        f"error_rate={record['error_rate']:.3g} ({failed}/{attempted}) scale={scale:.4g}",
        file=sys.stderr,
    )
    for name, s in sorted(computed.items()):
        unit = units.get(name, "s" if name.endswith("_s") else "")
        print(f"  {name:<28} {s['value']:.6g} {unit}  "
              f"[raw median {s['median']:.6g}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']}]",
              file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]]["value"], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
