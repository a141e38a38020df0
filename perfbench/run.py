"""qpakit benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload check-tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in its own fresh process (worker.py), one operation at a
time.  Before it, one untimed set-up pass fills the bytecode and file caches
and four more set-up passes are timed; ``setup_s`` is the median of those four
and the measured run's own set-up.  With ``--trace 1`` the workload runs with
spans around every call into qpakit, followed by one traced round of each
other workload, and the per-layer metrics are printed instead.  The last line
of standard output is one JSON object.  See README.md.
"""
import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check-tables", "deep-runs", "window-sweep", "cli-session")
TIMED_SETUPS = 4
CHILD_TIMEOUT_S = 170


def worker(workload, seed, seconds, mode, rounds=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed), str(seconds), mode]
    if rounds is not None:
        cmd.append(str(rounds))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail_value(times, p):
    """Nearest-rank p-th percentile."""
    s = sorted(times)
    return s[min(len(s) - 1, max(0, math.ceil(p / 100 * len(s)) - 1))]


def end_to_end(workload, seed, seconds) -> tuple[dict, dict]:
    worker(workload, seed, seconds, "setup")     # warm-up, untimed
    setups = [worker(workload, seed, seconds, "setup")["setup_s"] for _ in range(TIMED_SETUPS)]
    run = worker(workload, seed, seconds, "run")
    times = run["times"]
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * median(times),
        "op_tail_ms": 1e3 * tail_value(times, run["tail_pct"]),
        "peak_rss_mb": run["rss_kb"] / 1024,
        "setup_s": median(setups + [run["setup_s"]]),
    }
    return metrics, run


def per_layer(workload, seed, seconds) -> tuple[dict, dict]:
    run = worker(workload, seed, seconds, "trace")
    layers = dict(run["layers"])
    for other in WORKLOADS:
        if other != workload:
            side = worker(other, seed, 0, "trace", rounds=1)
            layers.update(side["layers"])
            run["wrong"] += side["wrong"]
    layers["trace.op_p50_ms"] = 1e3 * median(run["times"])
    layers["trace.spans"] = run["spans"]
    return layers, run


def result(bench, kind, metrics, run) -> dict:
    specs = {m["name"]: m for m in bench[kind]}
    missing = set(specs) - set(metrics)
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": not run["wrong"],
        "attempted": len(run["times"]),
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": specs[name]["unit"]} for name in specs},
    }


def one(bench, workload, seed, seconds, trace) -> dict:
    if trace:
        metrics, run = per_layer(workload, seed, seconds)
        doc = result(bench, "per_layer", metrics, run)
    else:
        metrics, run = end_to_end(workload, seed, seconds)
        doc = result(bench, "end_to_end", metrics, run)
    for problem in run["wrong"][:10]:
        print(f"WRONG {problem}")
    print(f"{workload}: {doc['attempted']} operations in {run['rounds']} rounds, "
          f"{doc['failed']} failed, tail = p{run['tail_pct']}, "
          f"{'traced' if trace else 'untraced'}, seed {seed}")
    for name, m in doc["metrics"].items():
        print(f"  {name:32s} {m['value']:14.4f} {m['unit']}")
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qpakit" / "__init__.py").is_file():
        print(f"no qpakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = {w: one(bench, w, args.seed, seconds, args.trace) for w in names}
    print(json.dumps(docs[names[0]] if len(names) == 1 else docs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
