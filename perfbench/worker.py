"""One workload in a fresh process: import, set up, then the timed closed loop.

Run by run.py, never by hand; it prints one JSON object on stdout.

    worker.py ROOT WORKLOAD SEED SECONDS MODE [ROUNDS]

MODE is ``setup`` (stop after set-up, report its time), ``run`` (the timed
loop) or ``trace`` (the timed loop with spans, then per-layer metrics).
ROUNDS caps the loop at that many rounds.
"""
import json
import resource
import shutil
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter


def main() -> int:
    root, workload, seed, seconds, mode = sys.argv[1:6]
    max_rounds = int(sys.argv[6]) if len(sys.argv) > 6 else None
    root = Path(root).resolve()
    src = root / "src"
    sys.path[:0] = [str(src), str(Path(__file__).parent)]

    t0 = perf_counter()
    import qpakit
    if Path(qpakit.__file__).resolve().parent != (src / "qpakit").resolve():
        print(f"qpakit was imported from {qpakit.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(sys.modules)
    from workloads import WORKLOADS

    out_dir = Path(__file__).parent / "out"
    work_dir = out_dir / f"work-{workload}-{seed}-{mode}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[workload](int(seed), root, work_dir, tracer)
        wl.setup()
        setup_s = perf_counter() - t0
        if mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        doc = loop(wl, float(seconds), max_rounds)
        doc["setup_s"] = setup_s
        doc["rss_kb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            doc["layers"] = wl.layers(doc)
            tracer.dump(out_dir / f"spans-{workload}-{seed}.json")
            doc["spans"] = len(tracer.spans)
        print(json.dumps(doc))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def loop(wl, seconds: float, max_rounds):
    """Whole rounds until ``seconds`` have passed and enough operations ran."""
    tracer = wl.tracer
    times, kinds, wrong = [], [], []
    failed = rounds = 0
    start = perf_counter()
    while True:
        for op in wl.ops:
            if tracer is not None:
                tracer.op = len(times)
            with tracer.span("op." + op.kind) if tracer is not None else nullcontext():
                t = perf_counter()
                result = op.run()
                dt = perf_counter() - t
            times.append(dt)
            kinds.append(op.kind)
            try:
                problems = op.check(result)
            except Exception as exc:    # output the oracle cannot even read is wrong output
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                failed += 1
                if not op.known_fault:
                    wrong.append(f"{op.kind}: {problems[0]}")
            if tracer is not None:
                wl.after_op(op, result)
                tracer.op = -1
            # freed here, outside the timing, not while the next operation runs
            del result
        rounds += 1
        if rounds == max_rounds:
            break
        if perf_counter() - start >= seconds and len(times) >= wl.min_ops:
            break
    return {"times": times, "kinds": kinds, "failed": failed,
            "wrong": wrong, "rounds": rounds,
            "tail_pct": wl.tail_pct}


if __name__ == "__main__":
    sys.exit(main())
