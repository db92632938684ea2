"""postpop benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

One workload runs per process. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, measured untraced; with
--trace 1 they are the per-layer metrics from rounds run with every layer
function wrapped, alternating with untraced rounds. --all runs each
workload in its own process, one after the other, and prints a table of the
end-to-end metrics by name.

Before numpy is imported the BLAS and OpenMP thread counts are pinned to
one thread, so the process CPU clock that times every op (workloads.CLOCK)
counts one thread of execution. The program is imported from ../src, never
from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E_UNITS = {"setup_s": "s", "posts_per_s": "posts/s", "aux_posts_per_s": "posts/s",
             "latency_s": "s", "peak_rss_mb": "MB"}
NO_WAIT = ("wait time is not measured: every workload is one closed-loop caller "
           "in single-threaded Python with pinned BLAS threads, so no layer has a queue")


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_threads() -> dict:
    threads = "1"
    for var in THREAD_VARS:
        os.environ[var] = threads
    return {var: threads for var in THREAD_VARS}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true", help="run every workload, one process each")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == bool(args.workload):
        p.error("give exactly one of --workload NAME and --all")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def provenance(pinned: dict, workload, seconds: float, trace: int,
               loops: tuple[float, float]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "workload": workload.name, "seed": workload.seed, "seconds": seconds,
        "trace": trace, "inputs": workload.sizes,
        "nproc": os.cpu_count(), "usable_cpus": usable_cpus(),
        "ram_mb": round(ram / 2 ** 20), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "pinned_env": pinned, "loop_ms_before_after": loops,
    }


def loop_ms() -> float:
    """Median milliseconds of a fixed pure-Python loop: the machine's speed
    at this moment. A shared host can run the same work 1.5x slower for
    minutes; this shows when a run was taken during such a phase."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(wl, setup_s: list):
    start = time.process_time()  # the clock of every timing, workloads.CLOCK
    state = wl.setup()
    setup_s.append(time.process_time() - start)
    return state


def next_round_overruns(start: float, rounds: int, seconds: float) -> bool:
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds > seconds


def run_rounds(wl, state, seconds: float, setup_s: list) -> int:
    """Closed loop: rounds until the workload's minimum ran and the next
    round would end after `seconds`. A workload with a cheap set-up sets up
    again, timed, before every round, so set-up samples spread over the
    whole run like the other samples do."""
    start = time.perf_counter()
    r = 0
    while r < wl.min_rounds or not next_round_overruns(start, r, seconds):
        if wl.setup_per_round and r > 0:
            state = timed_setup(wl, setup_s)
        wl.round(state, r)
        r += 1
    return r


def untraced(workloads, name: str, seed: int, seconds: float):
    """Set up `setup_reps` times, warm up, run rounds; setup_s is the fastest
    set-up, like every other timing (see workloads.py)."""
    led = workloads.Ledger()
    wl = workloads.WORKLOADS[name](seed, led)
    wl.make_inputs()
    setup_s, state = [], None
    for _ in range(wl.setup_reps):
        state = None  # release the previous set-up before building the next
        state = timed_setup(wl, setup_s)
    wl.warmup(state)
    rounds = run_rounds(wl, state, seconds, setup_s)
    finish(wl, state)
    return wl, setup_s, rounds


def finish(wl, state) -> None:
    try:
        wl.finish(state)
    except Exception as exc:  # a check that cannot run is a failed check
        wl.ledger.check("finish", False, f"{type(exc).__name__}: {exc}")


def traced_run(workloads, spans, name: str, seed: int, seconds: float):
    """Rounds alternate untraced and traced, so a slow phase of the host
    hits both alike; overhead is the mean traced round minus the mean
    untraced round. Set-up runs traced, so set-up spans are recorded too."""
    led = workloads.Ledger()
    wl = workloads.WORKLOADS[name](seed, led)
    wl.make_inputs()
    tracer = spans.Tracer()
    led.tracer = tracer
    with tracer:
        state = wl.setup()
    wl.warmup(state)
    plain, traced = [], []
    start = time.perf_counter()
    r = 0
    while r < 2 or not next_round_overruns(start, r, seconds):
        with tracer if r % 2 else contextlib.nullcontext():
            round_start = time.perf_counter()
            if wl.setup_per_round and r > 0:
                state = wl.setup()
            wl.round(state, r)
            (traced if r % 2 else plain).append(time.perf_counter() - round_start)
        r += 1
    finish(wl, state)
    base = statistics.mean(plain)
    overhead = statistics.mean(traced) - base
    return wl, tracer, r, overhead, overhead / base


def layer_metrics(spans, wl, tracer, overhead: float, ratio: float):
    summary = tracer.summary()
    vector_calls = summary["providers.vector"]["calls"]
    counts = tracer.counts(vector_calls)
    missing = sorted(set(tracer.absent) | {
        n for n in wl.expected_spans if summary[n]["calls"] == 0})
    metrics = {}
    for name in spans.SPAN_NAMES:
        if name in missing:
            continue  # reported as missing, never as zero
        metrics[f"{name}.calls"] = {"value": summary[name]["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": summary[name]["self_s"], "unit": "s"}
    for name, unit in spans.COUNT_UNITS.items():
        metrics[name] = {"value": counts[name], "unit": unit}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    detail = {
        "missing_spans": missing,
        "not_exercised": sorted(n for n in spans.SPAN_NAMES
                                if n not in wl.expected_spans and n not in missing
                                and summary[n]["calls"] == 0),
        "spans_recorded": len(tracer.s_start),
        "self_s_top": sorted(((n, round(s["self_s"], 6)) for n, s in summary.items()
                              if s["calls"]), key=lambda x: -x[1])[:10],
        "head_layers_computed": tracer.head_layers,
        "lstm_step_computed": dict(tracer.lstm_step, live_steps=tracer.lstm_live_steps),
        "wait_time": NO_WAIT,
    }
    return metrics, detail


def print_result(correct: bool, ledgers, metrics: dict) -> None:
    for led in ledgers:
        for line in led.failures:
            print(f"FAILED {line}")
    print(json.dumps({"correct": correct,
                      "attempted": sum(led.attempted for led in ledgers),
                      "failed": sum(led.failed for led in ledgers),
                      "metrics": metrics}))


def import_benchmark():
    """The workload and tracer modules, importing postpop from ../src."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import postpop
    except ImportError as exc:
        print(f"cannot import postpop from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    if Path(postpop.__file__).resolve().parent != ROOT / "src" / "postpop":
        print(f"postpop imported from {postpop.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return None
    import spans
    import workloads
    return workloads, spans


def run_one(args, pinned: dict) -> int:
    modules = import_benchmark()
    if modules is None:
        return 2
    workloads, spans = modules
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 1
    loop_before = loop_ms()
    if args.trace:
        wl, tracer, rounds, overhead, ratio = traced_run(
            workloads, spans, args.workload, args.seed, args.seconds)
        metrics, detail = layer_metrics(spans, wl, tracer, overhead, ratio)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans_{args.workload}_seed{args.seed}.npz")
        print("provenance " + json.dumps(provenance(pinned, wl, args.seconds, 1,
                                                     (loop_before, loop_ms()))))
        print("trace " + json.dumps(dict(detail, rounds=rounds), default=str))
        ledgers = [wl.ledger]
        correct = not (wl.ledger.failed or detail["missing_spans"])
    else:
        wl, setup_s, rounds = untraced(workloads, args.workload, args.seed, args.seconds)
        led = wl.ledger
        ledgers = [led]
        try:
            values = dict(wl.metrics(), setup_s=min(setup_s),
                          peak_rss_mb=peak_rss_mb())
            report = wl.report()
        except (ValueError, ZeroDivisionError, IndexError, KeyError) as exc:
            print(f"no measurement: {type(exc).__name__}: {exc}; failures: {led.failures}",
                  file=sys.stderr)
            return 3
        metrics = {k: {"value": values[k], "unit": E2E_UNITS[k]} for k in E2E_UNITS}
        report.update({
            "setup_s": (values["setup_s"], "s"),
            "setup_median_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (values["peak_rss_mb"], "MB"),
            "error_rate": (led.failed / led.attempted, "failed/attempted"),
        })
        report["samples"] = dict(report.get("samples", {}), setup=len(setup_s),
                                 rounds=rounds)
        print("provenance " + json.dumps(provenance(pinned, wl, args.seconds, 0,
                                                     (loop_before, loop_ms()))))
        print("report " + json.dumps(report))
        for key, val in report.items():
            if isinstance(val, tuple):
                print(f"  {key:<24} {val[0]:>14.6g} {val[1]}")
        correct = led.failed == 0
    print_result(correct, ledgers, metrics)
    return 0


NAMED_METRICS = ("setup_s", "train_posts_per_s", "score_posts_per_s", "score_latency_p50_s",
                 "score_latency_p99_s", "eval_mse", "prepare_s", "featurize_posts_per_s",
                 "peak_rss_mb", "error_rate")


def run_all(args) -> int:
    """Each workload in its own process, one after another; print a table."""
    modules = import_benchmark()
    if modules is None:
        return 2
    rows, status = {}, 0
    for name in modules[0].WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        for line in proc.stdout.splitlines():
            if line.startswith("report "):
                rows[name] = json.loads(line[len("report "):])
    if rows:
        print(f"\n{'metric':<22}" + "".join(f"{n:>30}" for n in rows))
        for metric in NAMED_METRICS:
            cells = (f"{rep[metric][0]:.4g} {rep[metric][1]}" if metric in rep else "n/a"
                     for rep in rows.values())
            print(f"{metric:<22}" + "".join(f"{c:>30}" for c in cells))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = pin_threads()
    if args.all:
        return run_all(args)
    return run_one(args, pinned)


if __name__ == "__main__":
    sys.exit(main())
