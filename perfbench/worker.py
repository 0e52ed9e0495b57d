"""One workload in one process: set-up probe or measured run.

Started by run.py with BLAS pinned to one thread and ``src`` of the
checkout on PYTHONPATH.  Prints one JSON object as its last stdout line.

    worker.py probe --workload W --seed N --workdir DIR
        times ``import symkal`` plus the workload's first op in this fresh
        interpreter;
    worker.py run --workload W --seed N --seconds S --trace 0|1 --workdir DIR
        runs the closed loop and reports raw figures.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402


def _import_library(root: str, workload: str) -> float:
    import symkal
    if workload == "cli_small":
        import symkal.cli  # noqa: F401
    elapsed = time.perf_counter() - _T0
    expected = os.path.join(root, "src", "symkal")
    if os.path.dirname(os.path.abspath(symkal.__file__)) != expected:
        raise SystemExit(f"symkal imported from {symkal.__file__}, expected {expected}")
    return elapsed


def attempt(case, outcomes: Counter) -> tuple[float, bool]:
    """Run one op, check it, and count its outcome.  Returns (seconds, ok)."""
    from workloads import ExitCode
    start = time.perf_counter()
    try:
        result = case.op()
    except ExitCode as exc:
        elapsed = time.perf_counter() - start
        outcomes[f"exit_{exc.code}"] += 1
        return elapsed, False
    except Exception as exc:  # every library failure is an outcome to count
        elapsed = time.perf_counter() - start
        outcomes[type(exc).__name__] += 1
        return elapsed, False
    elapsed = time.perf_counter() - start
    reason = case.check(result)
    if reason is None:
        outcomes["ok"] += 1
        return elapsed, True
    outcomes["incorrect"] += 1
    outcomes[f"incorrect.{reason}"] += 1
    return elapsed, False


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        blas_name = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": {key: os.environ.get(key) for key in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _gauge():
    from speed import WINDOW, SpeedGauge
    gauge = SpeedGauge()
    gauge.sample()  # first call pays one-off costs
    gauge.samples.clear()
    for _ in range(WINDOW):
        gauge.sample()
    return gauge


def probe(args) -> dict:
    import_s = _import_library(args.root, args.workload)
    import workloads
    cases = workloads.build(args.workload, args.seed, args.workdir, args.tiny)
    outcomes = Counter()
    first_s, _ = attempt(cases[0], outcomes)
    raw = import_s + first_s
    return {"setup_s": raw * _gauge().factor(), "raw_setup_s": raw}


def run(args) -> dict:
    _import_library(args.root, args.workload)
    import workloads
    from speed import REFERENCE_S
    from tracing import Tracer, layer_metrics

    cases = workloads.build(args.workload, args.seed, args.workdir, args.tiny)
    # A round visits the inputs in a seeded random order, so that the inputs
    # near a latency quantile are spread over the whole round rather than
    # timed in one stretch of a machine whose speed drifts.
    order = random.Random(args.seed).sample(range(len(cases)), len(cases))
    tracer = Tracer() if args.trace else None
    gauge = _gauge()
    # outcome of each input's first attempt; an input whose outcome changes
    # in a later round is counted as "unstable" instead
    first_outcomes = [None] * len(cases)
    unstable = set()
    returned_wrong = 0  # attempts, in any round, that returned a wrong answer
    latencies = []  # in reference seconds
    raw_latencies = []
    # traced? -> correct ops per reference second spent inside ops, per round
    rates = {False: [], True: []}
    raw_rates = []
    traced_ops = 0
    # p90 needs ten samples beyond it
    min_ops = 1 if args.tiny else 100
    started = time.perf_counter()
    r = 0
    # Whole rounds over the case list, so that every input gets the same
    # share of the latency samples.  A traced run
    # alternates untraced and traced rounds to measure the overhead.
    while True:
        traced = bool(args.trace) and r % 2 == 1
        if traced:
            tracer.install()
        correct = 0
        busy = raw_busy = 0.0
        for i in order:
            case = cases[i]
            gauge.maybe_sample()
            if traced:
                tracer.op = traced_ops
                tracer.active = True
            outcome = Counter()
            try:
                elapsed, ok = attempt(case, outcome)
            finally:
                if traced:
                    tracer.active = False
            returned_wrong += outcome["incorrect"]
            if first_outcomes[i] is None:
                first_outcomes[i] = outcome
            elif outcome != first_outcomes[i]:
                unstable.add(i)
            if traced:
                traced_ops += 1
            raw_latencies.append(elapsed)
            raw_busy += elapsed
            elapsed *= gauge.factor()
            latencies.append(elapsed)
            busy += elapsed
            correct += ok
        if traced:
            tracer.uninstall()
        rates[traced].append(correct / busy)
        if not traced:
            raw_rates.append(correct / raw_busy)
        r += 1
        # stop at the round boundary nearest to the requested duration
        elapsed = time.perf_counter() - started
        if (elapsed + 0.5 * elapsed / r >= args.seconds and len(latencies) >= min_ops
                and (not args.trace or r >= 2)):
            break

    # Outcomes are counted once per input, not once per attempt: how many
    # rounds fit in the time depends on the machine's speed, and a repeat
    # of the same input adds latency samples but no new outcome.
    outcomes = Counter()
    for i, outcome in enumerate(first_outcomes):
        outcomes.update(Counter(unstable=1) if i in unstable else outcome)
    result = {
        "attempted": len(cases),
        "ops": len(latencies),
        "rounds": r,
        "loop_s": time.perf_counter() - started,
        "round_ops_per_s": rates[False],
        "speed_factors": [REFERENCE_S / t for t in gauge.samples],
        "outcomes": dict(outcomes),
        "returned_wrong": returned_wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(args.seed),
    }

    if args.trace:
        metrics = layer_metrics(tracer.spans, traced_ops,
                                statistics.median(result["speed_factors"]))
        untraced, traced_rate = statistics.median(rates[False]), statistics.median(rates[True])
        metrics["trace.untraced_ops_per_s"] = untraced
        metrics["trace.traced_ops_per_s"] = traced_rate
        metrics["trace.overhead_pct"] = (100.0 * (untraced / traced_rate - 1.0)
                                         if traced_rate else 0.0)
        metrics["trace.spans_per_op"] = len(tracer.spans) / max(traced_ops, 1)
        spans_path = os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                                  "ops": traced_ops, "environment": result["environment"],
                                  "speed_factors": result["speed_factors"]})
        result["spans_file"] = spans_path
    else:
        def timings(rates_, samples):
            p90 = (statistics.quantiles(samples, n=10, method="inclusive")[8]
                   if len(samples) > 1 else samples[0])
            return {"ops_per_s": statistics.median(rates_),
                    "latency_p50_ms": 1e3 * statistics.median(samples),
                    "latency_p90_ms": 1e3 * p90}

        metrics = dict(timings(rates[False], latencies), ok_frac=outcomes["ok"] / len(cases))
        result["raw_timings"] = timings(raw_rates, raw_latencies)
    result["metrics"] = metrics
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    result = probe(args) if args.mode == "probe" else run(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
