"""symkal benchmark: verified decompositions per second, latency, success share.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
Workloads (see workloads.py for why each was chosen):

    cli_small         in-process ``symkal decompose`` + ``symkal verify`` round
                      trips on small documents, and ``symkal example`` calls
    wide_stack        ``kalman_decompose`` on random systems, n 4-6, m 8-16
    structured_split  ``kalman_decompose`` on systems with known k, l, d > 0,
                      n 3-48, built here by an orthogonal symplectic scramble

One client runs the ops of a workload back to back in one process (a closed
loop), with BLAS pinned to one thread.  An op is one decomposition, or in
cli_small one CLI round trip; every output is checked independently
(checks.py).  Whole rounds over the seeded inputs, each in a seeded random
order, run until the round boundary nearest to S seconds, and until at
least 100 ops were attempted.
Every round repeats the same inputs, so outcomes are counted once per
input: ``attempted`` is the number of inputs and ``failed`` the number whose
op was not correct, whatever the number of rounds the time allowed.  An
input whose outcome changes between rounds is counted as ``unstable``.

End-to-end metrics (``--trace 0``):
    ops_per_s       correct ops per second spent inside ops, median over rounds;
                    a failed op spends its time and adds nothing
    latency_p50_ms  median wall time of one op, over all attempts
    latency_p90_ms  90th percentile of the same samples
    ok_frac         inputs whose op was correct / inputs attempted
    setup_s         ``import symkal`` plus the workload's first op in a fresh
                    interpreter, median of SETUP_PROBES interpreters
    peak_rss_mb     peak resident memory of the process that ran the loop

Every time is given in reference seconds: the measured wall time times the
speed factor of a fixed kernel timed next to it (speed.py), so that the
drift of a shared machine's speed cancels.  The unscaled figures and the
factors are printed on comment lines.

``--trace 1`` wraps the calls into each layer (tracing.py) in every other
round and prints the per-layer figures per traced op, with the tracing
overhead as untraced against traced ops_per_s; spans are written under
``.perfbench_out/``.  Lines before the last one record the environment,
the failure counts by class and the sample count; the last line is the
result as one JSON object, whose ``correct`` is false when any op returned
a wrong answer and whose ``failed`` counts every input whose op was not
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("cli_small", "wide_stack", "structured_split")
SETUP_PROBES = 5
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def call_worker(argv, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[0]} failed with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, one set-up probe (self-tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "symkal", "__init__.py")):
        sys.stderr.write(f"no symkal sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    common = ["--root", ROOT, "--workload", args.workload, "--seed", str(args.seed),
              "--workdir", workdir] + (["--tiny"] if args.tiny else [])
    try:
        probes = []
        if not args.trace:
            for _ in range(1 if args.tiny else SETUP_PROBES):
                probes.append(call_worker(["probe", *common], deadline))
        result = call_worker(["run", *common, "--out-dir", OUT_DIR,
                              "--seconds", str(args.seconds), "--trace", str(args.trace)],
                             deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        values["peak_rss_mb"] = result["peak_rss_mb"]
    # BENCHMARK.json names every metric of each mode with its unit
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in spec}
    if set(units) != set(values):
        mismatch = sorted(set(units) ^ set(values))
        sys.stderr.write(f"metrics {mismatch} do not match BENCHMARK.json\n")
        return 1
    outcomes = result["outcomes"]
    failures = {f"fail.{key}": count for key, count in sorted(outcomes.items()) if key != "ok"}
    attempted = result["attempted"]
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    print(f"# workload {args.workload}: {result['ops']} ops in {result['rounds']} rounds of "
          f"{attempted} inputs, {result['loop_s']:.1f} s; latency samples {result['ops']}")
    print("# failures " + json.dumps(failures, sort_keys=True))
    rounds = [round(x, 4) for x in result["round_ops_per_s"]]
    print("# untraced rounds ops_per_s " + json.dumps(rounds))
    factors = result["speed_factors"]
    print(f"# speed factor (reference s per s) median {statistics.median(factors):.3f}, "
          f"range {min(factors):.3f}-{max(factors):.3f} over {len(factors)} samples")
    if probes:
        print("# setup probes " + json.dumps([round(p["setup_s"], 4) for p in probes]))
        raw = dict(result["raw_timings"],
                   setup_s=statistics.median(p["raw_setup_s"] for p in probes))
        print("# unscaled " + json.dumps(raw, sort_keys=True))
    if "spans_file" in result:
        print(f"# spans {os.path.relpath(result['spans_file'], ROOT)}")
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": result["returned_wrong"] == 0,
        "attempted": attempted,
        "failed": attempted - outcomes.get("ok", 0),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
