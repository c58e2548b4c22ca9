"""Benchmark entry point for `sil`.

    python3 bench/run.py --workload {scenarios,levelset,profiles} --seed N \
        --seconds S --trace {0,1}

Runs whole rounds of one workload, each in a fresh process (bench/workload.py),
until S seconds have passed, and prints one JSON object as its last line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json (medians over the rounds); with
--trace 1 they are the per-layer ones, taken from traced rounds that
alternate with untraced rounds, whose difference in wall time is the
tracing overhead.  Per-round details go to .bench_run/result-*.json and the
spans of each traced round to .bench_run/trace-*.json.

Exits non-zero without a result when a round cannot run, for instance when
the `sil` sources under src/ are missing.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".bench_run")
RUN_LIMIT_S = 170.0  # every run must end within 180 s


class RoundFailed(RuntimeError):
    pass


def run_round(workload, seed, traced, index, deadline):
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=RUN_DIR)
    trace_file = os.path.join(
        RUN_DIR, f"trace-{workload}-seed{seed}-round{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--workdir", workdir,
           "--trace-file", trace_file]
    try:
        spawned = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)],
                              capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round {index} did not end in time") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RoundFailed(f"round {index} exited with {proc.returncode}:\n"
                          + proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["round_s"] = time.monotonic() - spawned
    return result


def median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def per_layer(spec, rounds):
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    derived = {
        "trace.overhead_s": median(traced, "wall_s") - median(plain, "wall_s"),
        "process.cpu_s": median(plain, "cpu_s"),
        "setup.import_s": median(rounds, "import_s"),
        "setup.inputs_s": median(rounds, "inputs_s"),
    }
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in derived:
            value = derived[name]
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def end_to_end(spec, rounds):
    keys = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {name: {"value": median(rounds, name), "unit": unit}
            for name, unit in keys.items()}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.makedirs(RUN_DIR, exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds = []
    try:
        while True:
            # in a traced run, untraced and traced rounds alternate
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(run_round(args.workload, args.seed, traced,
                                    len(rounds), deadline))
            both = not args.trace or len(rounds) >= 2
            now = time.monotonic()
            if both and now - start >= args.seconds:
                break
            if both and now + max(r["round_s"] for r in rounds) > deadline:
                break
    except RoundFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = per_layer(spec, rounds) if args.trace else end_to_end(spec, rounds)
    summary = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": {"platform": platform.platform(),
                          "cpus": os.cpu_count()},
              "summary": summary, "rounds": rounds}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RUN_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)

    for r in rounds:
        for problem in r["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        for error in r["errors"]:
            print(f"operation failed: {error}", file=sys.stderr)
    shown = f"{len(metrics)} per-layer metrics" if args.trace else ", ".join(
        f"{k} {v['value']:.4g} {v['unit']}" for k, v in metrics.items())
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {shown}; "
          f"attempted {summary['attempted']}, failed {summary['failed']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
