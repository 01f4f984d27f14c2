"""regimix benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload piecewise-cv --seed 0 --seconds 10 --trace 0

Runs the workload in child processes, one after another, with the
checkout's ``src`` on ``PYTHONPATH``, BLAS and OpenMP pinned to one thread
and ``REGIMIX_THREADS`` unset. With ``--trace 0`` the run's ``--seconds``
are shared among the workload's ``slices`` fresh processes, each of which
sets up and runs whole rounds; the timings are medians over the rounds of
all of them, and ``setup_s`` the median of their set-ups and of fresh
set-up-only processes, three set-ups in all. The machine's speed differs
from process to process and from one stretch of seconds to the next, and
a run sampled in several processes and across its whole length reads
steadier than one sampled in a single stretch. The operations' timings
are CPU time of the one-threaded workload process, which leaves out the
stretches in which the shared host runs other guests on its CPU; their
wall times go to the record beside them. A traced run is one process.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The full record (figures per round, result
digests, the machine, the inputs) goes to ``.bench_out/``, and a traced
run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

#: Set-ups timed per untraced run; setup_s is their median.
SETUP_SAMPLES = 3
#: Every run ends within this many seconds or fails.
RUN_LIMIT_S = 175.0

UNITS = {"setup_s": "s", "mixrhlp_cpu_s": "s", "others_cpu_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REGIMIX_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, seconds: float, deadline: float, extra) -> dict:
    """Run the workload script once and parse its JSON line."""
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--workdir", workdir, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "regimix", "__init__.py")):
        print(f"bench: no regimix sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    extra = ["--spans", stem + ".spans.jsonl"] if args.trace else []
    slices = 1 if args.trace else WORKLOADS[args.workload].slices
    try:
        parts = []
        for i in range(slices):
            # A slice that overran its share shortens the next one.
            share = max(0.0, args.seconds * (i + 1) / slices - sum(p["measured_s"] for p in parts))
            parts.append(run_child(args, share, deadline, extra))
        setups = [p["setup_s"] for p in parts]
        if not args.trace:
            setups += [run_child(args, 0.0, deadline, ["--setup-only"])["setup_s"]
                       for _ in range(SETUP_SAMPLES - slices)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"bench: {args.workload} did not complete: {exc}", file=sys.stderr)
        return 1

    run = {
        **parts[-1],
        "rounds": [r for p in parts for r in p["rounds"]],
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "problems": sorted({q for p in parts for q in p["problems"]}),
    }
    timings = {k: median(r[k] for r in run["rounds"]) for k in run["rounds"][0]}
    end_to_end = {"setup_s": median(setups),
                  "peak_rss_mb": max(p["peak_rss_mb"] for p in parts), **timings}
    end_to_end = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end.items() if k in UNITS}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setups,
        "slice_rounds": [len(p["rounds"]) for p in parts],
        "wall_s": {k: v for k, v in timings.items() if k.endswith("_wall_s")},
        **{k: v for k, v in run.items() if k not in ("setup_s", "peak_rss_mb", "measured_s")},
        "end_to_end": end_to_end,
    }
    for problem in run["problems"]:
        print(f"check failed: {problem}")
    print(f"{args.workload} seed {args.seed}: {run['attempted']} operations, "
          f"{run['failed']} failed, {len(run['rounds'])} rounds in {slices} processes")
    if args.trace:
        untraced_path = stem + "-trace0.json"
        if os.path.isfile(untraced_path):
            with open(untraced_path, encoding="utf-8") as fh:
                untraced = json.load(fh)["end_to_end"]
            record["tracing_overhead"] = {
                k: end_to_end[k]["value"] / untraced[k]["value"] - 1.0
                for k in end_to_end if k in untraced and k not in ("setup_s", "peak_rss_mb")
            }
        for name, metric in run["per_layer"].items():
            print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
        metrics = run["per_layer"]
    else:
        metrics = end_to_end
    for name, metric in end_to_end.items():
        print(f"  {'traced ' if args.trace else ''}{name:29s} {metric['value']:>14.6g} {metric['unit']}")
    for name, share in record.get("tracing_overhead", {}).items():
        print(f"  tracing overhead on {name}: {share * 100:+.1f} %")

    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
