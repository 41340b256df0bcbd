"""Run every workload, untraced then traced, and summarise.

    python3 perfbench/suite.py [--seed 1] [--seconds 25] [--label base]

Run it from the repository root. Each workload runs in a fresh process of
``run.py``, one after another: first untraced for the end-to-end metrics,
then traced for the per-layer metrics. The tracing overhead is the traced
step median minus the untraced one. Prints every end-to-end metric with its
unit and writes everything to ``perfbench/out/BENCH_<label>.json``. Exits
non-zero if any run failed or any step failed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 600


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last-line result of one run.py process, plus its env block and
    its notes."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    result = {"exit_code": done.returncode}
    if lines and lines[-1].startswith("{"):
        result.update(json.loads(lines[-1]))
    for key in ("env", "notes"):
        found = [json.loads(ln)[key] for ln in lines
                 if ln.startswith(f'{{"{key}"')]
        if found:
            result[key] = found[0]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--label", default="local")
    args = parser.parse_args(argv)

    results, ok = {}, True
    for workload in WORKLOADS:
        plain = run_one(workload, args.seed, args.seconds, trace=0)
        traced = run_one(workload, args.seed, args.seconds, trace=1)
        results[workload] = {"end_to_end": plain, "per_layer": traced}
        for res in (plain, traced):
            ok &= res["exit_code"] == 0 and res.get("correct", False)
        print(f"{workload}: exit {plain['exit_code']}/{traced['exit_code']}, "
              f"correct {plain.get('correct')}/{traced.get('correct')}")
        notes = plain.get("notes", {})
        for name, m in plain.get("metrics", {}).items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:24s} {m['value']:12.4f} {m['unit']}{note}")
        if "attempted" in plain:
            print(f"  {'fail_ratio':24s} "
                  f"{plain['failed'] / plain['attempted']:12.4f} ratio")
        try:
            overhead = (traced["metrics"]["trace.step_ms_p50"]["value"]
                        - plain["metrics"]["step_ms_p50"]["value"])
        except KeyError:
            continue
        results[workload]["trace_overhead_ms"] = overhead
        print(f"  {'trace_overhead_ms':24s} {overhead:12.4f} ms")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"label": args.label, "seed": args.seed,
                   "seconds": args.seconds, "workloads": results}, fh,
                  indent=1)
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
