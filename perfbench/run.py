"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload train_video --seed 1 --seconds 25 --trace 0

Run it from the root of a repository checkout: the package is imported from
``./src``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. End-to-end timings are scaled to a
fixed machine speed by the probe in ``pace.py``. Before the metrics come a
JSON line with the environment block and one with notes on how metrics were
taken (the tail's percentile and step counts, and the unscaled timings). The last line of output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every step passed the
correctness gate. ``--record-reference`` rewrites ``reference.json`` from
this checkout instead of measuring.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (imports are timed from T_START)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import boot  # noqa: E402

# child processes that time the package import again, so setup_s rests on a
# median rather than on this process's single import
IMPORT_SAMPLES = 4
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "sys.path.insert(0, 'src'); "
                + "; ".join(f"import stpose.{m}" for m in boot.STPOSE_MODULES)
                + "; print(time.perf_counter() - t)")
CHILD_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    return args


def import_samples(root: str) -> list:
    """Seconds to import the package in fresh child processes."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The benchmark's own modules import numpy, so they are imported only after
# pin_threads has run.


def record_reference(stp, ckpt_path: str) -> int:
    import gate
    import workloads
    outputs = {}
    for name, wl in workloads.WORKLOADS.items():
        runner = workloads.Runner(stp, wl, ckpt_path)
        out = runner.replay(gate.REFERENCE_SEED, gate.REPLAY_STEPS[wl.kind])
        if out is None:
            print(f"perfbench: {name} replay raised", file=sys.stderr)
            return 1
        outputs[name] = [list(step) for step in out]
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": gate.REFERENCE_SEED, "rtol": gate.RTOL,
                   "outputs": outputs}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {gate.REFERENCE_PATH}")
    return 0


def measure(stp, args, root: str, ckpt_path: str, import_s: float) -> int:
    import envinfo
    import gate
    import report
    import spans
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = spans.Tracer() if args.trace else None
    runner = workloads.Runner(stp, wl, ckpt_path, tracer)
    if tracer is not None:
        tracer.install(stp)
    try:
        meas = runner.measure(args.seed, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()

    # correctness: every run repeats the first bit for bit, and a replay of
    # the reference seed matches the recorded outputs
    attempted = len(meas.runs) * wl.steps_per_run
    failed = gate.repeat_failures(meas.runs,
                                  workloads.expected_outputs(wl, meas.runs),
                                  wl.steps_per_run)
    reference = gate.load_reference()["outputs"][wl.name]
    replayed = runner.replay(gate.REFERENCE_SEED, len(reference))
    attempted += len(reference)
    failed += gate.reference_failures(replayed, reference)
    problems = [f"{failed} of {attempted} steps failed the correctness gate"
                ] if failed else []

    if tracer is None:
        samples = [import_s] + import_samples(root)
        metrics, notes = report.end_to_end(wl, meas, samples, peak_rss_mb())
    else:
        metrics, notes = report.per_layer(tracer, meas), {}
        problems += report.coverage_errors(wl, tracer)

    print(json.dumps({"env": envinfo.environment(root)}))
    print(json.dumps({"notes": notes}))
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(meas.steps)} timed steps in {len(meas.runs)} runs")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:14.4f} {unit}{note}")
    print(f"  {'fail_ratio':34s} {failed / attempted:14.4f} "
          f"({failed}/{attempted} steps)")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps(report.result_line(correct, attempted, failed, metrics)))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    boot.pin_threads()
    root = os.getcwd()
    try:
        stp = boot.import_stpose(root)
    except (boot.BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, f"eval-{os.getpid()}.ckpt")
    try:
        if args.record_reference:
            return record_reference(stp, ckpt_path)
        return measure(stp, args, root, ckpt_path, import_s)
    except boot.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if os.path.exists(ckpt_path):
            os.remove(ckpt_path)


if __name__ == "__main__":
    sys.exit(main())
