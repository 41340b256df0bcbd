"""Metrics from a measurement: end to end, and per layer from a trace."""

from __future__ import annotations

import re
import statistics

import pace
import stepstats
from spans import GC_SPAN, module_of, span_names

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# layers of a run's set-up, reported per run as inclusive time (a span's
# own time plus its children's); every other layer is reported per step as
# self time
SETUP_SPANS = ("train.build_model", "synth.generate", "checkpoint.save",
               "checkpoint.load", "checkpoint.restore")


def end_to_end(wl, meas, import_samples, peak_rss_mb: float):
    """(metrics, notes): metrics maps name -> (value, unit). Timings are
    scaled to the reference machine speed; the notes give them unscaled."""
    secs, raw = meas.step_seconds, meas.raw_step_seconds
    pct = wl.tail_pct
    beyond = stepstats.beyond(len(secs), pct)
    setup = (statistics.median(import_samples)
             + statistics.median(meas.setups))
    speed = pace.scale(meas.probes)
    metrics = {
        "step_ms_p50": (statistics.median(secs) * 1e3, "ms"),
        "step_ms_tail": (stepstats.percentile(secs, pct) * 1e3, "ms"),
        "frames_per_s": (wl.frames_per_step * len(secs) / sum(secs), "1/s"),
        "setup_s": (setup * speed, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "step_ms_p50": (f"{statistics.median(raw) * 1e3:.1f} ms unscaled; "
                        f"probe median {1 / speed:.3f} x reference"),
        "step_ms_tail": (f"p{pct:g} of {len(secs)} steps, {beyond} beyond "
                         f"it; {stepstats.percentile(raw, pct) * 1e3:.1f} "
                         "ms unscaled"),
        "frames_per_s": f"{wl.frames_per_step * len(raw) / sum(raw):.2f} "
                        "1/s unscaled",
        "setup_s": (f"import median of {len(import_samples)} processes + "
                    f"run set-up median of {len(meas.setups)} runs; "
                    f"{setup:.4f} s unscaled"),
    }
    return metrics, notes


def _full_gc_split(tracer, meas):
    """Step seconds split by whether a full collection started inside."""
    starts = sorted(t for t, phase in tracer.full_gc if phase == "steps")
    with_gc, without = [], []
    for begin, end in meas.steps:
        hit = any(begin <= t <= end for t in starts)
        (with_gc if hit else without).append(end - begin)
    return with_gc, without


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def per_layer(tracer, meas):
    """Per-layer metrics of a traced run: name -> (value, unit)."""
    n_steps, n_runs = len(meas.steps), len(meas.setups)
    steps, setup = tracer.stats["steps"], tracer.stats["setup"]
    out = {}
    for span in span_names():
        if span == GC_SPAN:
            continue
        if span in SETUP_SPANS:
            out[f"{span}_ms"] = (setup.total_s[span] * 1e3 / n_runs, "ms/run")
            out[f"{span}_calls"] = (setup.calls[span] / n_runs, "1/run")
        else:
            out[f"{span}_ms"] = (steps.self_s[span] * 1e3 / n_steps, "ms/step")
            out[f"{span}_calls"] = (steps.calls[span] / n_steps, "1/step")
    out["tensor.graph_nodes"] = (statistics.fmean(meas.nodes), "1/step")
    out["train.graphs_per_step"] = (
        steps.calls["attention.encoder"] / n_steps, "1/step")

    full_in_steps = sum(1 for _, phase in tracer.full_gc if phase == "steps")
    with_gc, without = _full_gc_split(tracer, meas)
    out.update({
        "runtime.gc_ms": (steps.self_s[GC_SPAN] * 1e3 / n_steps, "ms/step"),
        "runtime.gc_collections": (steps.calls[GC_SPAN] / n_steps, "1/step"),
        "runtime.gc_full": (full_in_steps / n_steps, "1/step"),
        "runtime.full_gc_step_share": (len(with_gc) / n_steps, "ratio"),
        "runtime.full_gc_step_ms_p50": (_median_ms(with_gc), "ms"),
        "runtime.other_step_ms_p50": (_median_ms(without), "ms"),
        "trace.step_ms_p50": (_median_ms(meas.step_seconds), "ms"),
    })
    for module in sorted({module_of(s) for s in span_names()} - {"runtime"}):
        errors = sum(stats.errors[s] for stats in (steps, setup)
                     for s in span_names() if module_of(s) == module)
        out[f"{module}.errors"] = (errors, "count")
    return out


def coverage_errors(wl, tracer) -> list:
    """Layers that fired where they should not, or not where they should."""
    steps, setup = tracer.stats["steps"], tracer.stats["setup"]
    errors = [f"{s} recorded no calls in steps" for s in wl.fires
              if steps.calls[s] == 0]
    errors += [f"{s} recorded no calls in set-up" for s in wl.setup_fires
               if setup.calls[s] == 0]
    errors += [f"{s} recorded {steps.calls[s]} calls in steps, expected none"
               for s in wl.silent if steps.calls[s]]
    return errors


def result_line(correct: bool, attempted: int, failed: int, metrics) -> dict:
    for name in metrics:
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"metric name {name!r} is outside [A-Za-z0-9_.-]")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
