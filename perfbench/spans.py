"""Outside-in span tracer for the stpose layers.

The tracer patches public entry points of each stpose module with wrappers
that open a span on entry and close it on return. A span's self time is its
duration minus the time its child spans cover. Totals are kept per phase
("setup" or "steps") so that work done while building inputs is not mixed
into the per-step layer numbers.

Functions are patched wherever a loaded ``stpose`` module binds them, so a
``from .geometry import project`` in ``decoders.py`` or ``train.py`` is
timed as well as ``geometry.project`` itself. A span nested directly inside
a span of the same name (``pa_mpjpe`` calling ``mpjpe``) is folded into its
parent, so a layer counts one call per outside entry.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from collections import defaultdict

# (module, attribute, span name); an attribute "Class.method" patches the
# method on the class. MsaLayer.__call__ is labelled by its mode argument.
LAYERS = (
    ("tensor", "Tensor.backward", "tensor.backward"),
    ("layers", "Affine.__call__", "layers.affine"),
    ("layers", "LayerNorm.__call__", "layers.layer_norm"),
    ("attention", "MsaLayer.__call__", "attention.{mode}"),
    ("attention", "SteBlock.__call__", "attention.block"),
    ("attention", "SteEncoder.encode", "attention.encoder"),
    ("decoders", "KtdDecoder.decode", "decoders.ktd"),
    ("decoders", "IterativeDecoder.decode", "decoders.iterative"),
    ("geometry", "rot6d_to_matrix", "geometry.rot6d"),
    ("geometry", "matrix_to_axis_angle", "geometry.axis_angle"),
    ("geometry", "project", "geometry.project"),
    ("kinematics", "forward_kinematics", "kinematics.fk"),
    ("losses", "total_loss", "losses.total_loss"),
    ("optim", "Adam.step", "optim.adam"),
    ("train", "train", "train.loop"),
    ("train", "evaluate", "train.loop"),
    ("train", "build_model", "train.build_model"),
    ("metrics", "mpjpe", "metrics.eval"),
    ("metrics", "pa_mpjpe", "metrics.eval"),
    ("metrics", "accel_error", "metrics.eval"),
    ("synth", "synth_generate", "synth.generate"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("checkpoint", "restore_params", "checkpoint.restore"),
)

ATTENTION_MODES = ("spatial", "temporal", "coupled")
GC_SPAN = "runtime.gc"
# the tracer's own bookkeeping: excluded from its parent's self time and
# reported nowhere
OVERHEAD_SPAN = "trace.overhead"


def span_names() -> list:
    names = []
    for _, _, name in LAYERS:
        for n in ([name.format(mode=m) for m in ATTENTION_MODES]
                  if "{mode}" in name else [name]):
            if n not in names:
                names.append(n)
    return names + [GC_SPAN]


def module_of(span: str) -> str:
    return span.split(".", 1)[0]


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, package, module: str, attr: str, make) -> None:
        """Replace ``module.attr`` by ``make(original)``.

        ``attr`` is "Class.method" for a method; a plain function is replaced
        in every loaded module of ``package`` that binds it.
        """
        mod = sys.modules[f"{package.__name__}.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            self.replace(cls, meth, make(getattr(cls, meth)))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        prefix = package.__name__ + "."
        for name, other in list(sys.modules.items()):
            if ((name == package.__name__ or name.startswith(prefix))
                    and getattr(other, attr, None) is original):
                self.replace(other, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class LayerStats:
    """Self and total seconds, calls and errors per span name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)


class Tracer:
    """Span stack with per-phase self-time totals.

    ``clock`` returns seconds; tests pass a fake one. ``full_gc`` holds
    (clock reading, phase) for every generation-2 collection.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase = "setup"
        self.stats = defaultdict(LayerStats)
        self.full_gc = []
        self.patches = Patches()
        self._stack = []           # [name, start, seconds covered by children]

    def open(self, name: str) -> bool:
        """Start a span; False when folded into an enclosing same-name span."""
        if self._stack and self._stack[-1][0] == name:
            return False
        self._stack.append([name, self.clock(), 0.0])
        return True

    def close(self, failed: bool = False) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        if name == OVERHEAD_SPAN:
            return
        stats = self.stats[self.phase]
        stats.self_s[name] += duration - child
        stats.total_s[name] += duration
        stats.calls[name] += 1
        if failed:
            stats.errors[name] += 1

    def span(self, name: str, fn, *args, **kwargs):
        if not self.open(name):
            return fn(*args, **kwargs)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.close(failed=True)
            raise
        self.close()
        return out

    def _on_gc(self, phase: str, info: dict) -> None:
        # start and stop of one collection arrive back to back, so the gc
        # span is always the innermost one when it closes
        if phase == "start":
            self.open(GC_SPAN)
            if info["generation"] == 2:
                self.full_gc.append((self._stack[-1][1], self.phase))
        else:
            self.close()

    def install(self, package) -> None:
        """Wrap every layer entry point of the imported ``package``."""
        for module, attr, span in LAYERS:
            self.patches.wrap(package, module, attr,
                              functools.partial(self._wrap, span=span))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self.patches.restore()

    def _wrap(self, fn, span: str):
        if "{mode}" in span:
            @functools.wraps(fn)
            def by_mode(layer, x, mode):
                return self.span(span.format(mode=mode), fn, layer, x, mode)
            return by_mode

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.span(span, fn, *args, **kwargs)
        return timed


def graph_nodes(*roots) -> int:
    """Number of distinct tensors reachable from ``roots`` via ``_parents``."""
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)
