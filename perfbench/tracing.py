"""Step clock and span tracer, installed from outside the program.

Both work by replacing public functions of `mlcgcn` at module level with
timing wrappers; nothing under `src/` knows about them.

* `StepClock` is always on. It marks a training step from the call into
  `training.mixup_batch` to the return of `training.adamw_step`: two clock
  reads per step, so untraced runs stay untraced for practical purposes.
* `Tracer` is on only in `--trace 1` runs. It records a span for every
  wrapped call, times every tape pull under the span that was innermost
  when the pull was recorded, counts matmul FLOPs from shapes and reads
  exact counts off the tape at each `backward`.
"""

import functools
import json
import os
import time
from dataclasses import dataclass

from mlcgcn import autodiff as ad
from mlcgcn import data, metrics, model, training

now = time.perf_counter

MB = 1024.0 * 1024.0

# (module or class, attribute, span name). Span names are the layer names
# the per-layer metrics report under.
SPANS = [
    (model, "pearson_connectome", "model.pearson"),
    (model, "embed", "model.embed"),
    (model, "stfe_forward", "model.stfe_fuse"),
    (model, "sfe_forward", "model.sfe"),
    (model, "tfe_forward", "model.tfe"),
    (model, "generate_adjacency", "model.adjacency"),
    (model, "gcn_forward", "model.gcn"),
    (model, "readout", "model.readout"),
    (model, "predict", "model.head"),
    (training, "cross_entropy", "losses.ce"),
    (training, "group_loss", "losses.group"),
    (training, "MLCGCN", "training.fold_init"),
    (training, "evaluate_model", "training.evaluate"),
    (training, "stratified_kfold", "metrics.split"),
    (training, "compute_metrics", "metrics.compute"),
    (metrics, "compute_metrics", "metrics.compute"),
    (data, "generate_synthetic", "data.generate"),
    (data, "write_dataset", "data.write_dataset"),
    (data, "load_dataset", "data.load_dataset"),
]


@dataclass
class Span:
    name: str
    parent: "Span"
    step: int
    phase: str
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    pull_s: float = 0.0
    records: int = 0
    index: int = -1

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class Patches:
    """Module attributes replaced by wrappers, restorable in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class StepClock:
    """Times training steps and checks every parameter's gradient after each.

    `on_step(seconds, scans, model_params)` is called after the step's clock
    stops, so what it does is not timed.
    """

    def __init__(self, on_step):
        self.on_step = on_step
        self.tracer = None
        self._patches = Patches()
        self._t0 = None
        self._scans = 0

    def install(self):
        mixup, adamw = training.mixup_batch, training.adamw_step

        @functools.wraps(mixup)
        def mixup_batch(series_batch, *args, **kwargs):
            self._scans = len(series_batch)
            self._t0 = now()
            if self.tracer is not None:
                self.tracer.begin_step(self._scans)
                with self.tracer.span("training.mixup"):
                    return mixup(series_batch, *args, **kwargs)
            return mixup(series_batch, *args, **kwargs)

        @functools.wraps(adamw)
        def adamw_step(params, *args, **kwargs):
            if self.tracer is not None:
                with self.tracer.span("training.adamw"):
                    adamw(params, *args, **kwargs)
                self.tracer.end_step()
            else:
                adamw(params, *args, **kwargs)
            seconds = now() - self._t0
            self.on_step(seconds, self._scans, params)

        self._patches.set(training, "mixup_batch", mixup_batch)
        self._patches.set(training, "adamw_step", adamw_step)

    def uninstall(self):
        self._patches.restore()


class _SpanContext:
    # A plain class rather than @contextmanager: it runs on every wrapped call.
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        return self.tracer.open(self.name)

    def __exit__(self, *exc):
        self.tracer.close()


class Tracer:
    """Spans kept in memory; per-step counters read off the tape."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.step = -1
        self.phase = "main"
        self.steps = []  # one dict of counters per step
        self.ckpt_bytes = []  # (phase, size) of every checkpoint saved
        self._patches = Patches()

    # -- spans --------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, parent, self.step, self.phase)
        self.stack.append(span)
        span.start = now()
        return span

    def close(self):
        end = now()
        span = self.stack.pop()
        span.end = end
        if span.parent is not None:
            span.parent.child_s += end - span.start
        span.index = len(self.spans)
        self.spans.append(span)

    def span(self, name):
        return _SpanContext(self, name)

    def begin_step(self, scans):
        self.step = len(self.steps)
        self.steps.append({"scans": scans, "phase": self.phase, "matmul_flop": 0})
        self.open("step")

    def end_step(self):
        span = self.stack[-1]
        if span.name != "step":
            raise RuntimeError(f"step closed inside span {span.name}")
        self.close()
        self.steps[self.step]["span"] = span
        self.step = -1

    # -- wrappers -----------------------------------------------------------

    def _traced(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self):
        for owner, attr, name in SPANS:
            self._patches.set(owner, attr, self._traced(owner.__dict__[attr], name))
        load = model.MLCGCN.load  # a classmethod: wrap it bound, store it static
        self._patches.set(model.MLCGCN, "load", staticmethod(self._traced(load, "model.load")))
        self._patches.set(model.MLCGCN, "save", self._save_wrapper(model.MLCGCN.save))
        self._patches.set(ad, "_record", self._record_wrapper(ad._record))
        self._patches.set(ad, "matmul", self._matmul_wrapper(ad.matmul))
        self._patches.set(ad, "backward", self._backward_wrapper(ad.backward))

    def uninstall(self):
        self._patches.restore()

    def _save_wrapper(self, save):
        traced = self._traced(save, "model.save")

        @functools.wraps(save)
        def save_and_measure(mdl, path):
            traced(mdl, path)
            self.ckpt_bytes.append((self.phase, os.path.getsize(path)))

        return save_and_measure

    def _record_wrapper(self, record):
        def _record(out, inputs, pull):
            if ad.active_tape() is None or not out.requires_grad:
                return
            span = self.stack[-1] if self.stack else None
            if span is None:
                record(out, inputs, pull)
                return
            span.records += 1

            def timed_pull(g, acc):
                t0 = now()
                pull(g, acc)
                span.pull_s += now() - t0

            record(out, inputs, timed_pull)

        return _record

    def _matmul_wrapper(self, matmul):
        @functools.wraps(matmul)
        def counted(a, b):
            out = matmul(a, b)
            if self.step >= 0:
                a, b = ad._as_tensor(a), ad._as_tensor(b)
                (p, q), r = a.shape, b.shape[1]
                products = 1  # the forward, plus one per input the pull differentiates
                if out.requires_grad and ad.active_tape() is not None:
                    products += a.requires_grad + b.requires_grad
                self.steps[self.step]["matmul_flop"] += 2 * p * q * r * products
            return out

        return counted

    def _backward_wrapper(self, backward):
        @functools.wraps(backward)
        def traced_backward(loss, tape=None):
            tape = tape if tape is not None else ad.active_tape()
            with self.span("trace.count"):
                tensors = _tape_tensors(tape)
                counts = {
                    "records": len(tape.records),
                    "tape_bytes": sum(t.data.nbytes for t in tensors),
                }
            with self.span("autodiff.backward"):
                backward(loss, tape)
            with self.span("trace.count"):
                counts["grad_bytes"] = sum(
                    t.grad.nbytes for t in tensors if t.requires_grad and t.grad is not None
                )
            if self.step >= 0:
                self.steps[self.step].update(counts)

        return traced_backward

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line; times in ms from the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "i": s.index,
                    "name": s.name,
                    "parent": s.parent.index if s.parent is not None else None,
                    "step": s.step,
                    "phase": s.phase,
                    "start_ms": round((s.start - t0) * 1e3, 4),
                    "end_ms": round((s.end - t0) * 1e3, 4),
                    "records": s.records,
                    "pull_ms": round(s.pull_s * 1e3, 4),
                }) + "\n")


def _tape_tensors(tape):
    """Distinct tensors the tape references, as outputs or inputs."""
    seen = {}
    for out, inputs, _pull in tape.records:
        seen[id(out)] = out
        for t in inputs:
            seen[id(t)] = t
    return list(seen.values())


# ---------------------------------------------------------------------------
# per-layer metrics from the spans

PARTS = ["embed", "sfe", "tfe", "stfe_fuse", "adjacency", "gcn", "readout", "pearson", "head"]


def _step_quantities(tracer):
    """Per-step dicts: self ms and pull ms per span name, plus tape counters."""
    rows = {s: {} for s in range(len(tracer.steps))}
    for span in tracer.spans:
        if span.step < 0:
            continue
        row = rows[span.step]
        row[span.name + ".self"] = row.get(span.name + ".self", 0.0) + span.self_s * 1e3
        if span.records:
            row[span.name + ".pull"] = row.get(span.name + ".pull", 0.0) + span.pull_s * 1e3
            row[span.name + ".records"] = row.get(span.name + ".records", 0) + span.records
    out = []
    for s, info in enumerate(tracer.steps):
        if "span" not in info:
            continue
        row = rows[s]
        row["scans"] = info["scans"]
        row["phase"] = info["phase"]
        row["step_ms"] = (info["span"].end - info["span"].start) * 1e3
        row["matmul_flop"] = info["matmul_flop"]
        if "records" in info:  # the step ran a backward
            row["pull_ms"] = sum(v for k, v in row.items() if k.endswith(".pull"))
            for key in ("records", "tape_bytes", "grad_bytes"):
                row[key] = info[key]
        out.append(row)
    return out


def layer_metrics(tracer, per_scan):
    """Every per-layer metric, as {name: (value, unit)}.

    A per-step quantity is averaged over the main phase's steps when any of
    them produced it, and otherwise over the tail phase's steps. With
    `per_scan` the average is per scan instead of per step.
    """
    rows = _step_quantities(tracer)
    main = [r for r in rows if r["phase"] == "main"]
    tail = [r for r in rows if r["phase"] == "tail"]

    def per_step(key):
        chosen = main if any(key in r for r in main) else tail
        if not any(key in r for r in chosen):
            return 0.0
        total = sum(r.get(key, 0.0) for r in chosen)
        return total / (sum(r["scans"] for r in chosen) if per_scan else len(chosen))

    def per_call(name):
        chosen = [s for s in tracer.spans if s.name == name and s.phase == "main"]
        chosen = chosen or [s for s in tracer.spans if s.name == name]
        if not chosen:
            return 0.0
        return sum(s.end - s.start for s in chosen) * 1e3 / len(chosen)

    m = {}
    m["autodiff.records_per_step"] = (per_step("records"), "count")
    m["autodiff.pull_ms"] = (per_step("pull_ms"), "ms")
    backward_ms = per_step("autodiff.backward.self")
    m["autodiff.backward_ms"] = (backward_ms, "ms")
    m["autodiff.deposit_ms"] = (backward_ms - m["autodiff.pull_ms"][0], "ms")
    m["autodiff.grad_mb_per_step"] = (per_step("grad_bytes") / MB, "MB")
    m["autodiff.tape_mb_per_step"] = (per_step("tape_bytes") / MB, "MB")
    m["autodiff.matmul_gflop_per_step"] = (per_step("matmul_flop") / 1e9, "GFLOP")
    for part in PARTS:
        m[f"model.{part}.fwd_ms"] = (per_step(f"model.{part}.self"), "ms")
        if part != "pearson":  # a constant: it records nothing on the tape
            m[f"model.{part}.bwd_ms"] = (per_step(f"model.{part}.pull"), "ms")
    sizes = [b for phase, b in tracer.ckpt_bytes if phase == "main"]
    sizes = sizes or [b for _, b in tracer.ckpt_bytes]
    m["model.ckpt_mb"] = (sum(sizes) / len(sizes) / MB if sizes else 0.0, "MB")
    m["model.load_ms"] = (per_call("model.load"), "ms")
    m["model.save_ms"] = (per_call("model.save"), "ms")
    for loss in ("ce", "group"):
        m[f"losses.{loss}.fwd_ms"] = (per_step(f"losses.{loss}.self"), "ms")
        m[f"losses.{loss}.bwd_ms"] = (per_step(f"losses.{loss}.pull"), "ms")
    m["losses.group.records_per_step"] = (per_step("losses.group.records"), "count")
    m["training.mixup_ms"] = (per_step("training.mixup.self"), "ms")
    m["training.adamw_ms"] = (per_step("training.adamw.self"), "ms")
    m["training.fold_init_ms"] = (per_call("training.fold_init"), "ms")
    m["training.evaluate_ms"] = (per_call("training.evaluate"), "ms")
    m["metrics.compute_ms"] = (per_call("metrics.compute"), "ms")
    m["metrics.split_ms"] = (per_call("metrics.split"), "ms")
    m["data.generate_ms"] = (per_call("data.generate"), "ms")
    m["data.write_dataset_ms"] = (per_call("data.write_dataset"), "ms")
    m["data.load_dataset_ms"] = (per_call("data.load_dataset"), "ms")
    steps = [r["step_ms"] for r in main]
    uncovered = [r.get("step.self", 0.0) for r in main]
    m["trace.coverage_frac"] = (1.0 - sum(uncovered) / sum(steps), "fraction")
    return m
