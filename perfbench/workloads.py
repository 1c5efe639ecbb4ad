"""The three benchmark workloads and their correctness checks.

Each workload builds its inputs from the seed, sets up, checks, and then
repeats its pass until the measuring time is spent. Workloads reach every
`mlcgcn` function through its module attribute, so the tracer's wrappers
see the call.
"""

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

from mlcgcn import autodiff as ad
from mlcgcn import data, losses, metrics, model, training
from mlcgcn.seeding import derive_rng

from tracing import StepClock, Tracer, layer_metrics

now = time.perf_counter

# The acceptance shape: n=20, L=200, K=2, width 32, 3 classes of 60 scans.
SMALL_MODEL = dict(
    n_rois=20, series_len=200, levels=2, embed_len=32, conv_kernels=8, hidden_size=32,
    attention_heads=4, gcn_hidden=32, readout_dim=32,
)
# A paper shape: n=200, L=176, K=6; the other ModelConfig fields at their defaults.
PAPER_MODEL = dict(n_rois=200, series_len=176, levels=6)


def paper_spec(seed):
    """32 synthetic scans in 2 classes at the paper shape."""
    return data.SyntheticSpec(classes=2, per_class=16, n_rois=PAPER_MODEL["n_rois"],
                              series_len=PAPER_MODEL["series_len"], seed=seed)


FD_TOLERANCE = 1e-3
# Central-difference steps, tried in turn until one agrees. ReLU and clamp
# make the objective piecewise smooth: when a kink lies within a step of
# the base point the difference across it disagrees with the (correct)
# one-sided derivative, and a smaller step no longer straddles it. A wrong
# gradient disagrees at every step.
FD_STEPS = (1e-6, 1e-7, 1e-8)
# As in autodiff.finite_diff_check: absorbs rounding noise where the true
# derivative is near zero, e.g. the cross entropy of a saturated softmax.
FD_FLOOR = 1e-5


class Checks:
    """Counts attempted and failed operations; keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def check_grads(checks, params):
    bad = [n for n, p in params.items() if p.grad is None or not np.isfinite(p.grad).all()]
    checks.check(not bad, f"parameters without a finite gradient: {bad[:5]}")


def check_report(checks, report, probs, truth):
    values = report.values()
    checks.check(all(0.0 <= v <= 1.0 for v in values), f"metric outside [0, 1]: {values}")
    argmax_acc = float(np.mean(np.argmax(probs, axis=1) == truth))
    checks.check(abs(report.acc - argmax_acc) <= 1e-12,
                  f"accuracy {report.acc} != argmax count {argmax_acc}")


def check_scan(checks, probs, adjacencies):
    """One scan's outputs: a distribution, and symmetric unit-diagonal graphs in [-1, 1]."""
    p = probs.data
    ok = bool(np.isfinite(p).all() and abs(p.sum() - 1.0) <= 1e-9 and (p >= 0).all())
    for a in adjacencies:
        a = a.data
        ok = ok and bool(
            np.abs(a - a.T).max() <= 1e-12
            and (np.diag(a) == 1.0).all()
            and a.min() >= -1.0
            and a.max() <= 1.0
        )
    checks.check(ok, "scan output: probabilities or generated adjacencies malformed")


def batch_terms(mdl, batch):
    """Cross entropy and group penalty of one batch, with dropout and mixup off."""
    cfg = mdl.config
    rows, graphs = [], []
    for s in batch:
        probs, levels = mdl.predict(ad.Tensor(s.series))
        rows.append(probs)
        graphs.append(levels.adjacencies)
    targets = losses.BatchTargets.from_labels([s.label for s in batch], cfg.classes)
    ce = losses.cross_entropy(ad.stack_rows(rows), targets)
    return ce, losses.group_loss(graphs, targets.dominant, cfg.levels)


def fd_check(mdl, objective, rng):
    """Gap between backward's directional derivative of `objective()` and a
    central difference along the same direction, relative to their size.

    The direction is the normalized gradient plus a random unit vector, so
    the derivative along it is far from zero and still probes every block.
    The steps of FD_STEPS are tried until the gap is within FD_TOLERANCE;
    the smallest gap seen is returned.
    """
    params = mdl.params
    ad.zero_grads(params)
    with ad.recording():
        ad.backward(objective())
    grads = {n: p.grad for n, p in params.items()}
    gnorm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    noise = {n: rng.normal(size=p.data.shape) for n, p in params.items()}
    nnorm = math.sqrt(sum(float((r * r).sum()) for r in noise.values()))
    direction = {n: grads[n] / gnorm + noise[n] / nnorm for n in params}
    dnorm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    analytic = sum(float((grads[n] * direction[n]).sum()) for n in params) / dnorm
    base = {n: p.data for n, p in params.items()}

    def shifted(step):
        for n, p in params.items():
            p.data = base[n] + (step / dnorm) * direction[n]
        return float(objective().data)

    best = math.inf
    try:
        for step in FD_STEPS:
            numeric = (shifted(step) - shifted(-step)) / (2.0 * step)
            best = min(best, abs(analytic - numeric) / (abs(analytic) + abs(numeric) + FD_FLOOR))
            if best <= FD_TOLERANCE:
                break
    finally:
        for n, p in params.items():
            p.data = base[n]
        ad.zero_grads(params)
    return best


def first_batch(samples, batch_size, seed):
    idx = training.class_balanced_batches(
        [s.label for s in samples], batch_size, derive_rng(seed, "fd-batch")
    )[0]
    return [samples[i] for i in idx]


def per_class(samples, count):
    """The first `count` samples of each class, in input order."""
    taken = {}
    out = []
    for s in samples:
        if taken.get(s.label, 0) < count:
            taken[s.label] = taken.get(s.label, 0) + 1
            out.append(s)
    return out


def tail_probe(samples, model_cfg, seed, workdir):
    """Touch once, at this workload's shape, every layer its pass does not reach.

    Runs only in traced runs, after the measured window: a two-fold,
    one-epoch run_cv on four scans per class, a checkpoint save and load,
    and a dataset write and load.
    """
    sub = per_class(samples, 4)
    training.run_cv(sub, model_cfg, training.TrainConfig(epochs=1, folds=2, seed=seed))
    mdl = model.MLCGCN(model_cfg, rng=derive_rng(seed, "tail"))
    ckpt = workdir / "tail.ckpt"
    mdl.save(ckpt)
    model.MLCGCN.load(ckpt)
    names = [f"class{c}" for c in range(model_cfg.classes)]
    manifest = data.DatasetManifest(names, model_cfg.n_rois, model_cfg.series_len)
    path = data.write_dataset(sub, {}, manifest, workdir / "tail-data")
    data.load_dataset(path)


class Workload:
    """Set-up, checks and a timed pass; subclasses fill in the three parts.

    `ops` holds the timed unit operations (training steps, or scan
    predictions) as (seconds, scans) pairs, and `passes` the seconds of each
    whole pass.
    """

    name = ""
    setups = 15  # set-up repeats; setup_s is their median
    per_scan = False

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.checks = Checks()
        self.ops = []
        self.passes = []
        self.untimed = 0.0  # seconds of checks inside passes, left out of pass_s
        self.clock = StepClock(self._on_step)
        self.tracer = None  # set by a traced run
        self.fd_gap = None  # set by training workloads' gradient check

    def _on_step(self, seconds, scans, params):
        self.ops.append((seconds, scans))
        t0 = now()
        check_grads(self.checks, params)
        self.untimed += now() - t0

    # -- the parts --------------------------------------------------------

    def setup(self, k):
        raise NotImplementedError

    def check_once(self):
        """Untimed checks made once, before measuring."""

    def one_pass(self):
        raise NotImplementedError

    def check_fd(self, mdl, batch):
        # One check per loss term: the group penalty's gradient is far larger
        # than the cross entropy's and would hide an error in the latter.
        rng = derive_rng(self.seed, "fd-dir")
        gaps = []
        for term, name in enumerate(("cross entropy", "group penalty")):
            gap = fd_check(mdl, lambda term=term: batch_terms(mdl, batch)[term], rng)
            self.checks.check(gap <= FD_TOLERANCE, f"{name} finite-difference gap {gap:.3e}")
            gaps.append(gap)
        self.fd_gap = max(gaps)

    # -- running ----------------------------------------------------------

    def measure(self, seconds):
        """Repeat the pass for `seconds` (at least once); returns the new ops."""
        start = now()
        first_op, first_pass = len(self.ops), len(self.passes)
        while now() - start < seconds or len(self.passes) == first_pass:
            t0, untimed = now(), self.untimed
            self.one_pass()
            self.passes.append(now() - t0 - (self.untimed - untimed))
        return self.ops[first_op:]

    def run(self, seconds, trace):
        """Returns ({metric: (value, unit)}, {report-only value: (value, unit)})."""
        self.clock.install()
        try:
            if trace:
                return self._run_traced(seconds)
            return self._run_untraced(seconds)
        finally:
            self.clock.uninstall()

    def _run_untraced(self, seconds):
        times = []
        for k in range(self.setups):
            t0 = now()
            self.setup(k)
            times.append(now() - t0)
        self.check_once()
        self.measure(seconds)
        op_ms = [s * 1e3 for s, _ in self.ops]
        scans = sum(n for _, n in self.ops)
        busy = sum(s for s, _ in self.ops)
        return {
            "setup_s": (statistics.median(times), "s"),
            "scans_per_s": (scans / busy, "1/s"),
            "step_ms_p50": (statistics.median(op_ms), "ms"),
            "pass_s": (statistics.median(self.passes), "s"),
        }, {
            **self.report_only(),
            "ops": (len(op_ms), "count"),
            "passes": (len(self.passes), "count"),
            "step_ms_p90": (float(np.percentile(op_ms, 90)), "ms"),
        }

    def report_only(self):
        return {} if self.fd_gap is None else {"fd_rel_gap": (self.fd_gap, "fraction")}

    @contextmanager
    def _tracing(self):
        self.tracer.install()
        self.clock.tracer = self.tracer
        try:
            yield
        finally:
            self.clock.tracer = None
            self.tracer.uninstall()

    def _run_traced(self, seconds):
        self.tracer = Tracer()
        with self._tracing():
            self.setup(0)
        self.check_once()
        # Untraced and traced passes alternate, so drift in machine speed
        # falls on both sides of the overhead estimate alike.
        plain, traced = [], []
        start = now()
        while now() - start < seconds or not traced:
            plain += self.measure(0)
            with self._tracing():
                traced += self.measure(0)
        self.tracer.phase = "tail"
        with self._tracing():
            tail_probe(self.samples, self.model_cfg, self.seed, self.workdir)
        m = layer_metrics(self.tracer, self.per_scan)
        overhead = (statistics.median(s / n for s, n in traced)
                    / statistics.median(s / n for s, n in plain)) - 1.0
        m["trace.overhead_frac"] = (overhead, "fraction")
        return m, self.report_only()


class CvSmall(Workload):
    """run_cv at the acceptance shape: 5 folds of 144 training scans, batch 16."""

    name = "cv-small"

    def setup(self, k):
        self.samples, _ = data.generate_synthetic(data.SyntheticSpec(seed=self.seed))
        self.model_cfg = model.ModelConfig(classes=3, **SMALL_MODEL)
        self.train_cfg = training.TrainConfig(
            epochs=1, batch_size=16, mixup_alpha=0.2, alpha=1.0, folds=5, seed=self.seed
        )

    def check_once(self):
        mdl = model.MLCGCN(self.model_cfg, rng=derive_rng(self.seed, "fd-init"))
        batch = first_batch(self.samples, self.train_cfg.batch_size, self.seed)
        self.check_fd(mdl, batch)

    def one_pass(self):
        result = training.run_cv(self.samples, self.model_cfg, self.train_cfg)
        for history in result.histories:
            for epoch in history:
                self.checks.check(
                    all(math.isfinite(epoch[k]) for k in ("ce", "group", "total")),
                    f"non-finite loss {epoch}",
                )
        for report in result.report.folds:
            values = report.values()
            self.checks.check(all(0.0 <= v <= 1.0 for v in values),
                              f"metric outside [0, 1]: {values}")


class TrainPaper(Workload):
    """train_epoch at the paper shape: 2 classes, 32 scans, batch 16."""

    name = "train-paper"

    def setup(self, k):
        self.samples, _ = data.generate_synthetic(paper_spec(self.seed))
        self.model_cfg = model.ModelConfig(classes=2, **PAPER_MODEL)
        self.train_cfg = training.TrainConfig(batch_size=16, seed=self.seed)
        self.model = model.MLCGCN(self.model_cfg, rng=derive_rng(self.seed, "init"))
        self.opt = training.OptimizerState.for_params(self.model.params)
        self.rngs = [derive_rng(self.seed, tag) for tag in ("batches", "mixup", "dropout")]
        self.epoch = 0

    def check_once(self):
        batch = first_batch(self.samples, self.train_cfg.batch_size, self.seed)
        self.check_fd(self.model, batch)

    def one_pass(self):
        self.epoch += 1
        stats = training.train_epoch(
            self.model, self.samples, self.train_cfg, self.opt, *self.rngs, self.epoch
        )
        self.checks.check(all(math.isfinite(v) for v in stats.values()),
                          f"non-finite loss {stats}")


class EvalPaper(Workload):
    """The `mlcgcn eval` path at the paper shape: load, read, predict, score.

    Set-up writes 32 CSV scans and a ~32 MB JSON checkpoint; each pass loads
    both, predicts every scan without a tape and computes the metrics.
    """

    name = "eval-paper"
    setups = 3
    per_scan = True

    def setup(self, k):
        spec = paper_spec(self.seed)
        samples, truth = data.generate_synthetic(spec)
        self.model_cfg = model.ModelConfig(classes=2, **PAPER_MODEL)
        manifest = data.DatasetManifest(spec.class_names(), spec.n_rois, spec.series_len)
        self.manifest = data.write_dataset(samples, truth, manifest, self.workdir / f"dataset-{k}")
        self.ckpt = self.workdir / f"model-{k}.ckpt"
        model.MLCGCN(self.model_cfg, rng=derive_rng(self.seed, "init")).save(self.ckpt)
        self.samples = samples

    def one_pass(self):
        mdl = model.MLCGCN.load(self.ckpt)
        samples = data.load_dataset(self.manifest)
        rows, outputs = [], []
        for s in samples:
            if self.clock.tracer is not None:
                self.clock.tracer.begin_step(1)
            t0 = now()
            probs, levels = mdl.predict(ad.Tensor(s.series))
            self.ops.append((now() - t0, 1))
            if self.clock.tracer is not None:
                self.clock.tracer.end_step()
            rows.append(probs.data)
            outputs.append((probs, levels.adjacencies))
        probs = np.stack(rows)
        truth = np.array([s.label for s in samples], dtype=int)
        report = metrics.compute_metrics(probs, truth)
        t0 = now()
        for p, adjacencies in outputs:
            check_scan(self.checks, p, adjacencies)
        check_report(self.checks, report, probs, truth)
        self.untimed += now() - t0


WORKLOADS = {w.name: w for w in (CvSmall, TrainPaper, EvalPaper)}
