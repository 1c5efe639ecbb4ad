"""Dataset ingestion, synthetic generation, and connectome exports.

File formats
------------
Manifest: JSON with fields {classes, n_rois, series_len, scans:[{id, subject,
label, path}]}; scan paths are relative to the manifest's directory.

Series files: one [n_rois x series_len] array per scan, one row per ROI, one
column per time point. A path ending in `.npy` is a NumPy array file, read
with allow_pickle=False; any other path is comma-delimited numeric text.
write_dataset writes float64 `.npy`. Text with 17 significant digits, as in
datasets written before `.npy`, loads to the same float64 values.

Connectome exports, the same text under one header line, in three formats:
an n x n matrix under ROI labels, an "i,j,weight" edge list, or "roi,score"
node-importance rows. Matrix exports round-trip through `load_connectome`
within 1e-12; the other two are write-only.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .seeding import derive_rng

FLOAT_FMT = "%.17g"

# Loading multiplier of the planted hub ROIs; the other ROIs load 0.6.
HUB_GAIN = 2.2


@dataclass
class ScanSample:
    scan_id: str
    subject_id: str
    label: int
    series: np.ndarray  # [n_rois x series_len]


@dataclass
class ScanRecord:
    id: str
    subject: str
    label: str
    path: str


@dataclass
class DatasetManifest:
    classes: list
    n_rois: int
    series_len: int
    scans: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


@dataclass
class SyntheticSpec:
    """Recipe for a latent-factor dataset with class-dependent connectivity.

    Every class shares one positive factor (with `hubs` amplified loadings,
    giving planted high-importance nodes) plus `latent_rank - 1` secondary
    factors perturbed per class by `strength`. With strength 0 all classes
    share the same expected connectome, which makes them indistinguishable.
    """

    classes: int = 3
    per_class: int = 60
    n_rois: int = 20
    series_len: int = 200
    latent_rank: int = 6
    strength: float = 1.0
    noise: float = 0.5
    seed: int = 0
    hubs: int = 2

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError(f"need >= 2 classes, got {self.classes}")
        if self.per_class < 1:
            raise ConfigError(f"need >= 1 sample per class, got {self.per_class}")
        for name in ("n_rois", "series_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.latent_rank < 1 or self.latent_rank > self.n_rois:
            raise ConfigError(
                f"latent_rank must be in [1, n_rois], got {self.latent_rank} for n={self.n_rois}"
            )
        if self.strength < 0 or self.noise < 0:
            raise ConfigError("strength and noise must be >= 0")
        if not 0 <= self.hubs <= self.n_rois:
            raise ConfigError(f"hubs must be in [0, n_rois], got {self.hubs}")

    def class_names(self):
        return [f"class{j}" for j in range(self.classes)]


def _class_mixing(spec: SyntheticSpec):
    """Per-class loading matrices M_c [n x r]."""
    n, r = spec.n_rois, spec.latent_rank
    shared = derive_rng(spec.seed, "latent-shared")
    g = np.full(n, 0.6)
    g[: spec.hubs] = HUB_GAIN
    base = shared.normal(0.0, 0.25, size=(n, r - 1)) if r > 1 else np.zeros((n, 0))
    mixings = []
    for c in range(spec.classes):
        delta = derive_rng(spec.seed, "latent-class", c).normal(0.0, 0.25, size=base.shape)
        mixings.append(np.column_stack([g, base + spec.strength * delta]))
    return mixings


def expected_connectome(mixing, noise):
    """Model correlation matrix implied by a loading matrix plus sensor noise."""
    cov = mixing @ mixing.T + (noise ** 2) * np.eye(mixing.shape[0])
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)


def generate_synthetic(spec: SyntheticSpec):
    """Draw the dataset; returns (samples, {class name: ground-truth connectome}).

    Each sample is mixing @ white-noise-latents + sensor noise, so the sample
    Pearson matrix converges to the ground-truth connectome as the series
    grows.
    """
    mixings = _class_mixing(spec)
    names = spec.class_names()
    truth = {names[c]: expected_connectome(mixings[c], spec.noise) for c in range(spec.classes)}
    samples = []
    for c in range(spec.classes):
        for u in range(spec.per_class):
            rng = derive_rng(spec.seed, "series", c, u)
            latent = rng.normal(size=(spec.latent_rank, spec.series_len))
            series = mixings[c] @ latent
            if spec.noise > 0:
                series = series + spec.noise * rng.normal(size=series.shape)
            samples.append(
                ScanSample(
                    scan_id=f"{names[c]}_{u:03d}",
                    subject_id=f"subj_{c}_{u:03d}",
                    label=c,
                    series=series,
                )
            )
    return samples, truth


# ---------------------------------------------------------------------------
# on-disk datasets


def _write_csv(path, rows, fmt=FLOAT_FMT, header=""):
    """Write 2-D `rows` under an optional header; `fmt` is per value or per row."""
    try:
        np.savetxt(path, rows, delimiter=",", fmt=fmt, header=header, comments="")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _read_csv(path, what, header=False):
    """A 2-D float array from a CSV file, skipping its header line if it has one."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=int(header), ndmin=2, dtype=np.float64)
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"cannot parse {what} {path}: {exc}") from exc


def _read_npy(path, what):
    """A 2-D real array from a NumPy `.npy` file, as float64; never unpickles."""
    try:
        arr = np.load(path, allow_pickle=False)
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, EOFError) as exc:  # an empty file raises EOFError
        raise DataError(f"cannot parse {what} {path}: {exc}") from exc
    if not isinstance(arr, np.ndarray):  # an .npz archive loads as an NpzFile
        arr.close()
        raise DataError(f"{what} {path} is an .npz archive, not one .npy array")
    if arr.ndim != 2 or arr.dtype.kind not in "iuf":
        raise DataError(f"{what} {path}: expected a 2-D real array, got {arr.ndim}-D {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def write_dataset(samples, truth, manifest: DatasetManifest, outdir, force=False):
    """Materialize a dataset directory: series/, manifest.json, ground truths."""
    out = Path(outdir)
    if out.exists() and any(out.iterdir()) and not force:
        raise ConfigError(f"output directory {out} is not empty (use force to overwrite)")
    stale = [*out.glob("series/*.npy"), *out.glob("series/*.csv"), *out.glob("connectome_*.csv"),
             out / "manifest.json"]
    for path in stale:  # only files this format writes or wrote, so none outlive a rewrite
        path.unlink(missing_ok=True)
    (out / "series").mkdir(parents=True, exist_ok=True)
    records = []
    for s in samples:
        rel = f"series/{s.scan_id}.npy"
        np.save(out / rel, np.asarray(s.series, dtype=np.float64))
        records.append(
            ScanRecord(id=s.scan_id, subject=s.subject_id, label=manifest.classes[s.label], path=rel)
        )
    manifest.scans = records
    manifest_path = out / "manifest.json"
    manifest_path.write_text(manifest.to_json(), encoding="utf-8")
    for name, conn in truth.items():
        export_connectome(conn, out / f"connectome_{name}.csv", fmt="matrix")
    return manifest_path


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest {path} is not valid JSON: {exc}") from exc
    try:
        scans = [ScanRecord(**rec) for rec in doc["scans"]]
        manifest = DatasetManifest(doc["classes"], doc["n_rois"], doc["series_len"], scans)
    except (KeyError, TypeError) as exc:
        raise DataError(f"manifest {path} is missing required fields: {exc}") from exc
    for name in ("n_rois", "series_len"):
        value = getattr(manifest, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise DataError(f"manifest {path}: {name} must be a positive integer, got {value!r}")
    classes = manifest.classes
    if not (isinstance(classes, list) and all(isinstance(c, str) for c in classes)
            and len(set(classes)) == len(classes)):
        raise DataError(f"manifest {path}: classes must be a list of distinct strings, got {classes!r}")
    seen = set()
    for i, rec in enumerate(scans):
        for name, value in vars(rec).items():
            if not isinstance(value, str):
                raise DataError(f"manifest {path}: scan {i} field {name!r} must be a string, "
                                f"got {value!r}")
        if rec.id in seen:
            raise DataError(f"manifest {path}: duplicate scan id {rec.id!r}")
        seen.add(rec.id)
    return manifest


def load_dataset(manifest_path, manifest=None):
    """Load and validate every scan named by a manifest.

    `manifest` is the manifest already loaded from `manifest_path`, if the
    caller has it. Returns ScanSamples ordered by scan_id. Any missing or
    unreadable file, unknown label, dimension mismatch or non-finite value
    raises a DataError naming the offending scan.
    """
    manifest_path = Path(manifest_path)
    if manifest is None:
        manifest = load_manifest(manifest_path)
    base = manifest_path.parent
    samples = []
    for rec in sorted(manifest.scans, key=lambda r: r.id):
        if rec.label not in manifest.classes:
            raise DataError(f"scan {rec.id}: unknown label {rec.label!r}")
        fpath = base / rec.path
        if not fpath.exists():
            raise DataError(f"scan {rec.id}: series file {fpath} does not exist")
        read = _read_npy if fpath.suffix == ".npy" else _read_csv
        try:
            series = read(fpath, "series file")
        except DataError as exc:
            raise DataError(f"scan {rec.id}: {exc}") from exc
        if series.shape[0] != manifest.n_rois:
            raise DataError(
                f"scan {rec.id}: expected {manifest.n_rois} ROI rows, found {series.shape[0]}"
            )
        if series.shape[1] != manifest.series_len:
            raise DataError(
                f"scan {rec.id}: expected series length {manifest.series_len}, "
                f"found {series.shape[1]}"
            )
        if not np.isfinite(series).all():
            raise DataError(f"scan {rec.id}: series contains non-finite values")
        samples.append(
            ScanSample(
                scan_id=rec.id,
                subject_id=rec.subject,
                label=manifest.classes.index(rec.label),
                series=series,
            )
        )
    return samples


# ---------------------------------------------------------------------------
# connectome summaries and exports


def _as_matrix(a):
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {arr.shape}")
    return arr


class GraphStats:
    """Streaming summaries of a dataset pass's graphs in O(C·K·n²) memory for C
    classes and K graphs per scan: the scan-order running sum of every graph
    and, per class and stack, a Welford mean and M2 (sum of squared
    deviations), merged slice by slice with Chan's pairwise update."""

    def __init__(self):
        self.total, self.count = None, 0
        self.groups = {}  # (label, stack index) -> (members, mean [n x n], M2)

    def add(self, stacks, labels):
        """Add one slice: its K selected [B x n x n] stacks and its B labels."""
        stacks, labels = [np.asarray(s, dtype=np.float64) for s in stacks], np.asarray(labels)
        if any(s.ndim != 3 or s.shape[1] != s.shape[2] or len(s) != len(labels) for s in stacks):
            raise ContractError("expected [B x n x n] stacks and B labels")
        for scan in zip(*stacks):
            for mat in scan:
                self.total = mat.copy() if self.total is None else np.add(self.total, mat, out=self.total)
                self.count += 1
        for k, stack in enumerate(stacks):
            for label in np.unique(labels):
                part = stack[labels == label]
                m, mean = len(part), part.mean(axis=0)
                n, old_mean, m2 = self.groups.get((label, k), (0, mean, 0.0))
                delta = mean - old_mean  # 0 for a class's first members
                m2 += ((part - mean) ** 2).sum() + (delta * delta).sum() * (n * m / (n + m))
                self.groups[label, k] = (n + m, old_mean + delta * (m / (n + m)), m2)

    def mean(self):
        """Elementwise mean of every graph added, summed in scan order."""
        if not self.count:
            raise ContractError("mean of no graphs")
        return self.total / self.count

    def dissimilarity(self):
        """(1/K)·Σ_k Σ_c M2[c, k] / n_c: the value `group_loss` gives for all
        the scans added as one batch."""
        if not self.count:
            raise ContractError("dissimilarity of no graphs")
        levels = len({k for _, k in self.groups})
        return float(sum(m2 / n for n, _, m2 in self.groups.values()) * (1.0 / levels))


def top_edges(a, fraction):
    """Strongest off-diagonal edges of a symmetric matrix.

    Returns the ceil(fraction * n(n-1)/2) top upper-triangle entries as
    (i, j, weight) tuples sorted descending by |weight|; ties break by
    (i, j) order.
    """
    a = _as_matrix(a)
    if not 0 < fraction <= 1:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    n = a.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    weights = a[iu, ju]
    count = math.ceil(fraction * n * (n - 1) / 2)
    key = np.abs(weights)
    order = sorted(range(len(weights)), key=lambda e: (-key[e], iu[e], ju[e]))
    return [(int(iu[e]), int(ju[e]), float(weights[e])) for e in order[:count]]


def node_importance(a):
    """Rank nodes by their signed summed off-diagonal edge weights, descending.

    Ties keep ascending node order.
    """
    a = _as_matrix(a)
    scores = a.sum(axis=1) - np.diag(a)
    order = np.argsort(-scores, kind="stable")
    return [(int(i), float(scores[i])) for i in order]


def export_connectome(a, path, fmt="matrix", fraction=1.0, top=None):
    """Write a connectome as delimited text.

    matrix: header row of ROI labels (roi0, roi1, ...) then n rows of n values.
    edge-list: header "i,j,weight" then one row per top_edges(a, fraction)
    edge, skipping exact-zero weights (a zero matrix gives an empty body).
    node-importance: header "roi,score" then the first `top` rows of
    node_importance(a) (every node when `top` is None).
    """
    a = _as_matrix(a)
    if fmt == "matrix":
        _write_csv(path, a, header=",".join(f"roi{i}" for i in range(a.shape[0])))
    elif fmt == "edge-list":
        edges = [edge for edge in top_edges(a, fraction) if edge[2] != 0.0]
        _write_csv(path, np.reshape(edges, (-1, 3)), f"%d,%d,{FLOAT_FMT}", "i,j,weight")
    elif fmt == "node-importance":
        _write_csv(path, node_importance(a)[:top], f"%d,{FLOAT_FMT}", "roi,score")
    else:
        raise ConfigError(f"unknown export format {fmt!r}")


def load_connectome(path):
    """Read back a matrix export (skipping its header row)."""
    return _read_csv(path, "connectome", header=True)
