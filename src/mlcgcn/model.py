"""Multi-level connectome GCN.

The network embeds each ROI time series, runs a stack of spatio-temporal
feature extractors (a transformer pathway over transposed features plus a
trend/seasonal linear-decomposition pathway), builds one cosine-similarity
adjacency per level, encodes the baseline Pearson graph and every generated
graph with its own two-layer GCN, and classifies the concatenated per-level
readout embeddings.
"""

import functools
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ForwardError, ShapeError

CHECKPOINT_FORMAT = "mlcgcn-checkpoint-v2"


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# What JSON value each ModelConfig field type accepts in a checkpoint.
_JSON_CONFIG_TYPES = {
    int: _is_int,
    float: lambda v: _is_int(v) or isinstance(v, float),
    bool: lambda v: isinstance(v, bool),
    Optional[tuple]: lambda v: v is None or (isinstance(v, list) and all(map(_is_int, v))),
}


@dataclass
class ModelConfig:
    """Architecture hyperparameters. Defaults follow the reference setup."""

    series_len: int
    classes: int
    n_rois: int = 200
    embed_len: int = 64
    conv_kernels: int = 8
    kernel_size: int = 5
    hidden_size: int = 64
    levels: int = 6
    attention_heads: int = 4
    gcn_hidden: int = 64
    readout_dim: int = 64
    dropout_rate: float = 0.2
    use_sfe: bool = True
    use_tfe: bool = True
    use_positional_encoding: bool = True
    level_subset: Optional[tuple] = None

    def __post_init__(self):
        for f in fields(self):
            if f.type is int and getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")
        if self.embed_len > self.series_len:
            raise ConfigError(
                f"embed_len ({self.embed_len}) must not exceed series_len ({self.series_len})"
            )
        if not (self.use_sfe or self.use_tfe):
            raise ConfigError("at least one of use_sfe/use_tfe must be enabled")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd, got {self.kernel_size}")
        if self.use_sfe and self.n_rois % self.attention_heads != 0:
            raise ConfigError(
                f"n_rois ({self.n_rois}) must be divisible by attention_heads "
                f"({self.attention_heads})"
            )
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if self.level_subset is not None:
            subset = tuple(sorted(set(int(v) for v in self.level_subset)))
            if not subset:
                raise ConfigError("level_subset must not be empty")
            if subset[0] < 0 or subset[-1] > self.levels:
                raise ConfigError(
                    f"level_subset entries must lie in [0, {self.levels}], got {subset}"
                )
            object.__setattr__(self, "level_subset", subset)

    @property
    def gcn_levels(self):
        """Graph levels encoded by GCNs: 0 is the Pearson graph, 1..K generated."""
        if self.level_subset is not None:
            return self.level_subset
        return tuple(range(self.levels + 1))


@dataclass
class LevelOutputs:
    """Per-level artifacts of one forward pass; the leading axis B of every
    tensor is present only when `predict` was given a batch."""

    adjacencies: list  # K tensors [B x n x n]
    pearson: Tensor  # [B x n x n]
    embeddings: list  # one [B x e] tensor per encoded graph level


def positional_encoding(n_tokens, dim):
    """Constant sinusoidal position table [n_tokens x dim].

    Even columns hold sin(pos / 10000^(col/dim)), odd columns the matching
    cosine. Values are bounded in [-1, 1] and never trained.
    """
    if dim < 1:
        raise ConfigError(f"positional encoding dim must be >= 1, got {dim}")
    pos = np.arange(n_tokens, dtype=np.float64)[:, None]
    even = np.arange(0, dim, 2, dtype=np.float64)
    denom = np.power(10000.0, even / dim)
    pe = np.zeros((n_tokens, dim))
    pe[:, 0::2] = np.sin(pos / denom)
    n_odd = pe[:, 1::2].shape[1]
    pe[:, 1::2] = np.cos(pos / denom[:n_odd])
    return Tensor(pe)


def param_shapes(cfg: ModelConfig) -> dict:
    """Name -> shape of every parameter block, in creation order.

    The one definition of the parameter layout: `init_params` fills it and
    `MLCGCN.load` checks a checkpoint against it.
    """
    n, L, l = cfg.n_rois, cfg.series_len, cfg.embed_len
    m, t, h = cfg.conv_kernels, cfg.kernel_size, cfg.hidden_size
    g, e = cfg.gcn_hidden, cfg.readout_dim

    def norm(prefix, d):  # a layer norm's gain and shift
        return {prefix + "gain": (d,), prefix + "shift": (d,)}

    def mlp2(prefix, d_in, hidden, d_out):  # the blocks `_mlp2` reads
        return {prefix + "w1": (d_in, hidden), prefix + "b1": (hidden,),
                prefix + "w2": (hidden, d_out), prefix + "b2": (d_out,)}

    shapes = {"embed.kernels": (m, t), "embed.bias": (m,), "embed.w": (m * L, l)}
    for i in range(1, cfg.levels + 1):
        if cfg.use_sfe:
            p = f"stfe{i}.sfe."
            shapes.update(norm(p + "ln1.", n))
            shapes.update({p + name: (n, n) for name in ("wq", "wk", "wv", "wo")})
            shapes.update({**norm(p + "ln2.", n), **mlp2(p + "ffn.", n, h, n)})
            shapes.update(norm(p + "ln_out.", n))
        if cfg.use_tfe:
            p = f"stfe{i}.tfe."
            shapes.update({p + "wt": (l, l), p + "ws": (l, l), **mlp2(p + "mlp.", l, l, l)})
            shapes.update(norm(p + "norm.", l))
        shapes.update(mlp2(f"stfe{i}.fuse.", l, l, l))
    for k in cfg.gcn_levels:
        shapes.update({f"gcn{k}.w0": (n, g), f"gcn{k}.w1": (g, g),
                       f"readout{k}.w": (g, e), f"readout{k}.b": (e,)})
    shapes.update(mlp2("head.", len(cfg.gcn_levels) * e, h, cfg.classes))
    return shapes


def init_params(cfg: ModelConfig, rng) -> dict:
    """Build the full parameter dictionary for a config.

    Blocks follow `param_shapes` order. 2-D blocks are drawn uniform in
    +-1/sqrt(fan_in), fan_in being the row count (the kernel width for
    `embed.kernels`); `.gain` vectors start at one, other vectors at zero.
    """
    params = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[1] if name == "embed.kernels" else shape[0])
            value = rng.uniform(-bound, bound, size=shape)
        else:
            value = np.ones(shape) if name.endswith(".gain") else np.zeros(shape)
        params[name] = Tensor(value, requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# forward operations
#
# Every function below takes per-scan tensors with optional leading batch
# axes, [..., n x L] or [..., n x l]; shape checks compare the last two axes.


def pearson_connectome(x) -> Tensor:
    """Pearson correlation matrix [..., n x n] of the rows of x [..., n x L]:
    `ad.cosine_graph` of the mean-centred series, a constant (no tape record).

    A constant row is centred to exactly zero, so its correlations are 0 and
    the kernel's `ZeroNormRowsWarning` counts it.
    """
    data = x.data
    if data.ndim < 2:
        raise ShapeError(f"pearson_connectome expects [..., n x L], got shape {data.shape}")
    centred = data - data.mean(axis=-1, keepdims=True)
    centred[data.max(axis=-1) == data.min(axis=-1)] = 0.0
    return ad.cosine_graph(centred, "pearson")


def generate_adjacency(h_level: Tensor, level) -> Tensor:
    """Cosine-similarity graph [..., n x n] of level `level`'s feature rows: one
    `ad.cosine_graph` record, whose zero-norm-row warning names the level."""
    return ad.cosine_graph(h_level, f"level {level}")


def _dense(x, w):
    """x [..., d] @ w [d x e]: the leading axes fold into the rows of one matmul."""
    out = ad.matmul(ad.reshape(x, (-1, x.data.shape[-1])), w)
    return ad.reshape(out, (*x.data.shape[:-1], w.data.shape[1]))


@functools.lru_cache(maxsize=8)
def _tap_placement(L, t):
    """Constant 0/1 map [(L+t-1) x t*L] from (tap, position) to padded position.

    Entry [pos + tap, tap*L + pos] is 1: padded input position pos + tap is
    what kernel tap `tap` reads for output position pos. Cached read-only, so
    every forward on a tape shares one array (a run uses one (L, t)).
    """
    placement = np.zeros((L + t - 1, t * L))
    tap, pos = np.divmod(np.arange(t * L), L)
    placement[pos + tap, np.arange(t * L)] = 1.0
    placement.flags.writeable = False
    return placement


def embed(x, params, cfg: ModelConfig) -> Tensor:
    """Per-ROI temporal embedding [..., n x l]: conv, flatten, project, activate, +PE.

    The zero-padded conv (cross-correlation, one bias per kernel), the
    m-major flatten and the projection `embed.w` are all linear, so they
    compose into one map from the padded series: v [(L+t-1) x l], built from
    the parameters on every call, plus the constant row c [l] the biases
    give. The series x is data; no gradient flows to it.
    """
    n, L, l = cfg.n_rois, cfg.series_len, cfg.embed_len
    m, t = cfg.conv_kernels, cfg.kernel_size
    if x.data.shape[-2:] != (n, L):
        raise ShapeError(f"input series must be [{n} x {L}], got {x.data.shape}")
    w = ad.reshape(params["embed.w"], (m, L * l))  # [kernel, position * l]
    taps = ad.reshape(ad.matmul(ad.transpose(params["embed.kernels"]), w), (t * L, l))
    v = ad.matmul(Tensor(_tap_placement(L, t)), taps)
    per_position = ad.reshape(ad.matmul(ad.reshape(params["embed.bias"], (1, m)), w), (L, l))
    c = ad.matmul(Tensor(np.ones((1, L))), per_position)  # the sum over positions
    pad = (t - 1) // 2
    padded = Tensor(np.pad(x.data, [(0, 0)] * (x.data.ndim - 1) + [(pad, pad)]))
    z = ad.relu(ad.add(_dense(padded, v), c))
    if cfg.use_positional_encoding:
        z = ad.add(z, positional_encoding(n, l))
    return z


@functools.lru_cache(maxsize=8)
def _window_counts(l, window):
    """Constant [l x l] counts of the replicate-padded moving average of size
    `window`: count[j, i] is how often position j falls in output i's
    edge-padded window, so each column sums to `window`. The trend is
    (x·counts)·(1/window); the integer counts go first, so a constant row
    maps to itself. Cached read-only, so every forward shares one array.
    """
    src = np.clip(np.arange(l)[:, None] + np.arange(window) - (window - 1) // 2, 0, l - 1)
    counts = np.zeros((l, l))
    np.add.at(counts, (src, np.arange(l)[:, None]), 1.0)
    counts.flags.writeable = False
    return counts


def _mlp2(x, params, prefix, keep=None, rate=0.0):
    """ReLU two-layer perceptron, hidden units dropped by `keep`: one `ad.mlp2` record."""
    return ad.mlp2(x, *(params[prefix + name] for name in ("w1", "b1", "w2", "b2")), keep, rate)


def _keep_mask(shape, cfg: ModelConfig, rng):
    """A bool dropout mask of `shape` drawn from rng, or None: dropout is on
    iff an rng is given and the rate is above 0."""
    if rng is None or cfg.dropout_rate == 0.0:
        return None
    return rng.random(shape) >= cfg.dropout_rate


def sfe_forward(h_in, params, cfg: ModelConfig, level, rng=None):
    """Spatial pathway: one transformer-encoder layer over the transposed features.

    The tokens are the l embedding positions and the model width is the ROI
    axis: pre-norm attention and feed-forward sublayers plus a final layer
    norm, as one `ad.encoder_layer` record. With dropout on, the attention
    mask and then the feed-forward mask [..., l x n] are drawn from `rng`.
    """
    p = f"stfe{level}.sfe."
    *lead, n, l = h_in.data.shape
    keep = tuple(_keep_mask((*lead, l, n), cfg, rng) for _ in range(2))
    blocks = {name: params[p + name] for name in ad.ENCODER_BLOCKS}
    return ad.encoder_layer(h_in, blocks, cfg.attention_heads, keep, cfg.dropout_rate)


def tfe_forward(h_in, params, cfg: ModelConfig, level):
    """Temporal pathway: trend/seasonal decomposition, linear maps, MLP, norm.

    The moving average (replicate-padded, window = kernel_size) gives the
    trend and the residual is the seasonal part, as one `ad.tfe_layer`
    record.
    """
    p = f"stfe{level}.tfe."
    blocks = {name: params[p + name] for name in ad.TFE_BLOCKS}
    counts = _window_counts(cfg.embed_len, cfg.kernel_size)
    return ad.tfe_layer(h_in, blocks, counts, cfg.kernel_size)


def stfe_forward(h_in, level, params, cfg: ModelConfig, rng=None):
    """One feature-extraction level: run the enabled pathways, fuse, MLP."""
    if not 1 <= level <= cfg.levels:
        raise ConfigError(f"level must be in [1, {cfg.levels}], got {level}")
    parts = []
    if cfg.use_tfe:
        parts.append(tfe_forward(h_in, params, cfg, level))
    if cfg.use_sfe:
        parts.append(sfe_forward(h_in, params, cfg, level, rng))
    fused = parts[0] if len(parts) == 1 else ad.add(parts[0], parts[1])
    return _mlp2(fused, params, f"stfe{level}.fuse.")


def gcn_forward(adj, node_feats, params, cfg: ModelConfig, level):
    """Two graph-convolution layers with added self-connections, as one
    `ad.gcn2` record.

    Each layer is relu((A + I) h W) with no degree normalization, computed
    as A (h W) + h W so the n x n product meets the narrow h W and no
    identity matrix is built; node features start from the Pearson matrix.
    The record keeps each layer's h W and the first layer's output.
    """
    n = cfg.n_rois
    if adj.data.shape[-2:] != (n, n):
        raise ShapeError(f"adjacency must be [{n} x {n}], got {adj.data.shape}")
    return ad.gcn2(adj, node_feats, params[f"gcn{level}.w0"], params[f"gcn{level}.w1"])


def readout(gcn_out, params, cfg: ModelConfig, level):
    """Mean-pool node encodings [..., n x h] into one [..., e] embedding per level."""
    pooled = ad.mean_axis(gcn_out, axis=-2)
    return ad.relu(ad.add(_dense(pooled, params[f"readout{level}.w"]), params[f"readout{level}.b"]))


def _check_finite(tensor, what):
    if not np.isfinite(tensor.data).all():
        raise ForwardError(f"non-finite values in {what}")


def predict(x, params, cfg: ModelConfig, rng=None):
    """Full forward pass for a batch of scans [B x n x L] or one scan [n x L].

    Returns (class probabilities [B x c], LevelOutputs). One scan runs as a
    batch of one whose batch axis is dropped again on the way out: the
    probabilities are [c] and every LevelOutputs tensor loses its leading B.
    The generated graphs of all K levels are produced regardless of the
    encoded subset so losses and exports can see them. Dropout masks (see
    `_keep_mask`) are drawn level by level, then the head's [B x hidden_size].
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    single = x.data.ndim == 2
    if single:
        x = ad.reshape(x, (1, *x.data.shape))
    pearson = pearson_connectome(x)
    z = embed(x, params, cfg)
    _check_finite(z, "embedding")

    adjacencies = []
    h = z
    for level in range(1, cfg.levels + 1):
        h = stfe_forward(h, level, params, cfg, rng)
        _check_finite(h, f"features at level {level}")
        adjacencies.append(generate_adjacency(h, level))  # finite, as h is: entries lie in [-1, 1]

    embeddings = []
    for k in cfg.gcn_levels:
        graph = pearson if k == 0 else adjacencies[k - 1]
        encoded = gcn_forward(graph, pearson, params, cfg, k)
        embeddings.append(readout(encoded, params, cfg, k))

    stacked = ad.concat(embeddings, axis=-1)  # [B x (encoded levels * e)]
    keep = _keep_mask((len(stacked.data), cfg.hidden_size), cfg, rng)
    probs = ad.softmax_rows(_mlp2(stacked, params, "head.", keep, cfg.dropout_rate))
    _check_finite(probs, "class probabilities")

    if single:  # drop the batch axis of one again
        probs = ad.reshape(probs, (cfg.classes,))
        embeddings = [ad.reshape(e, (cfg.readout_dim,)) for e in embeddings]
        adjacencies = [ad.reshape(a, a.data.shape[1:]) for a in adjacencies]
        pearson = Tensor(pearson.data[0])
    return probs, LevelOutputs(adjacencies, pearson, embeddings)


class MLCGCN:
    """Config + parameters bundle with save/load and a predict shortcut."""

    def __init__(self, config: ModelConfig, rng=None, params=None):
        self.config = config
        if params is None:
            params = init_params(config, rng if rng is not None else np.random.default_rng(0))
        self.params = params

    def predict(self, x, rng=None):
        return predict(x, self.params, self.config, rng=rng)

    def save(self, path):
        """Write the checkpoint: one canonical JSON header line, then raw values.

        The header holds the format, the config and the `[name, shape]` of
        every block in `param_shapes` order; the body is each block's
        little-endian float64 bytes in that order. Reloading reproduces
        bit-identical predictions and re-saving reproduces identical bytes.
        """
        names = list(param_shapes(self.config))
        blocks = [[name, list(self.params[name].data.shape)] for name in names]
        header = {"format": CHECKPOINT_FORMAT, "config": asdict(self.config), "blocks": blocks}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
            for name in names:
                fh.write(np.ascontiguousarray(self.params[name].data, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path):
        try:
            with open(path, "rb") as fh:
                header = json.loads(fh.readline())
                body = fh.read()
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
        found = header.get("format") if isinstance(header, dict) else None
        if found != CHECKPOINT_FORMAT:
            raise ConfigError(f"checkpoint {path} has format {found!r}, not {CHECKPOINT_FORMAT!r}")
        lacking = sorted({"config", "blocks"} - header.keys())
        if lacking:
            raise ConfigError(f"checkpoint {path} lacks {lacking}")
        config = header["config"]
        if not isinstance(config, dict):
            raise ConfigError(f"checkpoint config in {path} is not an object: {config!r}")
        keys = config.keys()
        names = {f.name for f in fields(ModelConfig)}
        missing, unknown = sorted(names - keys), sorted(keys - names)
        if missing or unknown:
            raise ConfigError(
                f"checkpoint config in {path} does not fit ModelConfig: "
                f"missing keys {missing}, unknown keys {unknown}"
            )
        for f in fields(ModelConfig):
            value = config[f.name]
            if not _JSON_CONFIG_TYPES[f.type](value):
                raise ConfigError(
                    f"checkpoint config key {f.name!r} in {path} has a value of the wrong type: "
                    f"{value!r}"
                )
        try:
            cfg = ModelConfig(**config)
        except ConfigError as exc:
            raise ConfigError(f"checkpoint config in {path} is invalid: {exc}") from exc
        shapes = param_shapes(cfg)
        blocks = header["blocks"]
        pairs = isinstance(blocks, list) and all(isinstance(b, list) and len(b) == 2 for b in blocks)
        if not pairs or [name for name, _ in blocks] != list(shapes):
            raise ConfigError(f"checkpoint parameter names do not match the config in {path}")
        for name, shape in blocks:
            if shape != list(shapes[name]):
                raise ConfigError(
                    f"checkpoint block {name!r} has shape {shape}, "
                    f"the config needs {list(shapes[name])} in {path}"
                )
        sizes = [math.prod(shape) for shape in shapes.values()]
        if len(body) != 8 * sum(sizes):
            raise ConfigError(f"checkpoint body in {path} has {len(body)} bytes, not {8 * sum(sizes)}")
        values = np.split(np.frombuffer(body, dtype="<f8"), np.cumsum(sizes)[:-1])
        params = {  # astype copies: every block owns a writeable C-contiguous array
            name: Tensor(v.reshape(shape).astype(np.float64), requires_grad=True)
            for (name, shape), v in zip(shapes.items(), values)
        }
        return cls(cfg, params=params)
