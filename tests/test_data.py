"""Dataset I/O, the synthetic generator, and connectome exports."""

import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlcgcn.cli import level_pick
from mlcgcn.data import (
    DatasetManifest,
    GraphStats,
    SyntheticSpec,
    export_connectome,
    generate_synthetic,
    load_connectome,
    load_dataset,
    load_manifest,
    node_importance,
    top_edges,
    write_dataset,
)
from mlcgcn.errors import ConfigError, ContractError, DataError
from mlcgcn.losses import group_loss
from mlcgcn.model import LevelOutputs, Tensor, pearson_connectome


# ---------------------------------------------------------------------------
# synthetic generation


def test_synthetic_deterministic():
    spec = SyntheticSpec(per_class=3, seed=11)
    a, truth_a = generate_synthetic(spec)
    b, truth_b = generate_synthetic(spec)
    for sa, sb in zip(a, b):
        assert sa.scan_id == sb.scan_id
        np.testing.assert_array_equal(sa.series, sb.series)
    for name in truth_a:
        np.testing.assert_array_equal(truth_a[name], truth_b[name])


def test_synthetic_pearson_converges_to_ground_truth():
    # law of large numbers: noiseless full-rank data at L=2000
    spec = SyntheticSpec(
        classes=2, per_class=1, n_rois=10, series_len=2000,
        latent_rank=10, noise=0.0, seed=3, hubs=1,
    )
    samples, truth = generate_synthetic(spec)
    f = pearson_connectome(Tensor(samples[0].series)).data
    assert np.abs(f - truth["class0"]).max() < 0.05


def test_synthetic_zero_strength_gives_identical_connectomes():
    spec = SyntheticSpec(strength=0.0, per_class=2, seed=5)
    _, truth = generate_synthetic(spec)
    names = list(truth)
    for name in names[1:]:
        np.testing.assert_array_equal(truth[names[0]], truth[name])


def test_synthetic_positive_strength_gives_distinct_connectomes():
    spec = SyntheticSpec(strength=1.0, per_class=2, seed=5)
    _, truth = generate_synthetic(spec)
    names = list(truth)
    assert np.abs(truth[names[0]] - truth[names[1]]).max() > 0.01


def test_synthetic_hub_nodes_rank_first_across_seeds():
    hits = 0
    runs = 20
    for seed in range(runs):
        spec = SyntheticSpec(seed=seed)
        _, truth = generate_synthetic(spec)
        ok = all(
            {r for r, _ in node_importance(conn)[: spec.hubs]} == set(range(spec.hubs))
            for conn in truth.values()
        )
        hits += ok
    assert hits / runs > 0.9


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(latent_rank=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(latent_rank=50, n_rois=20)
    with pytest.raises(ConfigError):
        SyntheticSpec(classes=1)


# ---------------------------------------------------------------------------
# dataset round trips


def _write_tiny_dataset(tmp_path, n=6, length=20, per_class=2, classes=2, seed=0):
    spec = SyntheticSpec(
        classes=classes, per_class=per_class, n_rois=n, series_len=length,
        latent_rank=min(4, n), seed=seed, hubs=1,
    )
    samples, truth = generate_synthetic(spec)
    manifest = DatasetManifest(classes=spec.class_names(), n_rois=n, series_len=length)
    return write_dataset(samples, truth, manifest, tmp_path / "data"), samples


def test_empty_manifest_loads_empty_dataset(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(
        json.dumps({"classes": ["a", "b"], "n_rois": 4, "series_len": 10, "scans": []})
    )
    assert load_dataset(path) == []


def test_dataset_round_trip(tmp_path):
    manifest_path, originals = _write_tiny_dataset(tmp_path)
    loaded = load_dataset(manifest_path)
    assert len(loaded) == len(originals)
    by_id = {s.scan_id: s for s in originals}
    for sample in loaded:
        np.testing.assert_allclose(sample.series, by_id[sample.scan_id].series, atol=1e-12)
        assert sample.label == by_id[sample.scan_id].label
    assert [s.scan_id for s in loaded] == sorted(s.scan_id for s in loaded)


def test_dataset_wrong_length_names_scan(tmp_path):
    manifest_path, _ = _write_tiny_dataset(tmp_path)
    doc = json.loads(manifest_path.read_text())
    doc["series_len"] = 99
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="class0_000"):
        load_dataset(manifest_path)


def test_manifest_duplicate_scan_id_names_it(tmp_path):
    manifest_path, _ = _write_tiny_dataset(tmp_path)
    doc = json.loads(manifest_path.read_text())
    doc["scans"].append(doc["scans"][1])
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"duplicate scan id '{doc['scans'][1]['id']}'"):
        load_manifest(manifest_path)


@pytest.mark.parametrize("name, value", [
    ("n_rois", "abc"), ("n_rois", [8]), ("n_rois", 20.7), ("n_rois", True), ("n_rois", 0),
    ("series_len", "30"), ("series_len", -1), ("classes", "ab"), ("classes", ["a", "a"]),
    ("classes", ["a", 1]),
])
def test_manifest_malformed_geometry_names_the_field(tmp_path, name, value):
    manifest_path, _ = _write_tiny_dataset(tmp_path)
    doc = json.loads(manifest_path.read_text())
    doc[name] = value
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=name):
        load_manifest(manifest_path)


@pytest.mark.parametrize("name, value", [
    ("id", 7), ("id", ["a"]), ("subject", None), ("label", 0), ("path", 5), ("path", {"a": 1}),
])
def test_manifest_scan_field_of_another_type_names_the_scan_and_field(tmp_path, name, value):
    manifest_path, _ = _write_tiny_dataset(tmp_path)
    doc = json.loads(manifest_path.read_text())
    doc["scans"][1][name] = value
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"scan 1 field '{name}' must be a string"):
        load_manifest(manifest_path)


def test_dataset_missing_file_names_scan(tmp_path):
    manifest_path, _ = _write_tiny_dataset(tmp_path)
    victim = next((tmp_path / "data" / "series").iterdir())
    victim.unlink()
    with pytest.raises(DataError, match=victim.stem):
        load_dataset(manifest_path)


def test_dataset_unknown_label_names_scan(tmp_path):
    manifest_path, _ = _write_tiny_dataset(tmp_path)
    doc = json.loads(manifest_path.read_text())
    doc["scans"][0]["label"] = "mystery"
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=doc["scans"][0]["id"]):
        load_dataset(manifest_path)


def test_csv_series_written_before_npy_load_to_the_same_bytes(tmp_path):
    manifest_path, samples = _write_tiny_dataset(tmp_path)
    old = tmp_path / "old"
    (old / "series").mkdir(parents=True)
    doc = json.loads(manifest_path.read_text())
    by_id = {s.scan_id: s for s in samples}
    for scan in doc["scans"]:
        assert scan["path"] == f"series/{scan['id']}.npy"
        scan["path"] = f"series/{scan['id']}.csv"
        np.savetxt(old / scan["path"], by_id[scan["id"]].series, delimiter=",", fmt="%.17g")
    (old / "manifest.json").write_text(json.dumps(doc))
    new, legacy = load_dataset(manifest_path), load_dataset(old / "manifest.json")
    assert [s.scan_id for s in legacy] == [s.scan_id for s in new] == sorted(by_id)
    for a, b in zip(new, legacy):
        assert (a.subject_id, a.label) == (b.subject_id, b.label)
        assert a.series.dtype == b.series.dtype == np.float64
        assert a.series.tobytes() == b.series.tobytes() == by_id[a.scan_id].series.tobytes()


def _good_series(n=6, length=20):
    return np.random.default_rng(0).normal(size=(n, length))


def _with_value(value):
    series = _good_series()
    series[2, 5] = value
    return series


def _npz_bytes(path):
    archive = io.BytesIO()
    np.savez(archive, series=_good_series())
    path.write_bytes(archive.getvalue())


def _truncated(path):
    np.save(path, _good_series())
    path.write_bytes(path.read_bytes()[:-8])


SERIES_REJECTIONS = {
    "csv-nan": (".csv", lambda p: np.savetxt(p, _with_value(np.nan), delimiter=",", fmt="%.17g"),
                "series contains non-finite values"),
    "csv-ragged": (".csv", lambda p: p.write_text("1,2,3\n4,5\n"), "cannot parse"),
    "csv-non-numeric": (".csv", lambda p: p.write_text("1,2,3\n4,abc,6\n"), "cannot parse"),
    "npy-empty": (".npy", lambda p: p.write_bytes(b""), "cannot parse"),
    "npy-npz-archive": (".npy", _npz_bytes, "is an .npz archive"),
    "npy-object": (".npy", lambda p: np.save(p, np.array([[1.0, None]], dtype=object)),
                   "cannot parse .*[Oo]bject arrays"),
    "npy-1d": (".npy", lambda p: np.save(p, np.zeros(20)), "expected a 2-D real array, got 1-D"),
    "npy-complex": (".npy", lambda p: np.save(p, _good_series().astype(complex)),
                    "expected a 2-D real array, got 2-D complex128"),
    "npy-truncated": (".npy", _truncated, "cannot parse"),
    "npy-inf": (".npy", lambda p: np.save(p, _with_value(-np.inf)),
                "series contains non-finite values"),
}


@pytest.mark.parametrize("case", list(SERIES_REJECTIONS))
def test_bad_series_file_raises_a_data_error_naming_the_scan(tmp_path, case):
    suffix, write, cause = SERIES_REJECTIONS[case]
    manifest_path, _ = _write_tiny_dataset(tmp_path)
    doc = json.loads(manifest_path.read_text())
    scan = doc["scans"][1]
    scan["path"] = f"series/{scan['id']}{suffix}"
    write(manifest_path.parent / scan["path"])
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"^scan {scan['id']}: .*{cause}"):
        load_dataset(manifest_path)


def test_npy_series_of_another_real_dtype_loads_as_float64(tmp_path):
    manifest_path, _ = _write_tiny_dataset(tmp_path)
    doc = json.loads(manifest_path.read_text())
    victim = manifest_path.parent / doc["scans"][0]["path"]
    ints = np.arange(6 * 20, dtype=np.int32).reshape(6, 20)
    np.save(victim, ints)
    loaded = {s.scan_id: s.series for s in load_dataset(manifest_path)}[doc["scans"][0]["id"]]
    assert loaded.dtype == np.float64
    np.testing.assert_array_equal(loaded, ints)


def test_write_dataset_refuses_nonempty_dir(tmp_path):
    _write_tiny_dataset(tmp_path)
    with pytest.raises(ConfigError, match="not empty"):
        _write_tiny_dataset(tmp_path)


# ---------------------------------------------------------------------------
# graph summaries


def _mean_of(*slices):
    """GraphStats.mean over slices given as lists of [B x n x n] stacks, all
    of one class."""
    stats = GraphStats()
    for stacks in slices:
        stats.add(stacks, [0] * len(stacks[0]))
    return stats.mean()


def test_mean_graph_single_sample_identity():
    a = np.arange(9.0).reshape(3, 3)
    np.testing.assert_array_equal(_mean_of([a[None]]), a)


def test_mean_graph_cancellation():
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    b = np.array([[1.0, -0.5], [-0.5, 1.0]])
    np.testing.assert_array_equal(_mean_of([a[None]], [b[None]]), np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_mean_graph_idempotent_on_identical_graphs():
    a = np.array([[1.0, 0.3], [0.3, 1.0]])
    np.testing.assert_array_equal(_mean_of(*[[a[None]]] * 5), a)


def test_mean_graph_pearson_selector():
    f = np.array([[1.0, 0.7], [0.7, 1.0]])
    pick, _ = level_pick("pearson")
    out = LevelOutputs(adjacencies=[Tensor(np.eye(2)[None])], pearson=Tensor(f[None]), embeddings=[])
    np.testing.assert_array_equal(_mean_of([t.data for t in pick(out)]), f)


def test_mean_graph_over_slices_of_unequal_size_is_mean_over_scans():
    rng = np.random.default_rng(5)
    graphs = rng.normal(size=(7, 2, 4, 4))  # [scans, levels, n, n]
    cuts = ((0, 5), (5, 7))
    every = _mean_of(*[[graphs[lo:hi, k] for k in range(2)] for lo, hi in cuts])
    np.testing.assert_allclose(every, graphs.mean(axis=(0, 1)), rtol=0, atol=1e-12)
    second = _mean_of(*[[graphs[lo:hi, 1]] for lo, hi in cuts])
    np.testing.assert_allclose(second, graphs[:, 1].mean(axis=0), rtol=0, atol=1e-12)


def test_mean_graph_empty_rejected():
    for summary in (GraphStats().mean, GraphStats().dissimilarity):
        with pytest.raises(ContractError):
            summary()


def test_graph_stats_rejects_a_label_count_unlike_the_stacks():
    with pytest.raises(ContractError):
        GraphStats().add([np.zeros((3, 2, 2))], [0, 1])


def test_graph_stats_split_classes_match_group_loss_and_scan_order_sum():
    # Class 0 is split across the two slices; class 2 has one member.
    rng = np.random.default_rng(8)
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 2])
    stacks = [rng.normal(size=(len(labels), 5, 5)) for _ in range(3)]
    cuts = ((0, 3), (3, 8))
    stats, without_lone = GraphStats(), GraphStats()
    for lo, hi in cuts:
        stats.add([s[lo:hi] for s in stacks], labels[lo:hi])
        keep = slice(lo, min(hi, 7))
        without_lone.add([s[keep] for s in stacks], labels[keep])
    want = group_loss([Tensor(s) for s in stacks], labels, len(stacks)).data
    assert stats.dissimilarity() == pytest.approx(float(want), rel=1e-12)
    assert stats.dissimilarity() == without_lone.dissimilarity()
    total = np.zeros((5, 5))
    for u in range(len(labels)):
        for s in stacks:
            total = total + s[u]
    np.testing.assert_array_equal(stats.mean(), total / (len(labels) * len(stacks)))


def test_top_edges_full_fraction():
    a = np.eye(4)
    edges = top_edges(a, 1.0)
    assert len(edges) == 6  # n(n-1)/2


def test_top_edges_magnitude_order_hand_case():
    a = np.eye(3)
    a[0, 1] = a[1, 0] = 0.9
    a[0, 2] = a[2, 0] = 0.1
    a[1, 2] = a[2, 1] = -0.5
    edges = top_edges(a, 1 / 3)  # ceil(1/3 * 3) = 1 edge
    assert edges == [(0, 1, 0.9)]
    ordered = top_edges(a, 1.0)
    assert [e[:2] for e in ordered] == [(0, 1), (1, 2), (0, 2)]


def test_top_edges_excludes_diagonal():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 5))
    for i, j, _ in top_edges(a, 1.0):
        assert i != j


def test_top_edges_count_rule():
    a = np.random.default_rng(5).normal(size=(273, 273))
    assert len(top_edges(a, 0.01)) == 372  # ceil(0.01 * 273 * 272 / 2)


def test_top_edges_fraction_out_of_range():
    with pytest.raises(ConfigError):
        top_edges(np.eye(3), 0.0)
    with pytest.raises(ConfigError):
        top_edges(np.eye(3), 1.5)


def test_node_importance_identity_matrix_stable_order():
    ranked = node_importance(np.eye(4))
    assert [r for r, _ in ranked] == [0, 1, 2, 3]
    assert all(score == 0.0 for _, score in ranked)


def test_node_importance_star_graph():
    n = 6
    a = np.eye(n)
    a[0, 1:] = 1.0
    a[1:, 0] = 1.0
    ranked = node_importance(a)
    assert ranked[0] == (0, float(n - 1))
    assert all(score == 1.0 for _, score in ranked[1:])


def test_node_importance_permutation_equivariance():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(5, 5))
    a = (a + a.T) / 2
    perm = rng.permutation(5)
    base = dict(node_importance(a))
    permuted = dict(node_importance(a[np.ix_(perm, perm)]))
    for new_idx, old_idx in enumerate(perm):
        assert permuted[new_idx] == pytest.approx(base[old_idx])


# ---------------------------------------------------------------------------
# exports


def test_matrix_export_round_trip(tmp_path):
    path = tmp_path / "conn.csv"
    export_connectome(np.eye(3), path, fmt="matrix")
    np.testing.assert_array_equal(load_connectome(path), np.eye(3))


def test_matrix_export_round_trip_random(tmp_path):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    path = tmp_path / "conn.csv"
    export_connectome(a, path, fmt="matrix")
    assert np.abs(load_connectome(path) - a).max() < 1e-12


def test_matrix_export_format_contract(tmp_path):
    path = tmp_path / "conn.csv"
    export_connectome(np.ones((2, 2)), path, fmt="matrix")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "roi0,roi1"
    assert len(lines) == 3


def test_edge_list_zero_matrix_empty_body(tmp_path):
    path = tmp_path / "edges.csv"
    export_connectome(np.zeros((4, 4)), path, fmt="edge-list", fraction=0.5)
    lines = path.read_text().strip().splitlines()
    assert lines == ["i,j,weight"]


def test_node_importance_export_to_unwritable_path_names_it(tmp_path):
    path = tmp_path / "missing" / "node_importance.csv"
    with pytest.raises(DataError, match=re.escape(f"cannot write {path}")):
        export_connectome(np.eye(3), path, fmt="node-importance", top=2)


def test_export_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(8)
    a = rng.normal(size=(5, 5))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_connectome(a, p1, fmt="matrix")
    export_connectome(a, p2, fmt="matrix")
    assert p1.read_bytes() == p2.read_bytes()


def test_import_data_loads_no_model_training_or_cli():
    """The package root re-exports nothing, so `import mlcgcn.data` pulls in
    only what data.py itself imports."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import mlcgcn.data; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('mlcgcn'))))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    assert "mlcgcn.data" in loaded
    for name in ("mlcgcn.model", "mlcgcn.training", "mlcgcn.cli"):
        assert name not in loaded
