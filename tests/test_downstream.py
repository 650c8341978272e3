"""Probe/retrieval/finetune harness: oracle comparisons and invariants."""

import gc
import json
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from skelcon import downstream
from skelcon.augment import CropResizeParams, temporal_crop_resize
from skelcon.data import generate_synthetic, make_split
from skelcon.downstream import (
    FinetuneSchedule,
    Metrics,
    ProbeSchedule,
    build_index,
    center_crop,
    combined_probe,
    export_embeddings,
    extract_features,
    finetune,
    knn_retrieve,
    labeled_subsets,
    linear_probe,
    pca2d,
    stratified_subset,
    summarize,
)
from skelcon.encoders import (desk_config, init_encoder, load_checkpoint, save_checkpoint,
                              write_json)
from skelcon.errors import DegenerateTaskError


# ---------------------------------------------------------------------------
# evaluation cropping and feature extraction
# ---------------------------------------------------------------------------

def _dataset(classes=3, instances=6, frames=20, joints=5, seed=11):
    return generate_synthetic(classes, instances, frames, joints, seed=seed)


def test_center_crop_branches():
    ds = _dataset(frames=20)
    seq = ds.samples[0].sequence

    same = center_crop(seq, 20)
    assert np.array_equal(same.coords, seq.coords)

    shorter = center_crop(seq, 8)
    start = (20 - 8) // 2
    assert np.array_equal(shorter.coords, seq.coords[start:start + 8])

    longer = center_crop(seq, 30)
    oracle = temporal_crop_resize(
        seq, CropResizeParams(length_ratio=1.0, start=0, output_length=30))
    assert np.array_equal(longer.coords, oracle.coords)


def test_extract_features_is_deterministic_and_batch_invariant():
    ds = _dataset()
    state = init_encoder(desk_config("SEQ", ds.joint_count, hidden=4), seed=0)
    f1, y1 = extract_features(state, ds.samples, ds.bones, crop_length=16)
    f2, y2 = extract_features(state, ds.samples, ds.bones, crop_length=16)
    assert np.array_equal(f1, f2) and np.array_equal(y1, y2)
    f3, _ = extract_features(state, ds.samples, ds.bones, crop_length=16,
                             batch_size=5)
    assert np.allclose(f1, f3, atol=1e-5)
    assert f1.shape == (len(ds.samples), state.config.feature_dim)
    assert np.array_equal(y1, [s.label for s in ds.samples])
    with pytest.raises(ValueError):
        extract_features(state, [], ds.bones)


@pytest.mark.parametrize("crop", [16, 30], ids=["window", "resampled"])
@pytest.mark.parametrize("rep", ["IMG", "SEQ", "STG"])
def test_float64_coords_extract_the_bytes_of_their_float32_originals(rep, crop):
    """Each encoder reads its float32 input from a float64 copy of the
    coords as from the coords themselves, whether the crop is a window of
    the 20 frames or a resample of them. Two states, so no memo hit."""
    ds = _dataset()
    wide = [replace(s, sequence=s.sequence.with_coords(s.sequence.coords.astype(np.float64)))
            for s in ds.samples]
    features = [extract_features(_states(ds, (rep,))[0], samples, ds.bones, crop_length=crop)[0]
                for samples in (ds.samples, wide)]
    assert features[0].tobytes() == features[1].tobytes()


def test_extract_features_maps_missing_labels_to_minus_one():
    ds = _dataset()
    state = init_encoder(desk_config("SEQ", ds.joint_count, hidden=4), seed=0)
    samples = [replace(ds.samples[0], label=None), ds.samples[1]]
    _, labels = extract_features(state, samples, ds.bones, crop_length=16)
    assert labels[0] == -1 and labels[1] == ds.samples[1].label


# ---------------------------------------------------------------------------
# the extraction memo
# ---------------------------------------------------------------------------

@pytest.fixture
def encoder_runs(monkeypatch):
    """Counts `encoder_forward` runs made by `downstream`, per representation."""
    runs = {}
    forward = downstream.encoder_forward

    def counted(config, *args, **kwargs):
        runs[config.representation] = runs.get(config.representation, 0) + 1
        return forward(config, *args, **kwargs)

    monkeypatch.setattr(downstream, "encoder_forward", counted)
    return runs


def _split(ds):
    split = make_split(ds, "random", 0.5, seed=0)
    return ds.subset(list(split.train_ids)), ds.subset(list(split.test_ids))


def _states(ds, reps=("IMG", "SEQ", "STG")):
    return [init_encoder(desk_config(rep, ds.joint_count, hidden=4), seed=0) for rep in reps]


def test_an_eval_sequence_runs_each_encoder_once_per_batch_and_split(encoder_runs):
    """Per-encoder extraction of both splits, then the combined probe over
    the same states: the combined probe reuses the features."""
    ds = _dataset(instances=50, frames=12)
    train, test = _split(ds)
    states = _states(ds)
    for state in states:
        for part in (train, test):
            extract_features(state, part, ds.bones, crop_length=8)
    combined_probe(states, train, test, ds.bones, schedule=ProbeSchedule(epochs=2),
                   crop_length=8)
    batches = math.ceil(len(train) / 64) + math.ceil(len(test) / 64)
    assert batches == 4
    assert encoder_runs == {"IMG": batches, "SEQ": batches, "STG": batches}


def test_combined_probe_after_extraction_equals_the_probe_on_fresh_states():
    ds = _dataset()
    train, test = _split(ds)
    states = _states(ds)
    for state in states:
        for part in (train, test):
            extract_features(state, part, ds.bones, crop_length=16)
    schedule = ProbeSchedule(epochs=10)
    reused = combined_probe(states, train, test, ds.bones, schedule=schedule, crop_length=16)
    fresh = combined_probe([s.copy() for s in states], train, test, ds.bones,
                           schedule=schedule, crop_length=16)
    assert reused == fresh


@pytest.mark.parametrize("crop", [16, 32])     # a center window; a resample of all 20 frames
def test_an_in_place_edit_of_params_or_coords_is_extracted_again(encoder_runs, crop):
    """Each input the key hashes misses the memo when it changes: the
    parameters, the coords and, for an STG state, the bone tree."""
    ds = _dataset()
    state = _states(ds, ("SEQ",))[0]
    first, _ = extract_features(state, ds.samples, ds.bones, crop_length=crop)
    extract_features(state, ds.samples, ds.bones, crop_length=crop)
    assert encoder_runs == {"SEQ": 1}

    state.params["gru0.fwd.w"][0, 0] += 1.0
    edited, _ = extract_features(state, ds.samples, ds.bones, crop_length=crop)
    assert encoder_runs == {"SEQ": 2}
    assert not np.array_equal(edited, first)

    ds.samples[0].sequence.coords[10, 0, 0, :] += 1.0     # a frame every crop reads
    moved, _ = extract_features(state, ds.samples, ds.bones, crop_length=crop)
    assert encoder_runs == {"SEQ": 3}
    assert not np.array_equal(moved[0], edited[0])
    assert np.array_equal(moved[1:], edited[1:])

    stg = _states(ds, ("STG",))[0]
    chain, _ = extract_features(stg, ds.samples, ds.bones, crop_length=crop)
    star = tuple((0, j) for j in range(1, ds.joint_count))
    assert sorted(star) != sorted(ds.bones)
    starred, _ = extract_features(stg, ds.samples, star, crop_length=crop)
    assert encoder_runs == {"SEQ": 3, "STG": 2}
    assert not np.array_equal(starred, chain)


def test_loaded_and_copied_states_start_with_an_empty_memo(tmp_path, encoder_runs):
    ds = _dataset()
    state = _states(ds, ("STG",))[0]
    features, _ = extract_features(state, ds.samples, ds.bones, crop_length=16)
    save_checkpoint(state, tmp_path / "stg.ckpt")
    for other in (state.copy(), load_checkpoint(tmp_path / "stg.ckpt")):
        assert other.feature_memo == {}
        again, _ = extract_features(other, ds.samples, ds.bones, crop_length=16)
        assert np.array_equal(again, features)
    assert encoder_runs == {"STG": 3}


def test_extract_features_returns_a_copy_of_the_stored_features():
    ds = _dataset()
    state = _states(ds, ("IMG",))[0]
    first, _ = extract_features(state, ds.samples, ds.bones, crop_length=16)
    kept = first.copy()
    first[:] = 0.0
    second, _ = extract_features(state, ds.samples, ds.bones, crop_length=16)
    assert np.array_equal(second, kept)
    stored = list(state.feature_memo.values())
    assert not any(np.shares_memory(second, f) or np.shares_memory(first, f)
                   for f in stored)


def test_the_memo_keeps_a_bounded_number_of_entries(encoder_runs):
    ds = _dataset()
    state = _states(ds, ("SEQ",))[0]
    crops = range(8, 8 + downstream._MEMO_ENTRIES + 2)
    for crop in crops:
        extract_features(state, ds.samples, ds.bones, crop_length=crop)
        assert len(state.feature_memo) <= downstream._MEMO_ENTRIES
    assert len(state.feature_memo) == downstream._MEMO_ENTRIES
    extract_features(state, ds.samples, ds.bones, crop_length=crops[-1])   # kept
    assert encoder_runs == {"SEQ": len(crops)}
    extract_features(state, ds.samples, ds.bones, crop_length=crops[0])    # evicted
    assert encoder_runs == {"SEQ": len(crops) + 1}


def test_the_memo_entry_goes_when_its_state_is_collected():
    ds = _dataset()
    state = _states(ds, ("SEQ",))[0]
    extract_features(state, ds.samples, ds.bones, crop_length=16)
    (stored,) = state.feature_memo.values()
    stored = weakref.ref(stored)
    del state
    gc.collect()
    assert stored() is None


# ---------------------------------------------------------------------------
# metrics invariant
# ---------------------------------------------------------------------------

def test_metrics_checks_correct_count():
    Metrics(accuracy=0.75, correct=3, total=4, per_class={})
    with pytest.raises(ValueError):
        Metrics(accuracy=0.5, correct=3, total=4, per_class={})


# ---------------------------------------------------------------------------
# linear probe
# ---------------------------------------------------------------------------

def _separable(n_per_class=20, classes=3, dim=8, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for c in range(classes):
        center = np.zeros(dim)
        center[c] = 3.0
        feats.append(center + noise * rng.normal(size=(n_per_class, dim)))
        labels.extend([c] * n_per_class)
    return np.concatenate(feats), np.array(labels)


def test_probe_is_perfect_on_separable_features():
    x_train, y_train = _separable(seed=0)
    x_test, y_test = _separable(seed=1)
    metrics = linear_probe(x_train, y_train, x_test, y_test)
    assert metrics.accuracy == 1.0
    assert metrics.correct == metrics.total == len(y_test)
    assert all(v == 1.0 for v in metrics.per_class.values())


def test_probe_is_at_chance_on_permuted_labels():
    """Random features carry no label information, so test accuracy must sit
    near 1/4 for four classes (deterministic draw, verified once)."""
    rng = np.random.default_rng(42)
    x_train = rng.normal(size=(200, 16))
    y_train = rng.integers(0, 4, size=200)
    x_test = rng.normal(size=(400, 16))
    y_test = rng.integers(0, 4, size=400)
    metrics = linear_probe(x_train, y_train, x_test, y_test)
    assert abs(metrics.accuracy - 0.25) <= 0.05


def test_probe_needs_two_classes():
    x = np.ones((4, 3))
    y = np.zeros(4, dtype=int)
    with pytest.raises(DegenerateTaskError):
        linear_probe(x, y, x, y)


def test_scoring_an_empty_labelled_set_is_a_degenerate_task():
    """An empty set has no accuracy: the probe and retrieval refuse it by
    name instead of dividing by its size."""
    x, y = _separable(classes=2, dim=4, seed=4)
    empty_x, empty_y = np.zeros((0, 4)), np.zeros(0, int)
    with pytest.raises(DegenerateTaskError, match="^linear probe: no samples to score$"):
        linear_probe(x, y, empty_x, empty_y)
    with pytest.raises(DegenerateTaskError, match="^retrieval: no samples to score$"):
        knn_retrieve(build_index(x, y), empty_x, empty_y)


def test_probe_handles_noncontiguous_labels():
    x_train, y_train = _separable(classes=3, seed=2)
    remap = {0: 4, 1: 17, 2: 9}
    y_train = np.array([remap[int(c)] for c in y_train])
    x_test, y_test = _separable(classes=3, seed=3)
    y_test = np.array([remap[int(c)] for c in y_test])
    metrics = linear_probe(x_train, y_train, x_test, y_test)
    assert metrics.accuracy == 1.0
    assert set(metrics.per_class) == {4, 17, 9}


# ---------------------------------------------------------------------------
# k=1 cosine retrieval
# ---------------------------------------------------------------------------

def test_knn_matches_brute_force_cosine():
    rng = np.random.default_rng(7)
    for _ in range(20):
        gallery = rng.normal(size=(30, 6))
        labels = rng.integers(0, 5, size=30)
        queries = rng.normal(size=(12, 6))
        predictions, _ = knn_retrieve(build_index(gallery, labels), queries)
        g = gallery / np.linalg.norm(gallery, axis=1, keepdims=True)
        q = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        oracle = labels[np.argmax(q @ g.T, axis=1)]
        assert np.array_equal(predictions, oracle)


def test_knn_ties_resolve_to_lowest_gallery_index():
    e1 = np.array([1.0, 0.0])
    gallery = np.stack([e1, 2.0 * e1, np.array([0.0, 1.0])])
    index = build_index(gallery, np.array([7, 8, 9]))
    predictions, metrics = knn_retrieve(index, e1[None], np.array([7]))
    assert predictions[0] == 7            # rows 0 and 1 tie at cosine 1.0
    assert metrics.accuracy == 1.0 and metrics.total == 1


def test_knn_validation():
    index = build_index(np.eye(3), np.arange(3))
    with pytest.raises(ValueError):
        knn_retrieve(index, np.ones((2, 4)))
    with pytest.raises(ValueError):
        build_index(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError):
        build_index(np.zeros((2, 3)), np.zeros(2))   # zero-norm row
    with pytest.raises(ValueError):
        knn_retrieve(index, np.zeros((1, 3)))


def test_knn_without_labels_returns_predictions_only():
    index = build_index(np.eye(3), np.array([5, 6, 7]))
    predictions, metrics = knn_retrieve(index, np.eye(3)[::-1])
    assert metrics is None
    assert np.array_equal(predictions, [7, 6, 5])


# ---------------------------------------------------------------------------
# stratified subsets
# ---------------------------------------------------------------------------

def test_stratified_subset_counts_and_determinism():
    labels = np.array([0] * 10 + [1] * 20 + [2] * 40)
    a = stratified_subset(labels, 0.2, seed=3)
    b = stratified_subset(labels, 0.2, seed=3)
    assert np.array_equal(a, b)
    assert np.array_equal(a, np.sort(a))
    picked = labels[a]
    assert np.sum(picked == 0) == 2      # round(0.2 * 10)
    assert np.sum(picked == 1) == 4
    assert np.sum(picked == 2) == 8
    assert len(np.unique(a)) == len(a)
    assert stratified_subset(labels, 0.2, seed=4).tolist() != a.tolist()


def test_stratified_subset_full_fraction_returns_everything():
    labels = np.array([0, 0, 1, 1, 2])
    assert np.array_equal(stratified_subset(labels, 1.0, seed=0),
                          np.arange(len(labels)))


def test_stratified_subset_falls_back_when_too_small():
    labels = np.array([0] * 2 + [1] * 50)
    with pytest.warns(UserWarning, match="non-stratified"):
        subset = stratified_subset(labels, 0.1, seed=0)
    assert len(subset) == round(0.1 * len(labels))


def test_finetune_refuses_a_one_class_subset_of_any_seed_before_training(monkeypatch):
    labels = np.array([0] * 2 + [1] * 50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")                 # each draw is the plain fallback
        classes = {seed: len(np.unique(labels[stratified_subset(labels, 0.04, seed)]))
                   for seed in range(20)}
        good = min(seed for seed, n in classes.items() if n == 2)
        bad = min(seed for seed, n in classes.items() if n == 1)
        subsets = labeled_subsets(labels, 0.04, (good,))
        assert [s.tolist() for s in subsets] == [stratified_subset(labels, 0.04, good).tolist()]
        with pytest.raises(DegenerateTaskError, match="labeled subset has 1"):
            labeled_subsets(labels, 0.04, (good, bad))

        ds = _dataset(classes=2, instances=26, frames=16)
        ds.samples[:] = [replace(s, label=int(y)) for s, y in zip(ds.samples, labels)]
        monkeypatch.setattr(downstream, "_finetune_one", lambda *a, **k: pytest.fail("trained"))
        state = init_encoder(desk_config("SEQ", ds.joint_count, hidden=4), seed=0)
        with pytest.raises(DegenerateTaskError, match="labeled subset has 1"):
            finetune(state, ds.samples, ds.samples, ds.bones, rho=0.04, seeds=(good, bad),
                     crop_length=16)


def test_stratified_subset_rho_validation():
    labels = np.zeros(4, dtype=int)
    for rho in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            stratified_subset(labels, rho, seed=0)


# ---------------------------------------------------------------------------
# PCA projection and embedding export
# ---------------------------------------------------------------------------

def test_pca2d_matches_eigendecomposition():
    rng = np.random.default_rng(12)
    base = rng.normal(size=(60, 3)) @ rng.normal(size=(3, 10))
    x = base + 0.01 * rng.normal(size=(60, 10))
    coords, components = pca2d(x)
    assert coords.shape == (60, 2) and components.shape == (2, 10)
    assert np.allclose(components @ components.T, np.eye(2), atol=1e-10)
    centered = x - x.mean(axis=0)
    _, vecs = np.linalg.eigh(np.cov(centered.T))
    for row, oracle in zip(components, (vecs[:, -1], vecs[:, -2])):
        assert abs(float(row @ oracle)) >= 0.999    # sign-free match
    variances = coords.var(axis=0)
    assert variances[0] >= variances[1]
    assert np.allclose(coords, centered @ components.T)


def test_export_embeddings_round_trip(tmp_path):
    ds = _dataset()
    state = init_encoder(desk_config("SEQ", ds.joint_count, hidden=4), seed=0)
    features, _ = extract_features(state, ds.samples, ds.bones, crop_length=16)
    path = tmp_path / "embed.jsonl"
    count = export_embeddings(state, ds.samples, ds.bones, path,
                              projector="pca2d", crop_length=16)
    assert count == len(ds.samples)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == count
    coords = pca2d(features)[0]
    for i, record in enumerate(records):
        assert record["id"] == ds.samples[i].sequence.sample_id
        assert record["label"] == ds.samples[i].label
        assert np.array_equal(np.array(record["vector"]),
                              features[i].astype(float))
        assert np.array_equal(np.array(record["xy"]), coords[i])
    plain = tmp_path / "plain.jsonl"
    export_embeddings(state, ds.samples, ds.bones, plain, crop_length=16)
    first = json.loads(plain.read_text().splitlines()[0])
    assert "xy" not in first
    with pytest.raises(ValueError):
        export_embeddings(state, ds.samples, ds.bones, path, projector="tsne")


# ---------------------------------------------------------------------------
# combined probe, summaries, finetuning
# ---------------------------------------------------------------------------

def test_combined_probe_validates_and_runs():
    ds = _dataset()
    split = make_split(ds, "random", 0.5, seed=0)
    train = ds.subset(list(split.train_ids))
    test = ds.subset(list(split.test_ids))
    states = [init_encoder(desk_config(rep, ds.joint_count, hidden=4), seed=0)
              for rep in ("SEQ", "STG")]
    with pytest.raises(ValueError):
        combined_probe(states[:1], train, test, ds.bones)
    metrics = combined_probe(states, train, test, ds.bones,
                             schedule=ProbeSchedule(epochs=10),
                             crop_length=16)
    assert metrics.total == len(test)
    assert 0.0 <= metrics.accuracy <= 1.0


def test_summarize_and_report(tmp_path):
    summary = summarize("probe", "random", (0, 1, 2), (0.5, 0.6, 0.7))
    assert summary.mean == pytest.approx(0.6)
    assert summary.std == pytest.approx(math.sqrt(2 / 300))
    assert summary.per_seed == (0.5, 0.6, 0.7)
    record = summary.to_record()
    assert record == {"task": "probe", "protocol": "random",
                      "seeds": [0, 1, 2], "mean": summary.mean,
                      "std": summary.std, "per_seed": [0.5, 0.6, 0.7]}
    path = tmp_path / "report.json"
    write_json(path, record)
    assert json.loads(path.read_text()) == record


def test_finetune_modes_and_smoke():
    ds = _dataset(classes=3, instances=8, frames=16)
    split = make_split(ds, "random", 0.5, seed=0)
    train = ds.subset(list(split.train_ids))
    test = ds.subset(list(split.test_ids))
    config = desk_config("SEQ", ds.joint_count, hidden=4)
    state = init_encoder(config, seed=0)
    schedule = FinetuneSchedule(epochs=2, batch_size=8)

    with pytest.raises(ValueError):
        finetune(state, train, test, ds.bones, mode="fully-supervised",
                 schedule=schedule, seeds=(0,), crop_length=16)
    with pytest.raises(ValueError):
        finetune(config, train, test, ds.bones, mode="semi-supervised",
                 schedule=schedule, seeds=(0,), crop_length=16)

    summary = finetune(state, train, test, ds.bones, rho=0.5,
                       mode="semi-supervised", schedule=schedule,
                       seeds=(0, 1), crop_length=16, protocol="random")
    assert summary.task == "finetune/semi-supervised/rho=0.5"
    assert len(summary.per_seed) == 2
    assert summary.mean == pytest.approx(float(np.mean(summary.per_seed)))
    repeat = finetune(state, train, test, ds.bones, rho=0.5,
                      mode="semi-supervised", schedule=schedule,
                      seeds=(0, 1), crop_length=16, protocol="random")
    assert repeat.per_seed == summary.per_seed

    supervised = finetune(config, train, test, ds.bones, rho=0.5,
                          mode="supervised-only", schedule=schedule,
                          seeds=(0,), crop_length=16)
    assert len(supervised.per_seed) == 1


def test_finetune_scores_its_test_split_in_batches_of_at_most_64(monkeypatch):
    """The test split is scored by forward-only passes over 64-sample
    batches, so finetune's memory does not grow with the split."""
    ds = _dataset(instances=50, frames=12)
    train, test = _split(ds)
    assert len(test) > 64
    sizes, forward = [], downstream.encoder_forward

    def recorded(config, params, x, bones=None, want_cache=False):
        if not want_cache:
            sizes.append(len(x))
        return forward(config, params, x, bones, want_cache)

    monkeypatch.setattr(downstream, "encoder_forward", recorded)
    state = init_encoder(desk_config("STG", ds.joint_count, hidden=4), seed=0)
    finetune(state, train, test, ds.bones, rho=0.2, schedule=FinetuneSchedule(epochs=1),
             seeds=(0,), crop_length=8)
    assert sum(sizes) == len(test)
    assert max(sizes) <= 64


def test_finetune_makes_no_memo_key(monkeypatch):
    """Finetune scores its test split on a state copy that it drops, so a
    memo entry would never be read: no sha256 key is computed for it."""
    ds = _dataset(instances=8, frames=12)
    train, test = _split(ds)

    def refuse(*args, **kwargs):
        raise AssertionError("finetune computed a memo key")

    monkeypatch.setattr(downstream, "_memo_key", refuse)
    state = init_encoder(desk_config("STG", ds.joint_count, hidden=4), seed=0)
    summary = finetune(state, train, test, ds.bones, rho=0.5,
                       schedule=FinetuneSchedule(epochs=1), seeds=(0, 1), crop_length=8)
    assert len(summary.per_seed) == 2
    assert state.feature_memo == {}


@pytest.mark.parametrize("rep", ["SEQ", "IMG", "STG"])
def test_finetune_trains_the_backbone_and_the_classifier(monkeypatch, rep):
    """Each optimizer step gets a gradient for every encoder parameter but
    the projection head's, and for the classifier's `cls.w` and `cls.b`."""
    ds = _dataset(frames=12)
    train, test = _split(ds)
    state = init_encoder(desk_config(rep, ds.joint_count, hidden=4), seed=0)
    seen, update = [], downstream._Adam.update

    def recorded(self, params, grads, lr):
        seen.append(set(grads))
        assert all(grads[k].shape == params[k].shape for k in grads)
        update(self, params, grads, lr)

    monkeypatch.setattr(downstream._Adam, "update", recorded)
    finetune(state, train, test, ds.bones, rho=1.0, schedule=FinetuneSchedule(epochs=1),
             seeds=(0,), crop_length=8)
    wanted = {k for k in state.params if not k.startswith("head.")} | {"cls.w", "cls.b"}
    assert seen and all(names == wanted for names in seen)


def test_finetune_decays_its_learning_rate_at_each_decay_epoch(monkeypatch):
    """With one batch per epoch, the optimizer's epoch-e step gets `lr`
    times `decay_factor` once for each decay epoch at or before e."""
    ds = _dataset(frames=12)
    train, test = _split(ds)
    state = init_encoder(desk_config("SEQ", ds.joint_count, hidden=4), seed=0)
    rates, update = [], downstream._Adam.update

    def recorded(self, params, grads, lr):
        rates.append(lr)
        update(self, params, grads, lr)

    monkeypatch.setattr(downstream._Adam, "update", recorded)
    schedule = FinetuneSchedule(epochs=5, lr=0.01, decay_epochs=(1, 3), decay_factor=0.5,
                                batch_size=len(train))
    finetune(state, train, test, ds.bones, rho=1.0, schedule=schedule, seeds=(0,),
             crop_length=8)
    assert rates == [0.01, 0.005, 0.005, 0.0025, 0.0025]
