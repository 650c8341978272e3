"""Skeleton data types, canonical format, splits, and the synthetic generator."""

import json

import numpy as np
import pytest

from skelcon.cli import main
from skelcon.data import (
    HUMAN25_BONES,
    SkeletonSequence,
    chain_tree_bones,
    generate_synthetic,
    load_dataset,
    make_split,
    save_dataset,
    validate_sequence,
)
from skelcon.errors import ParseError, SchemaError, ValidationError


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_generator_counts_and_labels():
    ds = generate_synthetic(5, 20, 64, 15, seed=7)
    assert len(ds) == 100
    assert ds.num_classes == 5
    assert ds.joint_count == 15
    labels = sorted({s.label for s in ds.samples})
    assert labels == [0, 1, 2, 3, 4]
    counts = {c: sum(1 for s in ds.samples if s.label == c) for c in labels}
    assert all(v == 20 for v in counts.values())
    for s in ds.samples:
        assert s.sequence.coords.shape == (64, 2, 15, 3)
        assert validate_sequence(s.sequence)


def test_generator_is_pure_in_seed():
    a = generate_synthetic(3, 5, 32, 8, seed=11)
    b = generate_synthetic(3, 5, 32, 8, seed=11)
    c = generate_synthetic(3, 5, 32, 8, seed=12)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.sequence.sample_id == sb.sequence.sample_id
        assert np.array_equal(sa.sequence.coords, sb.sequence.coords)
    assert not np.array_equal(a.samples[0].sequence.coords,
                              c.samples[0].sequence.coords)


@pytest.mark.parametrize("kwargs", [
    dict(num_classes=1, samples_per_class=5, frames=32, joints=8),
    dict(num_classes=3, samples_per_class=0, frames=32, joints=8),
    dict(num_classes=3, samples_per_class=5, frames=7, joints=8),
    dict(num_classes=3, samples_per_class=5, frames=32, joints=4),
])
def test_generator_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        generate_synthetic(seed=0, **kwargs)


def test_generator_second_actor_is_zero_padded():
    ds = generate_synthetic(2, 3, 16, 6, seed=5)
    for s in ds.samples:
        assert np.all(s.sequence.coords[:, 1] == 0.0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_accepts_all_zeros():
    seq = SkeletonSequence(np.zeros((4, 2, 5, 3)), "zeros")
    report = validate_sequence(seq)
    assert report and report.ok


def test_validate_flags_nan_with_location():
    coords = np.zeros((4, 2, 5, 3))
    coords[2, 0, 3, 1] = np.nan
    report = validate_sequence(SkeletonSequence(coords, "bad"))
    assert not report
    assert report.location == (2, 0, 3, 1)
    assert "frame=2" in report.message
    assert "joint=3" in report.message


def test_validate_rejects_single_actor():
    report = validate_sequence(SkeletonSequence(np.zeros((4, 1, 5, 3)), "m1"))
    assert not report
    assert "actor" in report.message


def test_validate_rejects_single_joint_and_bad_rank():
    assert not validate_sequence(SkeletonSequence(np.zeros((4, 2, 1, 3)), "j1"))
    assert not validate_sequence(SkeletonSequence(np.zeros((4, 2, 5)), "r3"))
    assert not validate_sequence(SkeletonSequence(np.zeros((4, 2, 5, 2)), "d2"))


# ---------------------------------------------------------------------------
# canonical SKL1 format
# ---------------------------------------------------------------------------

def test_round_trip_is_bitwise(tmp_path):
    ds = generate_synthetic(3, 4, 24, 7, seed=2)
    path = tmp_path / "ds.skl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert len(back) == len(ds)
    assert back.num_classes == ds.num_classes
    assert back.joint_count == ds.joint_count
    assert back.bones == ds.bones
    for orig, re in zip(ds.samples, back.samples):
        assert re.sequence.sample_id == orig.sequence.sample_id
        assert re.label == orig.label
        assert re.subject_id == orig.subject_id
        assert re.view_id == orig.view_id
        assert re.sequence.coords.dtype == orig.sequence.coords.dtype
        assert np.array_equal(re.sequence.coords, orig.sequence.coords)


def test_loader_preserves_order(tmp_path):
    ds = generate_synthetic(2, 3, 16, 5, seed=9)
    path = tmp_path / "ds.skl"
    save_dataset(ds, path)
    assert load_dataset(path).sample_ids() == ds.sample_ids()


def _tiny_file_lines(tmp_path):
    ds = generate_synthetic(2, 2, 8, 5, seed=1)
    path = tmp_path / "ds.skl"
    save_dataset(ds, path)
    return path, path.read_text().splitlines()


def test_loader_parse_error_names_line(tmp_path):
    path, lines = _tiny_file_lines(tmp_path)
    lines.insert(2, "{not json")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"line 3 \(record 2\)"):
        load_dataset(path)


def test_loader_schema_error_on_inconsistent_joint_count(tmp_path):
    path, lines = _tiny_file_lines(tmp_path)
    record = json.loads(lines[2])
    coords = np.array(record["coords"])[:, :, :4, :]   # drop one joint
    record["coords"] = coords.tolist()
    record["J"] = 4
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="record 2"):
        load_dataset(path)


def test_loader_validation_error_names_sample(tmp_path):
    path, lines = _tiny_file_lines(tmp_path)
    record = json.loads(lines[1])
    record["coords"][0][0][0][0] = None    # json null -> nan
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=record["id"]):
        load_dataset(path)


def test_loader_rejects_missing_header(tmp_path):
    path = tmp_path / "no_header.skl"
    path.write_text('{"id": "x"}\n')
    with pytest.raises(ParseError, match="SKL1"):
        load_dataset(path)


@pytest.mark.parametrize("edit,key", [
    (lambda header: header.pop("J"), "'J'"),
    (lambda header: header.update(bones=5), "'bones'"),
    (lambda header: header.update(num_classes="5"), "'num_classes'"),
    (lambda header: header.update(bones=[[0, 1.0]]), "'bones'"),
], ids=["no-J", "bones-int", "num_classes-str", "bones-float"])
def test_loader_names_the_file_and_key_of_a_malformed_header(tmp_path, capsys, edit, key):
    path, lines = _tiny_file_lines(tmp_path)
    header = json.loads(lines[0])
    edit(header)
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ParseError) as caught:
        load_dataset(path)
    assert f"{path}: line 1" in str(caught.value) and key in str(caught.value)
    assert main(["probe", "--out", str(tmp_path / "probe"), "--set", "dataset.source=file",
                 "--set", f"dataset.path={path}"]) == 3
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("label", 1.7), ("subject", 2.9), ("T", "32"),
                                       ("view", True)],
                         ids=["label-float", "subject-float", "T-str", "view-bool"])
def test_loader_names_the_line_and_key_of_a_record_field_that_is_not_an_int(
        tmp_path, capsys, key, value):
    path, lines = _tiny_file_lines(tmp_path)
    record = json.loads(lines[2])
    record[key] = value
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as caught:
        load_dataset(path)
    assert f"{path}: line 3 (record 2)" in str(caught.value) and f"'{key}'" in str(caught.value)
    assert main(["probe", "--out", str(tmp_path / "probe"), "--set", "dataset.source=file",
                 "--set", f"dataset.path={path}"]) == 3
    assert "ParseError" in capsys.readouterr().err


def test_loader_rejects_single_frame_sequences(tmp_path):
    path, lines = _tiny_file_lines(tmp_path)
    record = json.loads(lines[1])
    record["coords"] = record["coords"][:1]
    record["T"] = 1
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="at least 2 frames"):
        load_dataset(path)


def test_loader_rejects_a_header_that_is_not_a_bone_tree(tmp_path):
    path, lines = _tiny_file_lines(tmp_path)
    header = json.loads(lines[0])
    for bones in ([[0, 1], [1, 2]],                   # too few edges for J=5
                  [[0, 1], [1, 2], [2, 0], [3, 4]],   # J-1 edges, two components
                  [[0, 1], [1, 2], [2, 3], [3, 9]]):  # joint out of range
        header["bones"] = bones
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(SchemaError, match="line 1"):
            load_dataset(path)


def test_loader_rejects_out_of_range_label(tmp_path):
    path, lines = _tiny_file_lines(tmp_path)
    record = json.loads(lines[1])
    record["label"] = 9
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="label 9"):
        load_dataset(path)


# ---------------------------------------------------------------------------
# topology helpers
# ---------------------------------------------------------------------------

def test_default_human_tree_is_a_25_joint_spanning_tree():
    assert len(HUMAN25_BONES) == 24
    parent = list(range(25))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in HUMAN25_BONES:
        assert 0 <= a < 25 and 0 <= b < 25
        ra, rb = find(a), find(b)
        assert ra != rb, "bone list contains a cycle"
        parent[ra] = rb
    assert len({find(i) for i in range(25)}) == 1, "tree is disconnected"


def test_chain_tree_bones_is_a_spanning_tree():
    bones = chain_tree_bones(4)
    assert bones == ((0, 1), (0, 2), (1, 3))
    for j in range(2, 12):
        edges = chain_tree_bones(j)
        assert len(edges) == j - 1
        assert all(parent == (child - 1) // 2 for parent, child in edges)
    with pytest.raises(ValueError):
        chain_tree_bones(1)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def test_random_split_partitions_and_reproduces():
    ds = generate_synthetic(3, 10, 16, 5, seed=4)
    split = make_split(ds, "random", train_fraction=0.6, seed=8)
    again = make_split(ds, "random", train_fraction=0.6, seed=8)
    assert split == again
    assert split.protocol == "random"
    assert len(split.train_ids) == 18 and len(split.test_ids) == 12
    assert not set(split.train_ids) & set(split.test_ids)
    assert set(split.train_ids) | set(split.test_ids) == set(ds.sample_ids())


def test_metadata_protocols():
    ds = generate_synthetic(3, 20, 16, 5, seed=4)
    by_id = {s.sequence.sample_id: s for s in ds.samples}
    cs = make_split(ds, "cross-subject")
    assert all(by_id[i].subject_id % 2 == 0 for i in cs.train_ids)
    assert all(by_id[i].subject_id % 2 == 1 for i in cs.test_ids)
    cv = make_split(ds, "cross-view")
    assert all(by_id[i].view_id in (0, 1) for i in cv.train_ids)
    assert all(by_id[i].view_id == 2 for i in cv.test_ids)
    cx = make_split(ds, "cross-setup")
    assert all((by_id[i].subject_id + by_id[i].view_id) % 2 == 0
               for i in cx.train_ids)


def test_unknown_protocol_rejected():
    ds = generate_synthetic(2, 2, 16, 5, seed=4)
    with pytest.raises(ValueError, match="protocol"):
        make_split(ds, "leave-one-out")


def test_subset_returns_requested_samples_in_order():
    ds = generate_synthetic(2, 3, 16, 5, seed=4)
    ids = ds.sample_ids()
    picked = ds.subset([ids[4], ids[0]])
    assert [s.sequence.sample_id for s in picked] == [ids[4], ids[0]]


# ---------------------------------------------------------------------------
# class-separability guard for the acceptance dataset
# ---------------------------------------------------------------------------

def test_raw_1nn_beats_chance_on_acceptance_dataset():
    """Raw-coordinate 1-NN must exceed 1.5x chance, else the end-to-end
    acceptance checks would be fighting degenerate data."""
    ds = generate_synthetic(5, 100, 96, 25, seed=0)
    split = make_split(ds, "random", train_fraction=0.5, seed=0)
    train = ds.subset(list(split.train_ids))
    test = ds.subset(list(split.test_ids))
    x_train = np.stack([s.sequence.coords.reshape(-1) for s in train])
    x_test = np.stack([s.sequence.coords.reshape(-1) for s in test])
    y_train = np.array([s.label for s in train])
    y_test = np.array([s.label for s in test])
    d2 = ((x_test ** 2).sum(1)[:, None] + (x_train ** 2).sum(1)[None, :]
          - 2.0 * x_test @ x_train.T)
    accuracy = float(np.mean(y_train[np.argmin(d2, axis=1)] == y_test))
    chance = 1.0 / ds.num_classes
    assert accuracy > 1.5 * chance
