"""InfoNCE oracle values, momentum/queue mechanics, trainer determinism,
loss gradients, and checkpoint/resume replay."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelcon.augment import AugmentationSpec, apply_view, draw_view, make_query_key_pair
from skelcon.contrast import (
    _CHUNK_ROWS,
    _TAG_WARMUP,
    NegativeQueue,
    Schedule,
    TrainerConfig,
    _cross_plan,
    _embed,
    contrast_losses,
    info_nce,
    load_trainer,
    make_pair,
    make_trainer,
    momentum_update,
    pretrain,
    save_trainer,
    train_step,
    warmup_queues,
)
from skelcon.data import chain_tree_bones, generate_synthetic
from skelcon.encoders import desk_config
from skelcon.errors import ContractError

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# InfoNCE closed-form oracles
# ---------------------------------------------------------------------------

def test_info_nce_symmetric_case_is_ln2():
    """Positive and negative logits are equal, so p(positive) = 1/2 at any
    temperature."""
    for tau in (0.07, 0.5, 1.0):
        res = info_nce(E1, E2, E3[None], tau=tau)
        assert abs(res.loss - math.log(2.0)) < 1e-9


def test_info_nce_orthogonal_case():
    """pos/tau - neg/tau = 1 gives loss = ln(1 + e^-1) exactly."""
    res = info_nce(E1, E1, E2[None], tau=1.0)
    assert abs(res.loss - math.log(1.0 + math.exp(-1.0))) < 1e-9


def test_info_nce_default_temperature_is_0_07():
    explicit = info_nce(E1, E1, E2[None], tau=0.07)
    default = info_nce(E1, E1, E2[None])
    assert default.loss == explicit.loss
    assert TrainerConfig("intra", ("SEQ",)).tau == 0.07


def test_info_nce_batch_is_mean_of_rows():
    rng = np.random.default_rng(0)
    q = rng.normal(size=(4, 8))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    k = rng.normal(size=(4, 8))
    k /= np.linalg.norm(k, axis=1, keepdims=True)
    negs = rng.normal(size=(6, 8))
    negs /= np.linalg.norm(negs, axis=1, keepdims=True)
    batch = info_nce(q, k, negs)
    singles = [info_nce(q[i], k[i], negs).loss for i in range(4)]
    assert abs(batch.loss - np.mean(singles)) < 1e-12
    assert batch.grad_q.shape == (4, 8)


def test_info_nce_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    q = rng.normal(size=(3, 6))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    k = rng.normal(size=(3, 6))
    k /= np.linalg.norm(k, axis=1, keepdims=True)
    negs = rng.normal(size=(5, 6))
    negs /= np.linalg.norm(negs, axis=1, keepdims=True)
    res = info_nce(q, k, negs)
    eps = 1e-7
    for i, j in ((0, 0), (1, 3), (2, 5)):
        orig = q[i, j]
        q[i, j] = orig + eps
        lp = info_nce(q, k, negs).loss
        q[i, j] = orig - eps
        lm = info_nce(q, k, negs).loss
        q[i, j] = orig
        numeric = (lp - lm) / (2 * eps)
        assert abs(numeric - res.grad_q[i, j]) < 1e-6


def test_info_nce_is_stable_at_extreme_temperature():
    res = info_nce(E1, E1, np.stack([E2, E3, -E1]), tau=1e-6)
    assert np.isfinite(res.loss)
    assert np.all(np.isfinite(res.grad_q))
    assert res.loss < 1e-6          # positive dominates by a huge margin


def test_info_nce_queue_objects_are_accepted():
    q = NegativeQueue(4, 3)
    q.push(np.stack([E2, E3]))
    res = info_nce(E1, E2, q)
    assert abs(res.loss - info_nce(E1, E2, np.stack([E2, E3])).loss) < 1e-15


def _unit_rows(rng, n, dim=4):
    x = rng.normal(size=(n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.mark.parametrize("capacity, pushes, dtype, tol", [
    (16, (5, 4), np.float64, 1e-12),                          # partly filled
    (16, (9, 9, 3), np.float64, 1e-12),                       # wrapped, head 5
    (2 * _CHUNK_ROWS + 300, (2000, 2000, 1000), np.float64, 1e-12),  # 3 chunks
    (2 * _CHUNK_ROWS + 300, (2000, 2000, 1000), np.float32, 1e-6),
], ids=["partly-filled", "wrapped", "chunks", "chunks-float32"])
def test_info_nce_on_a_queue_matches_the_array_oracle(capacity, pushes, dtype, tol):
    rng = np.random.default_rng(11)
    queue = NegativeQueue(capacity, 4, dtype=dtype)
    for count in pushes:
        queue.push(_unit_rows(rng, count))
    assert queue.size < capacity or queue.head != 0
    z_q = _unit_rows(rng, 6).astype(dtype)
    z_k = _unit_rows(rng, 6).astype(dtype)
    got = info_nce(z_q, z_k, queue)
    want = info_nce(z_q, z_k, queue.negatives())
    assert abs(got.loss - want.loss) < tol
    assert np.max(np.abs(got.grad_q - want.grad_q)) < tol
    assert abs(got.pos_logit_mean - want.pos_logit_mean) < tol
    assert abs(got.neg_logit_mean - want.neg_logit_mean) < tol


def _info_nce_oracle(z_q, z_k, negs, tau):
    """Loss and grad_q from the whole (B, K+1) logit matrix at once, with a
    float64 logsumexp: the reference for the one-pass online softmax."""
    logits = np.concatenate([np.sum(z_q * z_k, axis=1, keepdims=True), z_q @ negs.T], axis=1)
    logits /= tau
    top = logits.max(axis=1, keepdims=True)
    weights = np.exp(logits - top)
    total = weights.sum(axis=1, keepdims=True)
    loss = np.mean(top[:, 0] + np.log(total[:, 0]) - logits[:, 0])
    weights /= total
    weights[:, 0] -= 1.0
    grad = (weights[:, :1] * z_k + weights[:, 1:] @ negs) / (len(z_q) * tau)
    return loss, grad


@pytest.mark.parametrize("rows, tau, max_in_last_chunk", [
    (2 * _CHUNK_ROWS + 300, 0.07, True),
    (2 * _CHUNK_ROWS + 300, 1e-3, False),     # exp(1/tau) overflows float64
    (2 * _CHUNK_ROWS + 1, 0.07, False),       # the last chunk holds one row
], ids=["max-in-last-chunk", "tau-1e-3", "one-row-remainder"])
@pytest.mark.parametrize("source", ["queue", "array"])
def test_info_nce_online_softmax_matches_a_logsumexp_oracle(rows, tau, max_in_last_chunk,
                                                            source):
    rng = np.random.default_rng(13)
    z_q, z_k = _unit_rows(rng, 6, 8), _unit_rows(rng, 6, 8)
    negs = _unit_rows(rng, rows, 8)
    if max_in_last_chunk:   # each query's largest logit: its own copy, in the last chunk
        negs[-len(z_q):] = z_q
        assert np.all(np.argmax(z_q @ negs.T, axis=1) >= 2 * _CHUNK_ROWS)
    # a negative outscores the positive for every query: the running max moves
    assert np.all(np.max(z_q @ negs.T, axis=1) > np.sum(z_q * z_k, axis=1))
    if source == "queue":
        negatives = NegativeQueue(rows, 8, dtype=np.float64)
        negatives.push(negs)
    else:
        negatives = negs
    got = info_nce(z_q, z_k, negatives, tau=tau)
    loss, grad = _info_nce_oracle(z_q, z_k, negs, tau)
    assert np.isfinite(got.loss) and np.all(np.isfinite(got.grad_q))
    assert abs(got.loss - loss) <= 1e-12 * max(1.0, abs(loss))
    assert np.max(np.abs(got.grad_q - grad)) <= 1e-12 * max(1.0, np.max(np.abs(grad)))


_EPS32 = float(np.finfo(np.float32).eps)


@pytest.mark.parametrize("tau, loss_tol, grad_tol", [
    (0.07, 1e-8, 1e-6),
    # At tau 1e-3 one negative carries each query's softmax, so the float32
    # rounding of its logit (below eps32 for a cosine) reaches the loss and
    # the weights undiluted, scaled by 1/tau.
    (1e-3, _EPS32 / 1e-3, _EPS32 / 1e-3),
], ids=["tau-0.07", "tau-1e-3"])
def test_info_nce_on_a_float32_queue_matches_the_float64_path(tau, loss_tol, grad_tol):
    """A float32 queue runs both GEMMs in float32; the same rows as a float64
    array run them in float64. At MoCo's queue and batch 16 the two agree to
    within the float32 rounding of the logits, and `grad_q` stays float64."""
    rng = np.random.default_rng(17)
    rows = _unit_rows(rng, 16384, 128).astype(np.float32)
    z_q = _unit_rows(rng, 16, 128).astype(np.float32)
    z_k = _unit_rows(rng, 16, 128).astype(np.float32)
    # random keys sit far from their queries: a negative outscores every
    # positive, so grad_q is not zero even at tau 1e-3
    assert np.all(np.max(z_q @ rows.T, axis=1) > np.sum(z_q * z_k, axis=1) + 0.1)
    queue = NegativeQueue(16384, 128)
    queue.push(rows)
    got = info_nce(z_q, z_k, queue, tau=tau)
    want = info_nce(z_q, z_k, rows.astype(np.float64), tau=tau)
    scale = np.max(np.abs(want.grad_q))
    assert got.grad_q.dtype == np.float64 and got.grad_q.shape == z_q.shape
    assert np.all(np.max(np.abs(want.grad_q), axis=1) > 0.1 * scale)
    assert abs(got.loss - want.loss) <= loss_tol
    assert np.max(np.abs(got.grad_q - want.grad_q)) <= grad_tol * scale
    assert got.pos_logit_mean == want.pos_logit_mean
    assert abs(got.neg_logit_mean - want.neg_logit_mean) <= loss_tol


_THREADED_CALL = """
import sys
import numpy as np
from skelcon.contrast import NegativeQueue, info_nce
rng = np.random.default_rng(5)
def unit(n):
    x = rng.normal(size=(n, 128))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)
queue = NegativeQueue(16384, 128)
queue.push(unit(16384))
res = info_nce(unit(16), unit(16), queue)
sys.stdout.write(" ".join([res.loss.hex(), res.neg_logit_mean.hex(), res.grad_q.tobytes().hex()]))
"""


def test_info_nce_gives_the_same_bytes_at_one_and_two_blas_threads():
    """One call at the intra-seq shape (batch 16, a full float32 queue of
    16384 x 128) in fresh interpreters at OPENBLAS_NUM_THREADS 1 and 2."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run([sys.executable, "-c", _THREADED_CALL], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        outputs.append(done.stdout)
    assert len(outputs[0].split()) == 3 and outputs[0] == outputs[1]


def test_info_nce_reads_the_queue_in_place():
    """A call on a full queue at MoCo's size allocates less than the queue:
    no ordered copy and no whole-queue float64 cast."""
    rng = np.random.default_rng(12)
    queue = NegativeQueue(16384, 128)
    for _ in range(16384 // 2048 + 1):
        queue.push(_unit_rows(rng, 2048, 128))
    z_q = _unit_rows(rng, 16, 128).astype(np.float32)
    z_k = _unit_rows(rng, 16, 128).astype(np.float32)
    tracemalloc.start()
    try:
        info_nce(z_q, z_k, queue)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < queue.buffer.nbytes


def test_info_nce_input_validation():
    with pytest.raises(ValueError):
        info_nce(E1, E2, E3[None], tau=0.0)
    with pytest.raises(ValueError):
        info_nce(E1, E2, np.zeros((0, 3)))
    with pytest.raises(ContractError):
        info_nce(2.0 * E1, E2, E3[None])
    with pytest.raises(ValueError):
        info_nce(np.stack([E1, E2]), E2[None], E3[None])


def test_unit_norm_checks_reject_nan():
    nan_row = np.array([np.nan, 0.0, 0.0])
    for z_q, z_k, negatives in ((nan_row, E2, E3[None]), (E1, nan_row, E3[None]),
                                (E1, E2, np.stack([E3, nan_row]))):
        with pytest.raises(ContractError):
            info_nce(z_q, z_k, negatives)
    queue = NegativeQueue(4, 3)
    with pytest.raises(ContractError):
        queue.push(np.stack([E1, nan_row]))
    assert len(queue) == 0


# ---------------------------------------------------------------------------
# momentum (EMA) updates
# ---------------------------------------------------------------------------

def _drifted_pair():
    pair = make_pair(desk_config("SEQ", 5, hidden=4), seed=0)
    rng = np.random.default_rng(2)
    for p in pair.query.params.values():
        p += rng.normal(scale=0.1, size=p.shape).astype(p.dtype)
    return pair


def test_momentum_one_freezes_key():
    pair = _drifted_pair()
    before = {k: v.copy() for k, v in pair.key.params.items()}
    momentum_update(pair, 1.0)
    for name in before:
        assert np.array_equal(pair.key.params[name], before[name])


def test_momentum_zero_copies_query():
    pair = _drifted_pair()
    momentum_update(pair, 0.0)
    for name, q in pair.query.params.items():
        assert np.array_equal(pair.key.params[name], q)


def test_momentum_update_is_exact_ema():
    pair = _drifted_pair()
    m = 0.999
    expected = {name: (m * pair.key.params[name]
                       + (1.0 - m) * pair.query.params[name]).astype(np.float32)
                for name in pair.key.params}
    momentum_update(pair, m)
    for name in expected:
        assert np.array_equal(pair.key.params[name], expected[name])


# ---------------------------------------------------------------------------
# negative queue
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 32),
       pushes=st.lists(st.integers(1, 16), min_size=1, max_size=12),
       seed=st.integers(0, 2**16))
def test_queue_is_fifo_under_random_pushes(capacity, pushes, seed):
    rng = np.random.default_rng(seed)
    queue = NegativeQueue(capacity, 4)
    mirror = []
    for count in pushes:
        batch = _unit_rows(rng, count)
        if count > capacity:
            with pytest.raises(ValueError):
                queue.push(batch)
            continue
        queue.push(batch)
        mirror.extend(batch.astype(np.float32))
        mirror = mirror[-capacity:]
    assert len(queue) == len(mirror)
    assert np.array_equal(queue.negatives(), np.array(mirror).reshape(len(mirror), 4))


def test_queue_rejects_non_unit_and_wrong_dim():
    queue = NegativeQueue(4, 3)
    with pytest.raises(ContractError):
        queue.push(np.array([[2.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        queue.push(np.array([[1.0, 0.0, 0.0, 0.0]]))


def test_queue_stores_detached_copies():
    queue = NegativeQueue(4, 3)
    batch = np.stack([E1, E2])
    queue.push(batch)
    batch[:] = 0.0                       # mutate the source afterwards
    stored = queue.negatives()
    assert np.array_equal(stored, np.stack([E1, E2]).astype(np.float32))
    stored[:] = 7.0                      # and the returned view is a copy too
    assert np.array_equal(queue.negatives(),
                          np.stack([E1, E2]).astype(np.float32))


def test_queue_state_round_trip():
    rng = np.random.default_rng(3)
    queue = NegativeQueue(5, 4)
    queue.push(_unit_rows(rng, 3))
    queue.push(_unit_rows(rng, 4))       # wraps
    back = NegativeQueue.from_state(queue.state_arrays())
    assert len(back) == len(queue)
    assert np.array_equal(back.negatives(), queue.negatives())


def _partly_filled_state():
    queue = NegativeQueue(5, 4)
    queue.push(_unit_rows(np.random.default_rng(4), 3))
    return queue.state_arrays()


@pytest.mark.parametrize("field, value", [
    ("size", 6), ("size", -1), ("head", 5), ("head", -1), ("head", 1)])
def test_queue_state_with_size_or_head_out_of_range_is_rejected(field, value):
    state = _partly_filled_state()
    assert len(NegativeQueue.from_state(state)) == 3   # zero rows past size are fine
    state[field] = np.array(value)
    with pytest.raises(ContractError, match="size"):
        NegativeQueue.from_state(state)


@pytest.mark.parametrize("scale", [np.nan, 2.0], ids=["nan-row", "norm-2-row"])
def test_queue_state_with_a_row_that_is_not_unit_norm_is_rejected(scale):
    state = _partly_filled_state()
    state["buffer"][1] *= scale
    with pytest.raises(ContractError, match="unit-norm"):
        NegativeQueue.from_state(state)


def test_queue_state_needs_a_2d_buffer():
    state = _partly_filled_state()
    state["buffer"] = state["buffer"][0]
    with pytest.raises(ContractError, match="2-D"):
        NegativeQueue.from_state(state)


# ---------------------------------------------------------------------------
# trainer construction and the cross-term plan
# ---------------------------------------------------------------------------

JOINTS = 5
BONES = chain_tree_bones(JOINTS)


def _dataset():
    return generate_synthetic(2, 4, 16, JOINTS, seed=3)


def _make_trainer(mode="intra", reps=("SEQ",), seed=0, dtype=np.float32,
                  queue_size=16, momentum=0.9, hidden=4):
    configs = {rep: desk_config(rep, JOINTS, hidden=hidden, projection_dim=8)
               for rep in reps}
    aug = AugmentationSpec(output_length=8, jitter_joints=2)
    config = TrainerConfig(mode, tuple(reps), tau=0.07, momentum=momentum,
                           queue_size=queue_size, lr=0.01)
    return make_trainer(config, configs, aug, BONES, seed, dtype=dtype)


def test_an_stg_trainer_refuses_a_graph_that_is_not_a_tree_before_it_trains():
    """The STG encoder builds its adjacency from the trainer's bones, so a
    bone list that is not a tree fails at the first forward pass, queue
    warm-up, before any step or queue push."""
    configs = {"STG": desk_config("STG", JOINTS, hidden=4, projection_dim=8)}
    config = TrainerConfig("intra", ("STG",), queue_size=4)
    aug = AugmentationSpec(output_length=8, jitter_joints=2)
    trainer = make_trainer(config, configs, aug, BONES[:2], seed=0)
    seqs = [s.sequence for s in _dataset().samples]
    with pytest.raises(ValueError, match="tree"):
        pretrain(trainer, seqs, Schedule(epochs=1, batch_size=4))
    assert trainer.step == 0 and len(trainer.queues["STG"]) == 0


@pytest.mark.parametrize("mode, reps, queue_size, batch_size, refused", [
    ("intra", ("SEQ",), 3, 4, True),
    ("inter", ("SEQ", "STG"), 3, 4, True),
    ("intra", ("SEQ",), 4, 4, False),
    ("intra", ("SEQ",), 8, 100, False),        # the batch is clipped to the 8 sequences
    ("intra", ("SEQ",), 7, 100, True),
])
def test_pretrain_refuses_a_queue_smaller_than_a_batch_before_the_warm_up(
        tmp_path, mode, reps, queue_size, batch_size, refused):
    trainer = _make_trainer(mode, reps, queue_size=queue_size)
    seqs = [s.sequence for s in _dataset().samples]
    schedule = Schedule(epochs=1, batch_size=batch_size)
    if not refused:
        assert len(pretrain(trainer, seqs, schedule)) == -(-len(seqs) // batch_size)
        return
    with pytest.raises(ValueError, match=f"^queue_size {queue_size} cannot hold a batch of "
                                         f"{min(batch_size, len(seqs))} keys"):
        pretrain(trainer, seqs, schedule, out_dir=tmp_path / "out")
    assert all(len(q) == 0 for q in trainer.queues.values()) and trainer.step == 0
    assert not (tmp_path / "out").exists()


def test_trainer_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig("solo", ("SEQ",))
    with pytest.raises(ValueError):
        TrainerConfig("intra", ("SEQ", "STG"))
    with pytest.raises(ValueError):
        TrainerConfig("inter", ("SEQ", "SEQ"))
    with pytest.raises(ValueError):
        TrainerConfig("inter3", ("SEQ", "STG"))
    with pytest.raises(ValueError):
        TrainerConfig("intra", ("SEQ",), tau=-0.1)


def test_cross_plan_per_mode():
    assert _cross_plan(TrainerConfig("intra", ("SEQ",))) == [("SEQ", "SEQ")]
    assert _cross_plan(TrainerConfig("inter", ("SEQ", "STG"))) == [
        ("SEQ", "STG"), ("STG", "SEQ")]
    full = _cross_plan(TrainerConfig("inter3", ("IMG", "SEQ", "STG")))
    assert len(full) == 6
    assert set(full) == {(a, b) for a in ("IMG", "SEQ", "STG")
                         for b in ("IMG", "SEQ", "STG") if a != b}
    cycle = _cross_plan(TrainerConfig("inter3", ("IMG", "SEQ", "STG"),
                                      cross_terms="cycle"))
    assert cycle == [("IMG", "SEQ"), ("SEQ", "STG"), ("STG", "IMG")]


def test_trainer_init_is_deterministic_and_rep_specific():
    a = _make_trainer("inter", ("SEQ", "STG"), seed=5)
    b = _make_trainer("inter", ("SEQ", "STG"), seed=5)
    for rep in ("SEQ", "STG"):
        for name in a.pairs[rep].query.params:
            assert np.array_equal(a.pairs[rep].query.params[name],
                                  b.pairs[rep].query.params[name])
            assert np.array_equal(a.pairs[rep].query.params[name],
                                  a.pairs[rep].key.params[name])


def test_warmup_fills_queues_with_unit_keys():
    trainer = _make_trainer(queue_size=6)
    seqs = [s.sequence for s in _dataset().samples]
    warmup_queues(trainer, seqs)
    queue = trainer.queues["SEQ"]
    assert len(queue) == 6               # min(queue_size, len(seqs))
    norms = np.linalg.norm(queue.negatives(), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-3)


def test_warmed_queues_hold_one_drawn_view_per_slot_through_the_key_encoder():
    trainer = _make_trainer("inter", ("SEQ", "STG"), queue_size=6)
    oracle = _make_trainer("inter", ("SEQ", "STG"), queue_size=6)
    seqs = [s.sequence for s in _dataset().samples]
    warmup_queues(trainer, seqs, batch_size=4)
    rng = np.random.default_rng((oracle.seed, _TAG_WARMUP))
    for start in (0, 4):
        keys = [apply_view(seq, draw_view(oracle.aug, seq.frames, seq.joints, rng),
                           oracle.aug.output_length)
                for seq in seqs[start:min(start + 4, 6)]]
        for rep in oracle.representations:
            oracle.queues[rep].push(_embed(oracle, rep, oracle.pairs[rep].key, keys, False)[0])
    for rep in trainer.representations:
        got, want = trainer.queues[rep].state_arrays(), oracle.queues[rep].state_arrays()
        assert all(np.array_equal(got[name], want[name]) for name in want)


# ---------------------------------------------------------------------------
# one training step: loss plumbing, EMA, FIFO enqueue
# ---------------------------------------------------------------------------

def test_contrast_losses_total_is_sum_of_terms():
    trainer = _make_trainer("inter", ("SEQ", "STG"))
    seqs = [s.sequence for s in _dataset().samples]
    warmup_queues(trainer, seqs)
    rng = np.random.default_rng(4)
    queries, keys = [], []
    for seq in seqs[:3]:
        q, k = make_query_key_pair(seq, trainer.aug, rng)
        queries.append(q)
        keys.append(k)
    report, grads, z_k = contrast_losses(trainer, queries, keys)
    assert abs(report.total - sum(report.terms.values())) < 1e-12
    assert set(report.terms) == {"SEQ", "STG"}
    assert set(grads) == {"SEQ", "STG"}
    for rep in ("SEQ", "STG"):
        assert z_k[rep].shape == (3, 8)
        assert np.allclose(np.linalg.norm(z_k[rep], axis=1), 1.0, atol=1e-3)


def test_train_step_applies_exact_ema_and_fifo():
    trainer = _make_trainer(momentum=0.5, queue_size=8)
    seqs = [s.sequence for s in _dataset().samples]
    warmup_queues(trainer, seqs)
    pair = trainer.pairs["SEQ"]
    old_key = {k: v.copy() for k, v in pair.key.params.items()}
    before = trainer.queues["SEQ"].negatives()
    report = train_step(trainer, seqs[:4], np.random.default_rng(5))
    assert np.isfinite(report.total)
    # EMA after the step must equal 0.5*old + 0.5*new_query, bitwise in f32
    for name, q in pair.query.params.items():
        expected = (np.float32(0.5) * old_key[name] + np.float32(0.5) * q)
        assert np.array_equal(pair.key.params[name], expected)
    # enqueue-after-loss: queue shifted by the batch size, FIFO order kept
    after = trainer.queues["SEQ"].negatives()
    assert after.shape == before.shape
    assert np.array_equal(after[:-4], before[4:])
    assert trainer.step == 1


# ---------------------------------------------------------------------------
# loss gradients through the full trainer (the criterion-2 mechanism)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode,reps", [
    ("intra", ("SEQ",)),
    ("inter", ("SEQ", "STG")),
])
def test_contrast_loss_gradients(fd_check, mode, reps):
    trainer = _make_trainer(mode, reps, dtype=np.float64)
    rng = np.random.default_rng(6)
    for rep in reps:                     # generic point: no ReLU kinks
        for name, value in trainer.pairs[rep].query.params.items():
            if ".b" in name:
                value += rng.normal(scale=0.05, size=value.shape)
    seqs = [s.sequence for s in _dataset().samples]
    warmup_queues(trainer, seqs)
    queries, keys = [], []
    draw = np.random.default_rng(7)
    for seq in seqs[:2]:
        q, k = make_query_key_pair(seq, trainer.aug, draw)
        queries.append(q)
        keys.append(k)

    report, grads, _ = contrast_losses(trainer, queries, keys)

    for rep in reps:
        def loss():
            r, _, _ = contrast_losses(trainer, queries, keys)
            return r.total

        fd_check(loss, trainer.pairs[rep].query.params, grads[rep], rng,
                 samples_per_array=2)


def test_pretrain_loss_decreases_on_tiny_data():
    trainer = _make_trainer(queue_size=8, hidden=8)
    seqs = [s.sequence for s in _dataset().samples]
    records = pretrain(trainer, seqs, Schedule(epochs=30, batch_size=4))
    first = np.mean([r["total"] for r in records[:4]])
    last = np.mean([r["total"] for r in records[-4:]])
    assert last < first
    assert trainer.epoch == 30
    assert all(np.isfinite(r["total"]) for r in records)


# ---------------------------------------------------------------------------
# save / resume replay
# ---------------------------------------------------------------------------

def test_trainer_round_trip_is_bitwise(tmp_path):
    trainer = _make_trainer("inter", ("SEQ", "STG"), queue_size=8)
    seqs = [s.sequence for s in _dataset().samples]
    warmup_queues(trainer, seqs)
    pretrain(trainer, seqs, Schedule(epochs=2, batch_size=4))
    manifest = save_trainer(trainer, tmp_path)
    back = load_trainer(manifest)
    assert back.epoch == trainer.epoch and back.step == trainer.step
    assert back.config == trainer.config
    for rep in trainer.representations:
        for name in trainer.pairs[rep].query.params:
            assert np.array_equal(back.pairs[rep].query.params[name],
                                  trainer.pairs[rep].query.params[name])
            assert np.array_equal(back.pairs[rep].key.params[name],
                                  trainer.pairs[rep].key.params[name])
            assert np.array_equal(back.velocities[rep][name],
                                  trainer.velocities[rep][name])
        assert np.array_equal(back.queues[rep].negatives(),
                              trainer.queues[rep].negatives())


def test_a_float64_trainer_loads_back_with_its_velocities(tmp_path):
    """CKPT1 stores float32 parameters, but `save_trainer` writes a float64
    trainer's velocities as float64; `load_trainer` keeps them as written."""
    trainer = _make_trainer("inter", ("SEQ", "STG"), dtype=np.float64, queue_size=8)
    seqs = [s.sequence for s in _dataset().samples]
    pretrain(trainer, seqs, Schedule(epochs=1, batch_size=4))
    back = load_trainer(save_trainer(trainer, tmp_path))
    for rep in trainer.representations:
        for name, velocity in trainer.velocities[rep].items():
            assert back.velocities[rep][name].dtype == np.float64
            assert np.array_equal(back.velocities[rep][name], velocity)
            assert np.array_equal(back.pairs[rep].query.params[name],
                                  trainer.pairs[rep].query.params[name].astype(np.float32))


def test_resume_replays_the_uninterrupted_run(tmp_path):
    seqs = [s.sequence for s in _dataset().samples]
    schedule = Schedule(epochs=4, batch_size=4, checkpoint_every=2)

    straight = _make_trainer(seed=9)
    records_straight = pretrain(straight, seqs, schedule,
                                out_dir=tmp_path / "straight")

    fresh = _make_trainer(seed=9)
    records_head = pretrain(fresh, seqs, Schedule(epochs=2, batch_size=4),
                            out_dir=tmp_path / "resumed")
    resumed = load_trainer(tmp_path / "resumed" / "epoch0002.trainer.json")
    records_tail = pretrain(resumed, seqs, schedule,
                            out_dir=tmp_path / "resumed")

    assert records_head + records_tail == records_straight
    for name in straight.pairs["SEQ"].query.params:
        assert np.array_equal(resumed.pairs["SEQ"].query.params[name],
                              straight.pairs["SEQ"].query.params[name])
        assert np.array_equal(resumed.pairs["SEQ"].key.params[name],
                              straight.pairs["SEQ"].key.params[name])
    assert np.array_equal(resumed.queues["SEQ"].negatives(),
                          straight.queues["SEQ"].negatives())


def test_fresh_rerun_rewrites_the_loss_log(tmp_path):
    seqs = [s.sequence for s in _dataset().samples]
    pretrain(_make_trainer(seed=9), seqs, Schedule(epochs=2, batch_size=4),
             out_dir=tmp_path)
    first = (tmp_path / "loss_log.jsonl").read_bytes()
    pretrain(_make_trainer(seed=9), seqs, Schedule(epochs=2, batch_size=4),
             out_dir=tmp_path)
    assert (tmp_path / "loss_log.jsonl").read_bytes() == first
    assert [json.loads(line)["step"] for line in first.splitlines()] == list(range(4))


def test_resume_after_a_crash_between_checkpoints_logs_each_step_once(tmp_path):
    seqs = [s.sequence for s in _dataset().samples]
    schedule = Schedule(epochs=4, batch_size=4, checkpoint_every=2)
    pretrain(_make_trainer(seed=9), seqs, schedule, out_dir=tmp_path / "straight")
    straight = (tmp_path / "straight" / "loss_log.jsonl").read_bytes()

    # A crash in epoch 4 leaves the epoch-2 checkpoint, the steps logged
    # after it and a torn last line.
    crashed = tmp_path / "crashed"
    pretrain(_make_trainer(seed=9), seqs, Schedule(epochs=2, batch_size=4),
             out_dir=crashed)
    lines = straight.decode().splitlines(keepends=True)
    (crashed / "loss_log.jsonl").write_text("".join(lines[:7]) + lines[7][:10])
    resumed = load_trainer(crashed / "epoch0002.trainer.json")
    pretrain(resumed, seqs, schedule, out_dir=crashed)
    assert (crashed / "loss_log.jsonl").read_bytes() == straight


def test_trainer_manifest_write_that_fails_midway_keeps_the_previous_file(
        tmp_path, monkeypatch):
    trainer = _make_trainer()
    path = save_trainer(trainer, tmp_path, tag="last")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    trainer.step += 1

    def fail(obj, fh, **kwargs):
        fh.write('{"format": "TRAI')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", fail)
    with pytest.raises(OSError, match="disk full"):
        save_trainer(trainer, tmp_path, tag="last")
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == sorted(before)
    assert after[os.path.basename(path)] == before[os.path.basename(path)]
    assert load_trainer(path).step == trainer.step - 1


def test_load_trainer_rejects_a_queue_row_that_is_not_unit_norm(tmp_path):
    trainer = _make_trainer()
    warmup_queues(trainer, [s.sequence for s in _dataset().samples])
    path = save_trainer(trainer, tmp_path)
    aux_path = tmp_path / json.loads(open(path).read())["aux"]
    with np.load(aux_path) as aux:
        aux = dict(aux)
    aux["queue.SEQ.buffer"][0, 0] = np.nan
    np.savez(aux_path, **aux)
    with pytest.raises(ContractError, match="unit-norm"):
        load_trainer(path)


def test_load_trainer_accepts_the_older_augmentation_seed_key(tmp_path):
    trainer = _make_trainer()
    path = save_trainer(trainer, tmp_path)
    manifest = json.loads(open(path).read())
    manifest["aug"]["seed"] = 0
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    assert load_trainer(path).aug == trainer.aug
