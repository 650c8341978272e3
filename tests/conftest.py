"""Shared fixtures and the finite-difference gradient checker."""

import contextlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from skelcon import nn
from skelcon.data import chain_tree_bones, generate_synthetic


@contextlib.contextmanager
def sample_workers(workers):
    """Run the conv and graph-conv ops in `workers` sample blocks, whatever
    `nn.conv_workers()` gives on this host."""
    executor = ThreadPoolExecutor(workers - 1) if workers > 1 else None
    saved, nn._pool = nn._pool, (workers, executor)
    try:
        yield
    finally:
        nn._pool = saved
        if executor is not None:
            executor.shutdown()


@pytest.fixture
def with_workers():
    return sample_workers


@pytest.fixture(params=[1, 2], ids=["1worker", "2workers"])
def conv_workers(request):
    """Runs a test once with one sample block per op and once with two, so
    the pooled path is tested on any host."""
    with sample_workers(request.param):
        yield request.param


def central_difference_check(loss_fn, params, grads, rng,
                             samples_per_array=3, eps=1e-6, tol=1e-4,
                             floor=1e-6, absolute_gap=1e-8):
    """Compare analytic gradients against central differences at randomly
    sampled coordinates of every array in ``grads``.

    ``loss_fn`` must recompute the scalar loss from the live ``params``
    arrays (they are perturbed in place and restored).  Relative error uses a
    small-magnitude floor: when both the numeric and analytic values are
    below ``floor`` the pair is compared on absolute gap instead, since the
    relative measure is meaningless for near-zero gradients.

    Returns the worst relative error observed among floored comparisons.
    """
    worst = 0.0
    for name in sorted(grads):
        arr = params[name]
        grad = np.asarray(grads[name])
        if arr.shape != grad.shape:
            raise AssertionError(f"{name}: grad shape {grad.shape} != "
                                 f"param shape {arr.shape}")
        n = arr.size
        for flat_index in rng.choice(n, size=min(samples_per_array, n),
                                     replace=False):
            index = np.unravel_index(int(flat_index), arr.shape)
            original = arr[index]
            arr[index] = original + eps
            loss_plus = loss_fn()
            arr[index] = original - eps
            loss_minus = loss_fn()
            arr[index] = original
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            analytic = float(grad[index])
            gap = abs(numeric - analytic)
            if max(abs(numeric), abs(analytic)) < floor:
                assert gap < absolute_gap, (
                    f"{name}{list(index)}: near-zero gradients disagree, "
                    f"numeric={numeric:.3e} analytic={analytic:.3e}")
                continue
            rel = gap / max(abs(numeric), abs(analytic), floor)
            assert rel < tol, (
                f"{name}{list(index)}: numeric={numeric:.6e} "
                f"analytic={analytic:.6e} rel_err={rel:.3e} >= {tol}")
            worst = max(worst, rel)
    return worst


@pytest.fixture
def fd_check():
    return central_difference_check


@pytest.fixture(scope="session")
def tiny_dataset():
    """8 samples, 2 classes, T=16, J=5 — smallest data that exercises the
    full pipeline."""
    return generate_synthetic(2, 4, 16, 5, seed=3)


@pytest.fixture(scope="session")
def tiny_bones():
    return chain_tree_bones(5)
