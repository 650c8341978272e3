"""Finite-difference checks for every layer's analytic backward pass.

Each check builds float64 tensors, probes the layer's scalar projection
loss = sum(output * probe), and compares the backward-pass gradients with
central differences through the conftest checker."""

import numpy as np
import pytest

from skelcon import encoders, nn
from skelcon.data import chain_tree_bones


def _probe_like(rng, arr):
    return rng.normal(size=arr.shape)


def test_sigmoid_is_stable_and_correct():
    x = np.array([-500.0, -1.0, 0.0, 1.0, 500.0])
    s = nn.sigmoid(x)
    assert np.all(np.isfinite(s))
    assert s[2] == 0.5
    assert np.allclose(s + nn.sigmoid(-x), 1.0, atol=1e-15)
    assert abs(s[1] - 1.0 / (1.0 + np.e)) < 1e-15


def test_linear_gradients(fd_check):
    rng = np.random.default_rng(0)
    params = {"x": rng.normal(size=(4, 6)), "w": rng.normal(size=(6, 3)),
              "b": rng.normal(size=3)}
    probe = rng.normal(size=(4, 3))

    def loss():
        out, _ = nn.linear_forward(params["x"], params["w"], params["b"])
        return float(np.sum(out * probe))

    _, cache = nn.linear_forward(params["x"], params["w"], params["b"])
    dx, dw, db = nn.linear_backward(probe, cache)
    fd_check(loss, params, {"x": dx, "w": dw, "b": db}, rng,
             samples_per_array=6)


def test_relu_gradients_away_from_kink(fd_check):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 4))
    x[np.abs(x) < 0.2] = 0.5          # keep FD away from the kink
    params = {"x": x}
    probe = rng.normal(size=x.shape)

    def loss():
        out, _ = nn.relu_forward(params["x"])
        return float(np.sum(out * probe))

    _, cache = nn.relu_forward(x)
    dx = nn.relu_backward(probe, cache)
    fd_check(loss, params, {"x": dx}, rng, samples_per_array=8)


def test_mean_pool_gradients(fd_check):
    rng = np.random.default_rng(2)
    params = {"x": rng.normal(size=(3, 4, 5))}
    probe = rng.normal(size=(3,))

    def loss():
        out, _ = nn.mean_pool_forward(params["x"], axes=(1, 2))
        return float(np.sum(out * probe))

    _, cache = nn.mean_pool_forward(params["x"], axes=(1, 2))
    dx = nn.mean_pool_backward(probe, cache)
    fd_check(loss, params, {"x": dx}, rng, samples_per_array=8)


def _conv2d_oracle(x, w, b, pad, dout):
    """Direct sums over every (output pixel, tap) pair: the forward output
    and the gradients of sum(output * dout)."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ph, pw = pad
    ho, wo = h + 2 * ph - kh + 1, wd + 2 * pw - kw + 1
    out = np.zeros((n, f, ho, wo)) + b[:, None, None]
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for r in range(ho):
        for q in range(wo):
            for i in range(kh):
                for j in range(kw):
                    ri, qi = r + i - ph, q + j - pw
                    if 0 <= ri < h and 0 <= qi < wd:
                        out[:, :, r, q] += x[:, :, ri, qi] @ w[:, :, i, j].T
                        dx[:, :, ri, qi] += dout[:, :, r, q] @ w[:, :, i, j]
                        dw[:, :, i, j] += dout[:, :, r, q].T @ x[:, :, ri, qi]
    return out, dx, dw, dout.sum(axis=(0, 2, 3))


@pytest.mark.usefixtures("conv_workers")
@pytest.mark.parametrize("kernel,pad", [
    ((5, 1), (2, 0)),     # the encoders' temporal conv
    ((1, 1), (0, 0)),     # pointwise stem and co-occurrence mix
    ((3, 1), (0, 0)),     # valid conv: fewer output rows than input rows
    ((5, 1), (1, 0)),     # padding narrower than the kernel's half
])
def test_conv2d_matches_direct_sum_oracle(kernel, pad):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, 7, 4))
    w = rng.normal(size=(4, 3, *kernel))
    b = rng.normal(size=4)
    out, cache = nn.conv2d_forward(x, w, b, pad=pad)
    dout = rng.normal(size=out.shape)
    want_out, want_dx, want_dw, want_db = _conv2d_oracle(x, w, b, pad, dout)
    assert out.shape == want_out.shape
    assert np.allclose(out, want_out, rtol=0, atol=1e-12)
    dx, dw, db = nn.conv2d_backward(dout, cache)
    assert np.allclose(dx, want_dx, rtol=0, atol=1e-12)
    assert np.allclose(dw, want_dw, rtol=0, atol=1e-12)
    assert np.allclose(db, want_db, rtol=0, atol=1e-12)


def _conv2d_bias_fill(x, w, b, pad):
    """conv2d_forward summed in its reference order: the bias is filled in
    first, then each tap's product is added into the rows it reaches."""
    n, c, t, v = x.shape
    f, _, kt, _ = w.shape
    t_out = t + 2 * pad[0] - kt + 1
    out = np.empty((n, f, t_out, v), dtype=np.result_type(x, w, b))
    out[...] = b[:, None, None]
    for i, o, rows in nn._taps(t, kt, pad[0], t_out):
        xs = x[:, :, rows]
        out[:, :, o] += np.matmul(w[:, :, i, 0], xs.reshape(n, c, -1)).reshape(n, f, -1, v)
    return out


@pytest.mark.usefixtures("conv_workers")
@pytest.mark.parametrize("rep", ["IMG", "STG"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_forward_equals_the_bias_fill_sum_at_every_encoder_conv(
        monkeypatch, rep, dtype):
    """The 1x1 convs take their first tap's product as the output; every
    conv an encoder runs must still give the bytes of the reference sum."""
    calls, forward = [], nn.conv2d_forward

    def record(x, w, b, pad=(0, 0), relu=False):
        calls.append((x, w, b, pad))
        return forward(x, w, b, pad, relu)

    monkeypatch.setattr(nn, "conv2d_forward", record)
    rng = np.random.default_rng(12)
    config = encoders.desk_config(rep, 25, hidden=32)
    params = {k: (v + rng.normal(scale=0.1, size=v.shape)).astype(dtype)
              for k, v in encoders.init_encoder(config, seed=0).params.items()}
    encoders.encoder_forward(config, params, rng.normal(size=(4, 3, 32, 50)).astype(dtype),
                             chain_tree_bones(25))
    kernels = [w.shape[2:] for _, w, _, _ in calls]
    assert kernels == ([(1, 1), (5, 1), (1, 1)] if rep == "IMG" else [(5, 1)])
    for x, w, b, pad in calls:
        for bias in (b, b.astype(np.float64)):     # a wider bias widens the output
            out, _ = forward(x, w, bias, pad)
            want = _conv2d_bias_fill(x, w, bias, pad)
            assert out.dtype == want.dtype == np.result_type(x, w, bias)
            assert out.tobytes() == want.tobytes()


@pytest.mark.usefixtures("conv_workers")
def test_temporal_conv_gradients_at_an_encoder_shape(fd_check):
    rng = np.random.default_rng(9)
    params = {"x": rng.normal(size=(2, 4, 9, 6)),
              "w": rng.normal(size=(4, 4, 5, 1)) * 0.5,
              "b": rng.normal(size=4)}
    out, cache = nn.conv2d_forward(params["x"], params["w"], params["b"], pad=(2, 0))
    assert out.shape == (2, 4, 9, 6)
    probe = rng.normal(size=out.shape)

    def loss():
        o, _ = nn.conv2d_forward(params["x"], params["w"], params["b"], pad=(2, 0))
        return float(np.sum(o * probe))

    dx, dw, db = nn.conv2d_backward(probe, cache)
    fd_check(loss, params, {"x": dx, "w": dw, "b": db}, rng,
             samples_per_array=8)


@pytest.mark.usefixtures("conv_workers")
@pytest.mark.parametrize("kernel,pad", [((5, 1), (2, 0)), ((1, 1), (0, 0))])
def test_conv2d_with_relu_gradients_away_from_kink(fd_check, kernel, pad):
    rng = np.random.default_rng(13)
    params = {"x": rng.normal(size=(2, 3, 6, 4)),
              "w": rng.normal(size=(4, 3, *kernel)) * 0.5,
              "b": rng.normal(size=4) * 0.5}
    pre, _ = nn.conv2d_forward(params["x"], params["w"], params["b"], pad=pad)
    # no 1e-6 step crosses the kink, and both of its sides are probed
    assert np.abs(pre).min() > 1e-3 and (pre < 0).any() and (pre > 0).any()
    out, cache = nn.conv2d_forward(params["x"], params["w"], params["b"], pad=pad, relu=True)
    assert out.tobytes() == nn.relu_forward(pre)[0].tobytes()
    probe = rng.normal(size=out.shape)

    def loss():
        o, _ = nn.conv2d_forward(params["x"], params["w"], params["b"], pad=pad, relu=True)
        return float(np.sum(o * probe))

    dx, dw, db = nn.conv2d_backward(probe, cache, relu_out=out)
    unfused = nn.conv2d_backward(nn.relu_backward(probe, out), cache)
    assert [a.tobytes() for a in (dx, dw, db)] == [a.tobytes() for a in unfused]
    fd_check(loss, params, {"x": dx, "w": dw, "b": db}, rng, samples_per_array=8)


@pytest.mark.parametrize("kernel,pad", [((3, 3), (1, 1)), ((1, 1), (0, 1)), ((5, 2), (2, 0))])
def test_conv2d_rejects_kernels_and_padding_along_the_joint_axis(kernel, pad):
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError, match="along T only"):
        nn.conv2d_forward(rng.normal(size=(2, 3, 7, 4)), rng.normal(size=(4, 3, *kernel)),
                          np.zeros(4), pad=pad)


@pytest.mark.usefixtures("conv_workers")
def test_kernels_keep_float32():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 3, 7, 4)).astype(np.float32)
    w = rng.normal(size=(4, 3, 5, 1)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    out, cache = nn.conv2d_forward(x, w, b, pad=(2, 0))
    grads = nn.conv2d_backward(np.ones_like(out), cache)
    assert [a.dtype for a in (out, *grads)] == [np.float32] * 4
    a_hat = rng.normal(size=(4, 4)).astype(np.float32)
    x = rng.normal(size=(2, 3, 3, 8)).astype(np.float32)
    w = rng.normal(size=(3, 4)).astype(np.float32)
    out, cache = nn.graph_conv_forward(x, a_hat, w, b)
    grads = nn.graph_conv_backward(np.ones_like(out), cache)
    assert [a.dtype for a in (out, *grads)] == [np.float32] * 4
    x = rng.normal(size=(2, 5, 3)).astype(np.float32)
    w = rng.normal(size=(3, 12)).astype(np.float32)
    u = rng.normal(size=(4, 12)).astype(np.float32)
    b = rng.normal(size=12).astype(np.float32)
    out, h, cache = nn.gru_forward(x, w, u, b, reverse=True)
    grads = nn.gru_backward(np.ones_like(out), np.ones_like(h), cache)
    assert [a.dtype for a in (out, h, *grads)] == [np.float32] * 6


@pytest.mark.parametrize("reverse", [False, True])
def test_gru_gradients(fd_check, reverse):
    rng = np.random.default_rng(4)
    n, t, d, h = 2, 5, 3, 4
    params = {"x": rng.normal(size=(n, t, d)),
              "w": rng.normal(size=(d, 3 * h)) * 0.5,
              "u": rng.normal(size=(h, 3 * h)) * 0.5,
              "b": rng.normal(size=3 * h) * 0.1}
    outputs, h_final, cache = nn.gru_forward(params["x"], params["w"],
                                             params["u"], params["b"],
                                             reverse=reverse)
    assert outputs.shape == (n, t, h) and h_final.shape == (n, h)
    probe_o = rng.normal(size=outputs.shape)
    probe_h = rng.normal(size=h_final.shape)

    def loss():
        o, hf, _ = nn.gru_forward(params["x"], params["w"], params["u"],
                                  params["b"], reverse=reverse)
        return float(np.sum(o * probe_o) + np.sum(hf * probe_h))

    dx, dw, du, db = nn.gru_backward(probe_o, probe_h, cache)
    fd_check(loss, params, {"x": dx, "w": dw, "u": du, "b": db}, rng,
             samples_per_array=5)


def test_gru_reverse_consumes_time_backwards():
    rng = np.random.default_rng(5)
    n, t, d, h = 1, 6, 3, 4
    x = rng.normal(size=(n, t, d))
    w = rng.normal(size=(d, 3 * h)) * 0.5
    u = rng.normal(size=(h, 3 * h)) * 0.5
    b = np.zeros(3 * h)
    fwd, h_fwd, _ = nn.gru_forward(x[:, ::-1].copy(), w, u, b, reverse=False)
    rev, h_rev, _ = nn.gru_forward(x, w, u, b, reverse=True)
    assert np.allclose(rev, fwd[:, ::-1], atol=1e-12)
    assert np.allclose(h_rev, h_fwd, atol=1e-12)


def _gru_oracle(x, w, u, b, reverse, doutputs, dh_final):
    """One gate at a time, with its own recurrent matmul: the outputs, the
    final state and (dx, dw, du, db) of sum(outputs * doutputs) +
    sum(final * dh_final), either probe possibly None."""
    n, t, _ = x.shape
    hdim = u.shape[0]
    uz, ur, un = u[:, :hdim], u[:, hdim:2 * hdim], u[:, 2 * hdim:]
    bz, br, bn = b[:hdim], b[hdim:2 * hdim], b[2 * hdim:]
    wz, wr, wn = w[:, :hdim], w[:, hdim:2 * hdim], w[:, 2 * hdim:]
    order = range(t - 1, -1, -1) if reverse else range(t)
    h = np.zeros((n, hdim))
    outputs, steps = np.zeros((n, t, hdim)), []
    for f in order:
        z = 1.0 / (1.0 + np.exp(-(x[:, f] @ wz + h @ uz + bz)))
        r = 1.0 / (1.0 + np.exp(-(x[:, f] @ wr + h @ ur + br)))
        q = h @ un
        cand = np.tanh(x[:, f] @ wn + r * q + bn)
        steps.append((f, h, z, r, q, cand))
        h = (1.0 - z) * cand + z * h
        outputs[:, f] = h
    dx, dw, du, db = (np.zeros_like(a) for a in (x, w, u, b))
    dh = np.zeros((n, hdim)) if dh_final is None else dh_final.copy()
    for f, h_prev, z, r, q, cand in reversed(steps):
        if doutputs is not None:
            dh = dh + doutputs[:, f]
        dan = dh * (1.0 - z) * (1.0 - cand ** 2)
        daz = dh * (h_prev - cand) * z * (1.0 - z)
        dar = dan * q * r * (1.0 - r)
        for k, da, dhu in ((0, daz, daz), (1, dar, dar), (2, dan, dan * r)):
            cols = slice(k * hdim, (k + 1) * hdim)
            dx[:, f] += da @ w[:, cols].T
            dw[:, cols] += x[:, f].T @ da
            db[cols] += da.sum(axis=0)
            du[:, cols] += h_prev.T @ dhu
        dh = dh * z + daz @ uz.T + dar @ ur.T + (dan * r) @ un.T
    return outputs, h, (dx, dw, du, db)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("probes", ["outputs+final", "final only", "outputs only"])
def test_gru_matches_per_gate_oracle(reverse, probes):
    # (n, t, d, h, scale of w): a small case, then the intra-seq SEQ encoder
    # (batch 16, crop 32, 25 joints x 2 actors x 3 coordinates in, hidden 32)
    for shape in ((3, 7, 5, 4, 0.5), (16, 32, 150, 32, 0.1)):
        _check_gru_against_oracle(*shape, reverse, probes)


def _check_gru_against_oracle(n, t, d, h, w_scale, reverse, probes, k=1):
    """k = 2 packs a forward and a reversed direction side by side; the
    oracle runs each on its own, and the input gradient is their sum."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(n, t, d))
    w = rng.normal(size=(d, 3 * h * k)) * w_scale
    u = rng.normal(size=(h, 3 * h * k)) * 0.5
    b = rng.normal(size=3 * h * k) * 0.1
    doutputs = None if probes == "final only" else rng.normal(size=(n, t, h * k))
    dh_final = None if probes == "outputs only" else rng.normal(size=(n, h * k))
    runs = []
    for j, rev in enumerate((reverse,) if k == 1 else (False, True)):
        gates, states = slice(3 * h * j, 3 * h * (j + 1)), slice(h * j, h * (j + 1))
        runs.append(_gru_oracle(x, w[:, gates], u[:, gates], b[gates], rev,
                                None if doutputs is None else doutputs[..., states],
                                None if dh_final is None else dh_final[:, states]))
    want_out = np.concatenate([run[0] for run in runs], axis=-1)
    want_h = np.concatenate([run[1] for run in runs], axis=-1)
    want_grads = [sum(run[2][0] for run in runs)] + [
        np.concatenate([run[2][i] for run in runs], axis=-1) for i in (1, 2, 3)]
    outputs, h_final, cache = nn.gru_forward(x, w, u, b, reverse=reverse)
    assert np.allclose(outputs, want_out, rtol=0, atol=1e-12)
    assert np.allclose(h_final, want_h, rtol=0, atol=1e-12)
    grads = nn.gru_backward(doutputs, dh_final, cache)
    for name, got, want in zip("x w u b".split(), grads, want_grads):
        assert got.shape == want.shape, name
        assert np.allclose(got, want, rtol=0, atol=1e-12), name


@pytest.mark.parametrize("probes", ["outputs+final", "final only", "outputs only"])
def test_packed_gru_matches_per_direction_oracles(probes):
    for shape in ((3, 7, 5, 4, 0.5), (16, 32, 150, 32, 0.1)):
        _check_gru_against_oracle(*shape, False, probes, k=2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n, t, d, h", [(3, 7, 5, 4), (16, 32, 150, 32)])
def test_packed_gru_forward_is_byte_identical_to_two_single_direction_calls(n, t, d, h, dtype):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(n, t, d)).astype(dtype)
    w = (rng.normal(size=(d, 6 * h)) * 0.1).astype(dtype)
    u = (rng.normal(size=(h, 6 * h)) * 0.5).astype(dtype)
    b = (rng.normal(size=6 * h) * 0.1).astype(dtype)
    g = 3 * h
    out_f, h_f, _ = nn.gru_forward(x, w[:, :g], u[:, :g], b[:g])
    out_b, h_b, _ = nn.gru_forward(x, w[:, g:], u[:, g:], b[g:], reverse=True)
    out, h_final, _ = nn.gru_forward(x, w, u, b)
    assert out.dtype == h_final.dtype == dtype
    assert out.tobytes() == np.concatenate([out_f, out_b], axis=2).tobytes()
    assert h_final.tobytes() == np.concatenate([h_f, h_b], axis=1).tobytes()


@pytest.mark.parametrize("w_cols, u_cols, b_cols, reverse", [   # H = 4: 3H = 12, 6H = 24
    (16, 16, 16, False),     # u wider than 3H but not 6H
    (36, 36, 36, False),     # 9H
    (24, 12, 12, False),     # w wider than u
    (12, 12, 24, False),     # b wider than u
    (24, 24, 24, True),      # a packed pair cannot be reversed
])
def test_gru_forward_rejects_widths_that_are_not_one_or_two_directions(w_cols, u_cols,
                                                                      b_cols, reverse):
    rng = np.random.default_rng(14)
    args = (rng.normal(size=(2, 3, 5)), rng.normal(size=(5, w_cols)),
            rng.normal(size=(4, u_cols)), rng.normal(size=b_cols))
    with pytest.raises(ValueError):
        nn.gru_forward(*args, reverse=reverse)


@pytest.mark.usefixtures("conv_workers")
def test_graph_conv_gradients(fd_check):
    rng = np.random.default_rng(6)
    from skelcon.data import chain_tree_bones
    from skelcon.represent import bone_adjacency, normalized_adjacency
    j = 4
    a_hat = normalized_adjacency(bone_adjacency(chain_tree_bones(j), j))
    n, t, c_in, c_out = 2, 3, 3, 5
    params = {"x": rng.normal(size=(n, c_in, t, 2 * j)),
              "w": rng.normal(size=(c_in, c_out)) * 0.5,
              "b": rng.normal(size=c_out) * 0.1}
    out, cache = nn.graph_conv_forward(params["x"], a_hat, params["w"],
                                       params["b"])
    assert out.shape == (n, c_out, t, 2 * j)
    probe = rng.normal(size=out.shape)

    def loss():
        o, _ = nn.graph_conv_forward(params["x"], a_hat, params["w"],
                                     params["b"])
        return float(np.sum(o * probe))

    dx, dw, db = nn.graph_conv_backward(probe, cache)
    fd_check(loss, params, {"x": dx, "w": dw, "b": db}, rng,
             samples_per_array=6)


@pytest.mark.usefixtures("conv_workers")
def test_graph_conv_with_relu_gradients_away_from_kink(fd_check):
    rng = np.random.default_rng(14)
    from skelcon.represent import graph_adjacency
    j = 4
    a_hat = graph_adjacency(chain_tree_bones(j), j)
    params = {"x": rng.normal(size=(2, 3, 3, 2 * j)),
              "w": rng.normal(size=(3, 5)) * 0.5,
              "b": rng.normal(size=5) * 0.5}
    pre, _ = nn.graph_conv_forward(params["x"], a_hat, params["w"], params["b"])
    # no 1e-6 step crosses the kink, and both of its sides are probed
    assert np.abs(pre).min() > 1e-3 and (pre < 0).any() and (pre > 0).any()
    out, cache = nn.graph_conv_forward(params["x"], a_hat, params["w"], params["b"], relu=True)
    assert out.tobytes() == nn.relu_forward(pre)[0].tobytes()
    probe = rng.normal(size=out.shape)

    def loss():
        o, _ = nn.graph_conv_forward(params["x"], a_hat, params["w"], params["b"], relu=True)
        return float(np.sum(o * probe))

    dx, dw, db = nn.graph_conv_backward(probe, cache, relu_out=out)
    unfused = nn.graph_conv_backward(nn.relu_backward(probe, out), cache)
    assert [a.tobytes() for a in (dx, dw, db)] == [a.tobytes() for a in unfused]
    fd_check(loss, params, {"x": dx, "w": dw, "b": db}, rng, samples_per_array=8)


@pytest.mark.usefixtures("conv_workers")
def test_graph_conv_matches_einsum_oracle():
    """A non-symmetric mixing matrix, so a transposed a_hat cannot pass."""
    rng = np.random.default_rng(11)
    n, t, actors, j, c_in, c_out = 2, 3, 2, 4, 3, 5
    a_hat = rng.normal(size=(j, j))
    x = rng.normal(size=(n, c_in, t, actors * j))
    w = rng.normal(size=(c_in, c_out))
    b = rng.normal(size=c_out)
    out, cache = nn.graph_conv_forward(x, a_hat, w, b)
    mixed = np.einsum("jk,nctmk->nctmj", a_hat,
                      x.reshape(n, c_in, t, actors, j)).reshape(x.shape)
    assert np.allclose(out, np.einsum("cf,nctv->nftv", w, mixed) + b[:, None, None],
                       rtol=0, atol=1e-12)
    dout = rng.normal(size=out.shape)
    dx, dw, db = nn.graph_conv_backward(dout, cache)
    dmixed = np.einsum("cf,nftv->nctv", w, dout).reshape(n, c_in, t, actors, j)
    want_dx = np.einsum("jk,nctmj->nctmk", a_hat, dmixed).reshape(x.shape)
    assert np.allclose(dx, want_dx, rtol=0, atol=1e-12)
    assert np.allclose(dw, np.einsum("nctv,nftv->cf", mixed, dout), rtol=0, atol=1e-12)
    assert np.allclose(db, dout.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)


@pytest.mark.usefixtures("conv_workers")
def test_graph_conv_mixes_actors_independently():
    """A nonzero first actor must never leak into the zero-padded second."""
    rng = np.random.default_rng(7)
    from skelcon.data import chain_tree_bones
    from skelcon.represent import bone_adjacency, normalized_adjacency
    j = 4
    a_hat = normalized_adjacency(bone_adjacency(chain_tree_bones(j), j))
    x = rng.normal(size=(1, 3, 2, 2 * j))
    x[..., j:] = 0.0
    w = rng.normal(size=(3, 4))
    out, _ = nn.graph_conv_forward(x, a_hat, w, np.zeros(4))
    assert np.all(out[..., j:] == 0.0)
    assert np.any(out[..., :j] != 0.0)
    with pytest.raises(ValueError, match="multiple of the 4 joints"):
        nn.graph_conv_forward(x[..., 1:], a_hat, w, np.zeros(4))
