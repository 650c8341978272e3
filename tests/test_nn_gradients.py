"""Finite-difference checks for every layer's analytic backward pass.

Each check builds float64 tensors, probes the layer's scalar projection
loss = sum(output * probe), and compares the backward-pass gradients with
central differences through the conftest checker."""

import numpy as np
import pytest

from skelcon import nn


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


def test_conv2d_gradients(fd_check):
    rng = np.random.default_rng(3)
    params = {"x": rng.normal(size=(2, 2, 5, 4)),
              "w": rng.normal(size=(3, 2, 3, 3)) * 0.5,
              "b": rng.normal(size=3)}
    out, cache = nn.conv2d_forward(params["x"], params["w"], params["b"],
                                   pad=(1, 1))
    assert out.shape == (2, 3, 5, 4)
    probe = rng.normal(size=out.shape)

    def loss():
        o, _ = nn.conv2d_forward(params["x"], params["w"], params["b"],
                                 pad=(1, 1))
        return float(np.sum(o * probe))

    dx, dw, db = nn.conv2d_backward(probe, cache, params["w"])
    fd_check(loss, params, {"x": dx, "w": dw, "b": db}, rng,
             samples_per_array=6)


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


@pytest.mark.parametrize("kernel,pad", [
    ((5, 1), (2, 0)),     # the encoders' temporal conv
    ((1, 1), (0, 0)),     # pointwise stem and co-occurrence mix
    ((3, 1), (0, 0)),     # valid conv: fewer output rows than input rows
    ((5, 1), (1, 0)),     # padding narrower than the kernel's half
    ((3, 3), (1, 1)),     # taps that shift along both axes
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
    dx, dw, db = nn.conv2d_backward(dout, cache, w)
    assert np.allclose(dx, want_dx, rtol=0, atol=1e-12)
    assert np.allclose(dw, want_dw, rtol=0, atol=1e-12)
    assert np.allclose(db, want_db, rtol=0, atol=1e-12)


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

    dx, dw, db = nn.conv2d_backward(probe, cache, params["w"])
    fd_check(loss, params, {"x": dx, "w": dw, "b": db}, rng,
             samples_per_array=8)


def test_kernels_keep_float32():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 3, 7, 4)).astype(np.float32)
    w = rng.normal(size=(4, 3, 5, 1)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    out, cache = nn.conv2d_forward(x, w, b, pad=(2, 0))
    grads = nn.conv2d_backward(np.ones_like(out), cache, w)
    assert [a.dtype for a in (out, *grads)] == [np.float32] * 4
    a_hat = rng.normal(size=(4, 4)).astype(np.float32)
    x = rng.normal(size=(2, 3, 8, 3)).astype(np.float32)
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


def _check_gru_against_oracle(n, t, d, h, w_scale, reverse, probes):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(n, t, d))
    w = rng.normal(size=(d, 3 * h)) * w_scale
    u = rng.normal(size=(h, 3 * h)) * 0.5
    b = rng.normal(size=3 * h) * 0.1
    doutputs = None if probes == "final only" else rng.normal(size=(n, t, h))
    dh_final = None if probes == "outputs only" else rng.normal(size=(n, h))
    want_out, want_h, want_grads = _gru_oracle(x, w, u, b, reverse, doutputs, dh_final)
    outputs, h_final, cache = nn.gru_forward(x, w, u, b, reverse=reverse)
    assert np.allclose(outputs, want_out, rtol=0, atol=1e-12)
    assert np.allclose(h_final, want_h, rtol=0, atol=1e-12)
    grads = nn.gru_backward(doutputs, dh_final, cache)
    for name, got, want in zip("x w u b".split(), grads, want_grads):
        assert got.shape == want.shape, name
        assert np.allclose(got, want, rtol=0, atol=1e-12), name


def test_graph_conv_gradients(fd_check):
    rng = np.random.default_rng(6)
    from skelcon.data import chain_tree_bones
    from skelcon.represent import bone_adjacency, normalized_adjacency
    j = 4
    a_hat = normalized_adjacency(bone_adjacency(chain_tree_bones(j), j))
    n, t, c_in, c_out = 2, 3, 3, 5
    params = {"x": rng.normal(size=(n, t, 2 * j, c_in)),
              "w": rng.normal(size=(c_in, c_out)) * 0.5,
              "b": rng.normal(size=c_out) * 0.1}
    out, cache = nn.graph_conv_forward(params["x"], a_hat, params["w"],
                                       params["b"])
    assert out.shape == (n, t, 2 * j, c_out)
    probe = rng.normal(size=out.shape)

    def loss():
        o, _ = nn.graph_conv_forward(params["x"], a_hat, params["w"],
                                     params["b"])
        return float(np.sum(o * probe))

    dx, dw, db = nn.graph_conv_backward(probe, cache)
    fd_check(loss, params, {"x": dx, "w": dw, "b": db}, rng,
             samples_per_array=6)


def test_graph_conv_matches_einsum_oracle():
    """A non-symmetric mixing matrix, so a transposed a_hat cannot pass."""
    rng = np.random.default_rng(11)
    n, t, actors, j, c_in, c_out = 2, 3, 2, 4, 3, 5
    a_hat = rng.normal(size=(j, j))
    x = rng.normal(size=(n, t, actors * j, c_in))
    w = rng.normal(size=(c_in, c_out))
    b = rng.normal(size=c_out)
    out, cache = nn.graph_conv_forward(x, a_hat, w, b, actors)
    mixed = np.einsum("jk,ntmkc->ntmjc", a_hat,
                      x.reshape(n, t, actors, j, c_in)).reshape(x.shape)
    assert np.allclose(out, mixed @ w + b, rtol=0, atol=1e-12)
    dout = rng.normal(size=out.shape)
    dx, dw, db = nn.graph_conv_backward(dout, cache)
    dmixed = (dout @ w.T).reshape(n, t, actors, j, c_in)
    want_dx = np.einsum("jk,ntmjc->ntmkc", a_hat, dmixed).reshape(x.shape)
    assert np.allclose(dx, want_dx, rtol=0, atol=1e-12)
    assert np.allclose(dw, mixed.reshape(-1, c_in).T @ dout.reshape(-1, c_out),
                       rtol=0, atol=1e-12)
    assert np.allclose(db, dout.sum(axis=(0, 1, 2)), rtol=0, atol=1e-12)


def test_graph_conv_mixes_actors_independently():
    """A nonzero first actor must never leak into the zero-padded second."""
    rng = np.random.default_rng(7)
    from skelcon.data import chain_tree_bones
    from skelcon.represent import bone_adjacency, normalized_adjacency
    j = 4
    a_hat = normalized_adjacency(bone_adjacency(chain_tree_bones(j), j))
    x = rng.normal(size=(1, 2, 2 * j, 3))
    x[:, :, j:] = 0.0
    w = rng.normal(size=(3, 4))
    out, _ = nn.graph_conv_forward(x, a_hat, w, np.zeros(4))
    assert np.all(out[:, :, j:] == 0.0)
    assert np.any(out[:, :, :j] != 0.0)
