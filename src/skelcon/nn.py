"""Dense, convolutional, recurrent and graph layer primitives in numpy.

Every layer is a pair of pure functions ``*_forward(...) -> (out, cache)``
and ``*_backward(dout, cache) -> grads`` so that analytic gradients can be
compared against central finite differences layer by layer and end to end.
Arrays keep whatever float dtype they arrive with; trainers use float32,
gradient-check tests use float64.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    # tanh form: no masked branches, and it saturates to exactly 0 and 1
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# ---------------------------------------------------------------------------
# dense / activation
# ---------------------------------------------------------------------------

def linear_forward(x, w, b):
    """x: (..., D) @ w: (D, F) + b."""
    return x @ w + b, (x, w)


def linear_backward(dout, cache):
    x, w = cache
    d = x.shape[-1]
    xm = x.reshape(-1, d)
    dm = dout.reshape(-1, dout.shape[-1])
    dw = xm.T @ dm
    db = dm.sum(axis=0)
    dx = (dm @ w.T).reshape(x.shape)
    return dx, dw, db


def relu_forward(x):
    """The output is its own cache: y > 0 exactly where x > 0."""
    y = np.maximum(x, 0.0)
    return y, y


def relu_backward(dout, cache):
    return dout * (cache > 0)


def mean_pool_forward(x, axes: tuple[int, ...]):
    """Global mean over `axes`; cache keeps enough to broadcast back."""
    return x.mean(axis=axes), (x.shape, axes)


def mean_pool_backward(dout, cache):
    shape, axes = cache
    count = 1
    expanded = list(dout.shape)
    for ax in sorted(axes):
        count *= shape[ax]
        expanded.insert(ax, 1)
    return np.broadcast_to(dout.reshape(expanded) / count, shape).copy()


# ---------------------------------------------------------------------------
# 2-D convolution (stride 1) as one shifted matmul per kernel tap
# ---------------------------------------------------------------------------
#
# Tap (i, j) of a zero-padded conv multiplies w[:, :, i, j] into the input
# shifted by (i - ph, j - pw).  Output row r reads input row r + i - ph, so
# the tap only touches the output rows whose input row lies in [0, h); the
# padding is never materialized.  Same along the width.

def _tap_span(k, pad, size, out):
    """Along one axis: the output slice kernel offset `k` reaches and the
    input slice it reads (output index r reads input index r + k - pad)."""
    lo, hi = max(0, pad - k), min(out, size + pad - k)
    return slice(lo, hi), slice(lo + k - pad, hi + k - pad)


def _taps(x_shape, w_shape, pad, out_shape):
    """Yield (i, j, output window, input window) for every tap that reaches
    the output."""
    _, _, h, wd = x_shape
    _, _, kh, kw = w_shape
    for i in range(kh):
        ro, ri = _tap_span(i, pad[0], h, out_shape[0])
        for j in range(kw):
            co, ci = _tap_span(j, pad[1], wd, out_shape[1])
            if ro.start < ro.stop and co.start < co.stop:
                yield i, j, (..., ro, co), (..., ri, ci)


def conv2d_forward(x, w, b, pad=(0, 0)):
    """x: (N, C, H, W), w: (F, C, kh, kw), stride 1, zero padding `pad`."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ho, wo = h + 2 * pad[0] - kh + 1, wd + 2 * pad[1] - kw + 1
    taps = list(_taps(x.shape, w.shape, pad, (ho, wo)))

    def product(i, j, s):
        xs = x[s]
        return np.matmul(w[:, :, i, j], xs.reshape(n, c, -1)).reshape(n, f, *xs.shape[2:])

    dtype = np.result_type(x, w, b)
    if taps and taps[0][2] == (..., slice(0, ho), slice(0, wo)):
        # The first tap reaches every output (a 1x1 or unpadded kernel): its
        # product becomes the output, and tap + b has the bytes of b + tap.
        i, j, _, s = taps.pop(0)
        out = product(i, j, s).astype(dtype, copy=False)
        out += b[:, None, None]
    else:
        out = np.empty((n, f, ho, wo), dtype=dtype)
        out[...] = b[:, None, None]
    for i, j, o, s in taps:
        out[o] += product(i, j, s)
    return out, (x, x.shape, w.shape, pad, (ho, wo))


def conv2d_backward(dout, cache, w):
    x, x_shape, w_shape, pad, out_shape = cache
    n, c = x_shape[:2]
    f = w_shape[0]
    db = dout.sum(axis=(0, 2, 3))
    dw = np.zeros(w_shape, dtype=dout.dtype)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    for i, j, o, s in _taps(x_shape, w_shape, pad, out_shape):
        ds = dout[o].reshape(n, f, -1)
        xs = x[s]
        dw[:, :, i, j] = np.matmul(ds, xs.reshape(n, c, -1).transpose(0, 2, 1)).sum(axis=0)
        dx[s] += np.matmul(w[:, :, i, j].T, ds).reshape(xs.shape)
    return dx, dw, db


# ---------------------------------------------------------------------------
# gated recurrent layer (single direction)
# ---------------------------------------------------------------------------
#
# gate layout inside the (.., 3H) projections: [update z | reset r | candidate n]
#
#   z_t = sigmoid(x_t Wz + h_{t-1} Uz + bz)
#   r_t = sigmoid(x_t Wr + h_{t-1} Ur + br)
#   n_t = tanh(x_t Wn + r_t * (h_{t-1} Un) + bn)
#   h_t = (1 - z_t) * n_t + z_t * h_{t-1}

def gru_forward(x, w, u, b, reverse=False):
    """x: (N, T, D), w: (D, 3H), u: (H, 3H), b: (3H,) -> outputs (N, T, H).

    With reverse=True the sequence is consumed back to front and the output
    is returned re-flipped into original frame order; the "final" state is
    then the one produced after reading frame 0.
    """
    if reverse:
        x = x[:, ::-1]
    n, t, _ = x.shape
    hdim = u.shape[0]
    xp = x @ w + b
    hs = np.zeros((n, t + 1, hdim), dtype=x.dtype)     # hs[:, 0] is the initial state
    gates = np.empty((n, t, 3 * hdim), dtype=x.dtype)  # [z | r | n] per step
    qs = np.empty((n, t, hdim), dtype=x.dtype)         # h_{t-1} Un per step
    for step in range(t):
        h = hs[:, step]
        hu = h @ u
        zr = sigmoid(xp[:, step, :2 * hdim] + hu[:, :2 * hdim])
        z, r, q = zr[:, :hdim], zr[:, hdim:], hu[:, 2 * hdim:]
        nn_ = np.tanh(xp[:, step, 2 * hdim:] + r * q)
        hs[:, step + 1] = (1.0 - z) * nn_ + z * h
        gates[:, step, :2 * hdim], gates[:, step, 2 * hdim:], qs[:, step] = zr, nn_, q
    cache = (x, w, u, gates, qs, hs, reverse)
    outputs = hs[:, :0:-1] if reverse else hs[:, 1:]
    return outputs.copy(), hs[:, t].copy(), cache


def gru_backward(doutputs, dh_final, cache):
    """Backprop through time.

    doutputs: (N, T, H) gradient on every per-frame output (frame order as
    returned by gru_forward), or None.  dh_final: extra gradient on the
    final state, or None.  Returns (dx, dw, du, db) with dx in original
    frame order.
    """
    x, w, u, gates, qs, hs, reverse = cache
    n, t, d = x.shape
    hdim = u.shape[0]
    if doutputs is not None and reverse:
        doutputs = doutputs[:, ::-1]
    # Every gate gradient is dh_t times a coefficient the forward cache fixes:
    # d(x w + b) = dh_t * [cz | cr | cn] and d(h_{t-1} u) = dh_t * [cz | cr | cn r],
    # with dh_t tiled over the three gates.  Only dh is carried through time.
    z, r, nn_ = gates[..., :hdim], gates[..., hdim:2 * hdim], gates[..., 2 * hdim:]
    cn = (1.0 - z) * (1.0 - nn_ * nn_)
    coef_x = np.concatenate([(hs[:, :-1] - nn_) * z * (1.0 - z),
                             cn * qs * r * (1.0 - r), cn], axis=-1).reshape(n, t, 3, hdim)
    coef_h = coef_x.copy()
    coef_h[:, :, 2] *= r
    dh = np.zeros((n, hdim), dtype=x.dtype) if dh_final is None else dh_final
    dhs = np.empty((n, t, 1, hdim), dtype=x.dtype)    # dh_t per step
    for step in range(t - 1, -1, -1):
        if doutputs is not None:
            dh = dh + doutputs[:, step]
        dhs[:, step, 0] = dh
        dhu_t = (dh[:, None] * coef_h[:, step]).reshape(n, 3 * hdim)
        dh = dh * z[:, step] + dhu_t @ u.T
    dxp = (dhs * coef_x).reshape(-1, 3 * hdim)        # d(x w + b), a row per (sample, step)
    dhu = (dhs * coef_h).reshape(-1, 3 * hdim)        # d(h_{t-1} u), likewise
    du = hs[:, :-1].reshape(-1, hdim).T @ dhu
    dw = x.reshape(-1, d).T @ dxp
    db = dxp.sum(axis=0)
    dx = (dxp @ w.T).reshape(n, t, d)                 # one 2-D GEMM, not n batched ones
    if reverse:
        dx = dx[:, ::-1]
    return np.ascontiguousarray(dx), dw, du, db


# ---------------------------------------------------------------------------
# graph convolution over a fixed per-actor adjacency
# ---------------------------------------------------------------------------

def graph_conv_forward(x, a_hat, w, b, actors=2):
    """x: (N, T, V, C) with V = actors * J; a_hat: normalized (J, J).

    Spatial mixing applies a_hat inside each actor block (disjoint
    components), then a shared channel map:  y = mix(x) @ w + b.
    """
    n, t, v, c = x.shape
    j = a_hat.shape[0]
    xr = x.reshape(n, t, actors, j, c)
    mixed = np.matmul(a_hat, xr).reshape(n, t, v, c)
    y = mixed @ w + b
    return y, (mixed, x.shape, a_hat, w, actors)


def graph_conv_backward(dout, cache):
    mixed, x_shape, a_hat, w, actors = cache
    n, t, v, c = x_shape
    j = a_hat.shape[0]
    dmat = dout.reshape(-1, dout.shape[-1])
    dw = mixed.reshape(-1, c).T @ dmat
    db = dmat.sum(axis=0)
    dmixed = (dout @ w.T).reshape(n, t, actors, j, c)
    # mixed = A x  =>  dx = A^T dmixed
    dx = np.matmul(a_hat.T, dmixed).reshape(x_shape)
    return dx, dw, db
