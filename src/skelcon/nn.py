"""Dense, convolutional, recurrent and graph layer primitives in numpy.

Every layer is a pair of pure functions ``*_forward(...) -> (out, cache)``
and ``*_backward(dout, cache) -> grads`` so that analytic gradients can be
compared against central finite differences layer by layer and end to end.
Arrays keep whatever float dtype they arrive with; trainers use float32,
gradient-check tests use float64.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x, out=None):
    # tanh form: no masked branches, and it saturates to exactly 0 and 1;
    # `out` may be `x`, and each step has the bytes of 0.5 * (1 + tanh(0.5 x))
    y = np.multiply(x, 0.5, out=out)
    np.tanh(y, out=y)
    y += 1.0
    y *= 0.5
    return y


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
# gated recurrent layer: one direction, or two packed side by side
# ---------------------------------------------------------------------------
#
# gate layout inside the (.., 3H) projections: [update z | reset r | candidate n]
#
#   z_t = sigmoid(x_t Wz + h_{t-1} Uz + bz)
#   r_t = sigmoid(x_t Wr + h_{t-1} Ur + br)
#   n_t = tanh(x_t Wn + r_t * (h_{t-1} Un) + bn)
#   h_t = (1 - z_t) * n_t + z_t * h_{t-1}
#
# k = 2 directions sit side by side on the gate axis, w: (D, 6H) = [fwd | bwd],
# and run as one recurrence over a leading direction axis (Appleyard et al.,
# arXiv 1604.01946).  The recurrence is time-major: row s of direction j is
# the step that reads frame s, or frame T-1-s when j runs reversed, so each
# step's slab (k, N, .) is contiguous and both directions share one batched
# matmul.

def _steps(a, flips):
    """Frame-major (N, T, k, C) -> step-major (T, k, N, C)."""
    out = np.empty((a.shape[1], len(flips), a.shape[0], a.shape[3]), dtype=a.dtype)
    for j, flip in enumerate(flips):
        frames = a[:, :, j].transpose(1, 0, 2)
        out[:, j] = frames[::-1] if flip else frames
    return out


def _frames(a, flips):
    """Step-major (T, k, N, C) -> frame-major (N, T, k, C); undoes `_steps`."""
    out = np.empty((a.shape[2], a.shape[0], len(flips), a.shape[3]), dtype=a.dtype)
    for j, flip in enumerate(flips):
        steps = a[::-1, j] if flip else a[:, j]
        out[:, :, j] = steps.transpose(1, 0, 2)
    return out


def gru_forward(x, w, u, b, reverse=False):
    """x: (N, T, D) and k = 1 or 2 directions packed on the gate axis,
    w: (D, 3H*k), u: (H, 3H*k), b: (3H*k,) -> outputs (N, T, H*k) and final
    state (N, H*k), both [fwd | bwd] when k = 2.

    A reversed direction consumes the sequence back to front; its outputs
    are returned in original frame order and its "final" state is the one
    produced after reading frame 0.  With k = 2 the second direction is
    reversed; with k = 1, `reverse` chooses.
    """
    n, t, _ = x.shape
    hdim, width = u.shape
    if width not in (3 * hdim, 6 * hdim) or w.shape[-1] != width or b.shape != (width,):
        raise ValueError(f"gru_forward needs u of shape (H, 3H) or (H, 6H) and w, b of "
                         f"its width; got w {w.shape}, u {u.shape}, b {b.shape}")
    k, g = width // (3 * hdim), 3 * hdim
    if reverse and k == 2:
        raise ValueError("reverse=True needs one direction; the second of a packed "
                         "pair is always reversed")
    flips = (False, True) if k == 2 else (reverse,)
    uk = u.reshape(hdim, k, g).transpose(1, 0, 2)                   # (k, H, 3H)
    # x w + b per step, overwritten in place by [z | r | n]
    gates = _steps((x @ w + b).reshape(n, t, k, g), flips)
    hs = np.zeros((t + 1, k, n, hdim), dtype=x.dtype)   # hs[0] is the initial state
    qs = np.empty((t, k, n, hdim), dtype=x.dtype)       # h_{t-1} Un per step
    tmp = np.empty((k, n, hdim), dtype=x.dtype)
    for step in range(t):
        h, gs, h_new = hs[step], gates[step], hs[step + 1]
        hu = np.matmul(h, uk)
        zr, cand, q = gs[..., :2 * hdim], gs[..., 2 * hdim:], qs[step]
        zr += hu[..., :2 * hdim]
        sigmoid(zr, out=zr)
        z, r = zr[..., :hdim], zr[..., hdim:]
        q[...] = hu[..., 2 * hdim:]
        cand += np.multiply(r, q, out=tmp)
        np.tanh(cand, out=cand)
        np.multiply(z, h, out=h_new)
        np.subtract(1.0, z, out=tmp)
        h_new += np.multiply(tmp, cand, out=tmp)
    cache = (x, w, u, gates, qs, hs, flips)
    outputs = _frames(hs[1:], flips).reshape(n, t, k * hdim)
    return outputs, hs[t].transpose(1, 0, 2).reshape(n, k * hdim).copy(), cache


def gru_backward(doutputs, dh_final, cache):
    """Backprop through time.

    doutputs: (N, T, H*k) gradient on every per-frame output (frame order as
    returned by gru_forward), or None.  dh_final: extra gradient on the
    final state (N, H*k), or None.  Returns (dx, dw, du, db) with dx in
    original frame order and dw, du, db packed like w, u, b.
    """
    x, w, u, gates, qs, hs, flips = cache
    n, t, d = x.shape
    hdim, width = u.shape
    k, g = len(flips), 3 * hdim
    # Every gate gradient is dh_t times a coefficient the forward cache fixes:
    # d(x w + b) = dh_t * [cz | cr | cn] and d(h_{t-1} u) = dh_t * [cz | cr | cn r],
    # with dh_t tiled over the three gates.  Only dh is carried through time;
    # coef_h holds [cz | cr | cn r] and du is summed as the steps go.
    z, r, nn_ = gates[..., :hdim], gates[..., hdim:2 * hdim], gates[..., 2 * hdim:]
    coef_h = np.empty((t, k, n, 3, hdim), dtype=x.dtype)
    cz, cr, cnr = coef_h[..., 0, :], coef_h[..., 1, :], coef_h[..., 2, :]
    omz = np.subtract(1.0, z)
    cn = np.multiply(nn_, nn_)
    np.subtract(1.0, cn, out=cn)
    cn *= omz
    np.subtract(hs[:-1], nn_, out=cz)
    cz *= z
    cz *= omz
    np.multiply(cn, qs, out=cr)
    cr *= r
    cr *= np.subtract(1.0, r, out=omz)                              # omz is done with
    np.multiply(cn, r, out=cnr)
    if doutputs is not None:
        doutputs = _steps(doutputs.reshape(n, t, k, hdim), flips)
    if dh_final is None:
        dh = np.zeros((k, n, hdim), dtype=x.dtype)
    else:
        dh = dh_final.reshape(n, k, hdim).transpose(1, 0, 2)
    ut = u.reshape(hdim, k, g).transpose(1, 2, 0)                   # (k, 3H, H)
    dhs = np.empty((t, k, n, 1, hdim), dtype=x.dtype)   # dh_t per step
    du = np.zeros((k, hdim, g), dtype=x.dtype)
    for step in range(t - 1, -1, -1):
        if doutputs is not None:
            dh = dh + doutputs[step]
        dhs[step, :, :, 0] = dh
        dhu_t = (dh[:, :, None] * coef_h[step]).reshape(k, n, g)
        du += np.matmul(hs[step].transpose(0, 2, 1), dhu_t)
        dh = dh * z[step] + np.matmul(dhu_t, ut)
    # d(x w + b) in frame order: a row per (sample, frame), both directions'
    # gates side by side
    dxp = np.empty((n, t, k, 3, hdim), dtype=x.dtype)
    for j, flip in enumerate(flips):
        frames = (dxp[:, ::-1, j] if flip else dxp[:, :, j]).transpose(1, 0, 2, 3)
        np.multiply(dhs[:, j, :, 0], cn[:, j], out=frames[..., 2, :])
        np.multiply(dhs[:, j], coef_h[:, j, :, :2], out=frames[..., :2, :])
    dxp = dxp.reshape(n * t, width)
    dw = x.reshape(-1, d).T @ dxp
    db = dxp.sum(axis=0)
    dx = (dxp @ w.T).reshape(n, t, d)                 # one 2-D GEMM over both directions
    return dx, dw, du.transpose(1, 0, 2).reshape(hdim, width), db


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
