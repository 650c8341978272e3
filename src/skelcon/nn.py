"""Dense, convolutional, recurrent and graph layer primitives in numpy.

Every layer is a pair of pure functions ``*_forward(...) -> (out, cache)``
and ``*_backward(dout, cache) -> grads`` so that analytic gradients can be
compared against central finite differences layer by layer and end to end.
Arrays keep whatever float dtype they arrive with; trainers use float32,
gradient-check tests use float64.

The conv and graph-conv ops split their sample axis into contiguous blocks
and run the blocks on a thread pool (`_per_sample`).  The number of blocks
is `conv_workers()`: the usable CPUs divided by the BLAS thread count that
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` sets
(the first positive integer among them), so pool workers only use the cores
that BLAS leaves idle.  With none of them set BLAS already uses every core
and each op runs as one block.  A block runs its samples' GEMMs and bias
adds; with ``relu=True`` it also applies the ReLU that follows the op to
the rows it has just written, and the backward masks those rows of
``dout`` before its GEMMs read them.  `transpose_copy` copies a transpose
that keeps the sample axis first in the same blocks.  Every sample's GEMMs
are the same calls whatever the block, and the sums over samples and graph
conv's joint-mixing GEMM run once in the calling thread, so the bytes never
depend on the worker count.  They do depend on the BLAS thread count: BLAS
pinned to one thread is the configuration whose bytes do not depend on the
host's core count.
"""

from __future__ import annotations

import math
import os

import numpy as np

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        return os.cpu_count() or 1


def blas_core() -> str | None:
    """The kernel set the loaded OpenBLAS picked at run time (``SkylakeX``,
    ``Haswell``, ...), which numpy's build string does not tell; None when
    numpy's BLAS has no ``scipy_openblas_get_corename64_``."""
    import ctypes
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                 # numpy before 2.0
        from numpy.core import _multiarray_umath as umath
    try:
        # dlsym on numpy's extension also searches the libraries it links
        get = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return None
    get.restype = ctypes.c_char_p
    return get().decode("ascii")


def conv_workers() -> int:
    """Sample blocks per conv or graph-conv call: usable CPUs // BLAS threads,
    at least 1, and 1 when no BLAS thread variable holds a positive integer."""
    cpus = usable_cpus()
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return max(1, cpus // threads)
    return 1


_pool = None        # (workers, executor or None), made on first use


def _drop_pool():
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    # A forked child has none of the parent's pool threads.
    os.register_at_fork(after_in_child=_drop_pool)


def _per_sample(block, n):
    """Run `block(lo, hi)` over `min(workers, n)` contiguous sample blocks:
    the first in the calling thread, the rest on the pool.

    A block writes only into arrays the calling thread allocated, through
    ``out=`` and in-place ops, and calls nothing but numpy.  glibc gives
    each thread its own heap arena, so array temporaries made in a worker
    would raise the peak RSS; and a tracer's span stack stays on the
    calling thread.
    """
    global _pool
    if _pool is None:
        # imported here: concurrent.futures loads logging, 0.8 MB of RSS in
        # a process that never convolves
        from concurrent.futures import ThreadPoolExecutor
        workers = conv_workers()
        _pool = (workers, ThreadPoolExecutor(workers - 1, thread_name_prefix="skelcon-conv")
                  if workers > 1 else None)
    workers, executor = _pool
    blocks = min(workers, n)
    if blocks <= 1:
        block(0, n)
        return
    edges = [n * k // blocks for k in range(blocks + 1)]
    futures = [executor.submit(block, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        block(0, edges[1])
    finally:
        for future in futures:       # every block ends before its arrays are used
            future.exception()
    for future in futures:
        future.result()


def _relu_mask(dout, relu_out):
    """Allocate ``dout * (relu_out > 0)``, the gradient through a ReLU whose
    output is `relu_out`, and return it with ``mask(lo, hi)``, which fills
    its sample rows lo:hi: the bytes of `relu_backward`, made in a sample
    block.  Without a ReLU (`relu_out` None) that is `dout` and a no-op."""
    if relu_out is None:
        return dout, lambda lo, hi: None
    relu_out = relu_out.reshape(dout.shape)
    positive = np.empty(dout.shape, dtype=bool)
    masked = np.empty(dout.shape, dtype=np.result_type(dout, positive))

    def mask(lo, hi):
        np.greater(relu_out[lo:hi], 0.0, out=positive[lo:hi])
        np.multiply(dout[lo:hi], positive[lo:hi], out=masked[lo:hi])

    return masked, mask


def transpose_copy(x, axes):
    """``np.ascontiguousarray(x.transpose(axes))`` for axes that keep the
    sample axis first, copied in sample blocks."""
    if axes[0] != 0:
        raise ValueError(f"transpose_copy keeps the sample axis first, got axes {tuple(axes)}")
    view = x.transpose(axes)
    out = np.empty(view.shape, dtype=x.dtype)

    def block(lo, hi):
        out[lo:hi] = view[lo:hi]

    _per_sample(block, x.shape[0])
    return out


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
# temporal convolution (stride 1) as one shifted matmul per kernel tap
# ---------------------------------------------------------------------------
#
# The encoders convolve (N, C, T, V) along T only, with (kt x 1) and 1x1
# kernels.  Tap i multiplies w[:, :, i, 0] into the input shifted by
# i - pad[0]: output row r reads input row r + i - pad[0], so the tap only
# touches the output rows whose input row lies in [0, T); the padding is
# never materialized.

def _taps(t, kt, pad, t_out):
    """Yield (i, output rows, input rows) for every tap that reaches the
    output."""
    for i in range(kt):
        lo, hi = max(0, pad - i), min(t_out, t + pad - i)
        if lo < hi:
            yield i, slice(lo, hi), slice(lo + i - pad, hi + i - pad)


def _scratch(buf, lo, hi, *shape):
    """A C-contiguous (hi - lo, *shape) view into rows lo:hi of the (N, size)
    scratch `buf`: each sample block keeps to its own rows, and BLAS writes
    a contiguous output faster than a strided one."""
    return buf[lo:hi].reshape(-1)[:(hi - lo) * math.prod(shape)].reshape(hi - lo, *shape)


def conv2d_forward(x, w, b, pad=(0, 0), relu=False):
    """x: (N, C, T, V), w: (F, C, kt, 1), stride 1, zero padding `pad` =
    (pad along T, 0): the kernel spans time only.  `relu` applies a ReLU to
    the output; its backward then takes the output as ``relu_out``."""
    n, c, t, v = x.shape
    f, _, kt, kw = w.shape
    if kw != 1 or pad[1] != 0:
        raise ValueError(f"conv2d convolves along T only: needs a (kt, 1) kernel and "
                         f"pad (p, 0), got w {w.shape} and pad {tuple(pad)}")
    t_out = t + 2 * pad[0] - kt + 1
    taps = list(_taps(t, kt, pad[0], t_out))
    out = np.empty((n, f, t_out, v), dtype=np.result_type(x, w, b))
    # The first tap reaches every output (a 1x1 or unpadded kernel): its
    # product becomes the output, and tap + b has the bytes of b + tap.
    first = taps.pop(0) if taps and taps[0][1] == slice(0, t_out) else None
    if taps:
        scratch = np.empty((n, f * t_out * v), dtype=np.result_type(x, w))

    def block(lo, hi):
        o_blk = out[lo:hi]
        if first is None:
            o_blk[...] = b[:, None, None]
        else:
            i, _, rows = first
            np.matmul(w[:, :, i, 0], x[lo:hi, :, rows].reshape(hi - lo, c, -1),
                      out=o_blk.reshape(hi - lo, f, -1))
            o_blk += b[:, None, None]
        for i, o, rows in taps:
            xs = x[lo:hi, :, rows].reshape(hi - lo, c, -1)
            p = np.matmul(w[:, :, i, 0], xs, out=_scratch(scratch, lo, hi, f, xs.shape[2]))
            o_blk[:, :, o] += p.reshape(hi - lo, f, -1, v)
        if relu:
            np.maximum(o_blk, 0.0, out=o_blk)

    _per_sample(block, n)
    return out, (x, x.shape, w.shape, pad, w)


def conv2d_backward(dout, cache, relu_out=None):
    """Gradients (dx, dw, db) of `conv2d_forward`; pass its output as
    `relu_out` when it ran with ``relu=True``."""
    x, x_shape, w_shape, pad, w = cache
    n, c, t, v = x_shape
    f, _, kt, _ = w_shape
    taps = list(_taps(t, kt, pad[0], dout.shape[2]))
    dout, mask = _relu_mask(dout, relu_out)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    # each sample's dw product per tap, summed over samples below
    dws = np.empty((len(taps), n, f, c), dtype=np.result_type(dout, x))
    scratch = np.empty((n, c * t * v), dtype=np.result_type(w, dout))

    def block(lo, hi):
        mask(lo, hi)
        for k, (i, o, rows) in enumerate(taps):
            ds = dout[lo:hi, :, o].reshape(hi - lo, f, -1)
            xs = x[lo:hi, :, rows].reshape(hi - lo, c, -1)
            np.matmul(ds, xs.transpose(0, 2, 1), out=dws[k, lo:hi])
            p = np.matmul(w[:, :, i, 0].T, ds, out=_scratch(scratch, lo, hi, c, xs.shape[2]))
            dx[lo:hi, :, rows] += p.reshape(hi - lo, c, -1, v)

    _per_sample(block, n)
    db = dout.sum(axis=(0, 2, 3))
    dw = np.zeros(w_shape, dtype=dout.dtype)
    for k, (i, _, _) in enumerate(taps):
        dw[:, :, i, 0] = dws[k].sum(axis=0)
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

def graph_conv_forward(x, a_hat, w, b, relu=False):
    """x: (N, C, T, V) with V = actors * J; a_hat: normalized (J, J);
    w: (C, F) -> (N, F, T, V).

    a_hat mixes the joints inside each actor block (disjoint components),
    then w maps the channels:  y = w^T mix(x) + b, followed by a ReLU when
    `relu` is set (the backward then takes y as ``relu_out``).  The mix stays one 2-D
    GEMM over every sample's rows: split into row blocks, float64 GEMMs
    change bytes.  The cache's last slot, the actor count V // J, keeps the
    five-slot layout that `benchmarks/tracer.py` unpacks; the backward does
    not read it.
    """
    n, c, t, v = x.shape
    j = a_hat.shape[0]
    if v % j:
        raise ValueError(f"graph_conv needs V a multiple of the {j} joints, got x {x.shape}")
    mixed = (x.reshape(-1, j) @ a_hat.T).reshape(n, c, t * v)
    y = np.empty((n, w.shape[1], t * v), dtype=np.result_type(mixed, w, b))

    def block(lo, hi):
        np.matmul(w.T, mixed[lo:hi], out=y[lo:hi])
        y[lo:hi] += b[:, None]
        if relu:
            np.maximum(y[lo:hi], 0.0, out=y[lo:hi])

    _per_sample(block, n)
    return y.reshape(n, -1, t, v), (mixed, x.shape, a_hat, w, v // j)


def graph_conv_backward(dout, cache, relu_out=None):
    """Gradients (dx, dw, db) of `graph_conv_forward`; pass its output as
    `relu_out` when it ran with ``relu=True``."""
    mixed, x_shape, a_hat, w, _ = cache
    n = x_shape[0]
    d = dout.reshape(*dout.shape[:2], -1)
    d, mask = _relu_mask(d, relu_out)
    dws = np.empty((n, *w.shape), dtype=np.result_type(mixed, d))     # per sample
    dmixed = np.empty(mixed.shape, dtype=np.result_type(w, d))

    def block(lo, hi):
        mask(lo, hi)
        np.matmul(mixed[lo:hi], d[lo:hi].transpose(0, 2, 1), out=dws[lo:hi])
        np.matmul(w, d[lo:hi], out=dmixed[lo:hi])

    _per_sample(block, n)
    db = d.sum(axis=(0, 2))
    # mixed = x a_hat^T over the joint axis  =>  dx = dmixed a_hat
    dx = (dmixed.reshape(-1, a_hat.shape[0]) @ a_hat).reshape(x_shape)
    return dx, dws.sum(axis=0), db
