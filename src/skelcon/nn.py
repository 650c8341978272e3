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
``dout`` before its GEMMs read them.  The temporal conv runs one GEMM per
sample over that sample's im2col, in a column buffer each block reuses.
`transpose_copy` copies a transpose that keeps the sample axis first in the
same blocks.  Every sample's GEMMs are the same calls whatever the block,
and the sums over samples and graph conv's joint-mixing GEMM run once in
the calling thread, so the bytes never depend on the worker count.  No
GEMM reads a strided time window, and on the OpenBLAS build tested the
bytes do not depend on the BLAS thread count either
(`test_inter3_run_writes_the_same_bytes_at_one_two_and_four_blas_threads`).
"""

from __future__ import annotations

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


def _block_count(n):
    """The number of sample blocks `_per_sample` splits n samples into;
    makes the pool on first use."""
    global _pool
    if _pool is None:
        # imported here: concurrent.futures loads logging, 0.8 MB of RSS in
        # a process that never convolves
        from concurrent.futures import ThreadPoolExecutor
        workers = conv_workers()
        _pool = (workers, ThreadPoolExecutor(workers - 1, thread_name_prefix="skelcon-conv")
                  if workers > 1 else None)
    return max(1, min(_pool[0], n))


def _per_sample(block, n):
    """Run `block(k, lo, hi)` over the `_block_count(n)` contiguous sample
    blocks k = 0, 1, ...: the first in the calling thread, the rest on the
    pool.

    A block writes only into arrays the calling thread allocated, through
    ``out=`` and in-place ops, and calls nothing but numpy; its index k
    picks the block's own scratch buffers.  glibc gives each thread its own
    heap arena, so array temporaries made in a worker would raise the peak
    RSS; and a tracer's span stack stays on the calling thread.
    """
    blocks = _block_count(n)
    if blocks == 1:
        block(0, 0, n)
        return
    edges = [n * k // blocks for k in range(blocks + 1)]
    futures = [_pool[1].submit(block, k, edges[k], edges[k + 1]) for k in range(1, blocks)]
    try:
        block(0, 0, edges[1])
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

    def block(_, lo, hi):
        out[lo:hi] = view[lo:hi]

    _per_sample(block, x.shape[0])
    return out


def sigmoid(x, out=None):
    # tanh form: no masked branches, and it saturates to exactly 0 and 1;
    # `out` may be `x`, and each step has the bytes of 0.5 * (1 + tanh(0.5 x))
    return _sigmoid_of_half(np.multiply(x, 0.5, out=out))


def _sigmoid_of_half(y):
    """sigmoid(2 y), in place on `y`: the steps of `sigmoid` after its halving."""
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
# temporal convolution (stride 1) as one GEMM per sample over its im2col
# ---------------------------------------------------------------------------
#
# The encoders convolve (N, C, T, V) along T only, with (kt x 1) and 1x1
# kernels.  Tap i multiplies w[:, :, i, 0] into the input shifted by
# i - pad[0]: output row r reads input row r + i - pad[0], or zero when that
# row lies outside [0, T).  A sample's column matrix stacks its kt shifted
# windows on the GEMM's inner axis, (C, kt) rows by (t_out, V) columns, so
# the conv is one (F, C kt) @ (C kt, t_out V) GEMM per sample (im2col,
# Chellapilla et al., 2006).  Each sample block reuses one column buffer of
# one sample, which stays in cache; its zero margins are written once.  The
# input gradient is the same construction over dout with the flipped kernel
# and pad kt - 1 - pad[0].  A 1x1 unpadded kernel needs no columns: its
# input is its own column matrix, and a block runs one batched matmul.

def _taps(t, kt, pad, t_out):
    """Yield (i, output rows, input rows) for every tap that reaches the
    output."""
    for i in range(kt):
        lo, hi = max(0, pad - i), min(t_out, t + pad - i)
        if lo < hi:
            yield i, slice(lo, hi), slice(lo + i - pad, hi + i - pad)


def _im2col(cols, src, pad):
    """Copy the shifted windows of one sample's (C, T, V) rows `src` into its
    zero-margined (C, kt, t_out, V) column buffer `cols`; return that as the
    (C kt, t_out V) GEMM operand."""
    c, kt, t_out, v = cols.shape
    for i, o, rows in _taps(src.shape[1], kt, pad, t_out):
        cols[:, i, o] = src[:, rows]
    return cols.reshape(c * kt, t_out * v)


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
    out = np.empty((n, f, t_out * v), dtype=np.result_type(x, w, b))
    wk = w.reshape(f, c * kt)
    pointwise = kt == 1 and pad[0] == 0
    if not pointwise:
        cols = np.zeros((_block_count(n), c, kt, t_out, v), dtype=x.dtype)

    def block(k, lo, hi):
        if pointwise:
            np.matmul(wk, x[lo:hi].reshape(hi - lo, c, -1), out=out[lo:hi])
        else:
            for s in range(lo, hi):
                np.matmul(wk, _im2col(cols[k], x[s], pad[0]), out=out[s])
        out[lo:hi] += b[:, None]
        if relu:
            np.maximum(out[lo:hi], 0.0, out=out[lo:hi])

    _per_sample(block, n)
    return out.reshape(n, f, t_out, v), (x, x.shape, w.shape, pad, w)


def conv2d_backward(dout, cache, relu_out=None):
    """Gradients (dx, dw, db) of `conv2d_forward`; pass its output as
    `relu_out` when it ran with ``relu=True``."""
    x, x_shape, w_shape, pad, w = cache
    n, c, t, v = x_shape
    f, _, kt, _ = w_shape
    dout, mask = _relu_mask(dout, relu_out)
    dx = np.empty((n, c, t * v), dtype=dout.dtype)
    # each sample's dw, transposed: cols(x_s) @ dout_s^T runs faster than
    # dout_s @ cols(x_s)^T; summed over samples below
    dws = np.empty((n, c * kt, f), dtype=np.result_type(dout, x))
    w_flip = w[:, :, ::-1, 0].transpose(1, 0, 2).reshape(c, f * kt)
    pointwise = kt == 1 and pad[0] == 0
    if not pointwise:
        blocks = _block_count(n)
        x_cols = np.zeros((blocks, c, kt, dout.shape[2], v), dtype=x.dtype)
        d_cols = np.zeros((blocks, f, kt, t, v), dtype=dout.dtype)

    def block(k, lo, hi):
        mask(lo, hi)
        if pointwise:
            ds = dout[lo:hi].reshape(hi - lo, f, -1)
            np.matmul(x[lo:hi].reshape(hi - lo, c, -1), ds.transpose(0, 2, 1), out=dws[lo:hi])
            np.matmul(w_flip, ds, out=dx[lo:hi])
            return
        for s in range(lo, hi):
            ds = dout[s].reshape(f, -1)
            np.matmul(_im2col(x_cols[k], x[s], pad[0]), ds.T, out=dws[s])
            np.matmul(w_flip, _im2col(d_cols[k], dout[s], kt - 1 - pad[0]), out=dx[s])

    _per_sample(block, n)
    db = dout.sum(axis=(0, 2, 3))
    return dx.reshape(x_shape), dws.sum(axis=0).T.reshape(w_shape), db


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
# step's slabs (k, N, .) are contiguous and both directions share one batched
# matmul.  The [z | r] and n pre-activations sit in two such arrays, and the
# z and r columns of w, u and b are halved first: sigmoid(a) reads a / 2, and
# a power-of-two scale is exact, so every byte is that of the unscaled form.

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
    half = np.tile(np.repeat([0.5, 0.5, 1.0], hdim), k)

    def halved(a):
        return a * half.astype(a.dtype)

    uk = halved(u).reshape(hdim, k, g).transpose(1, 0, 2)           # (k, H, 3H)
    u_zr, u_n = np.ascontiguousarray(uk[..., :2 * hdim]), np.ascontiguousarray(uk[..., 2 * hdim:])
    pre = (x @ halved(w) + halved(b)).reshape(n, t, k, g)
    # step-major pre-activations, overwritten in place by sigmoid [z | r] and tanh n
    zrs, cands = _steps(pre[..., :2 * hdim], flips), _steps(pre[..., 2 * hdim:], flips)
    del pre
    hs = np.zeros((t + 1, k, n, hdim), dtype=x.dtype)   # hs[0] is the initial state
    qs = np.empty((t, k, n, hdim), dtype=x.dtype)       # h_{t-1} Un per step
    hu = np.empty((k, n, 2 * hdim), dtype=x.dtype)
    tmp = np.empty((k, n, hdim), dtype=x.dtype)
    for step in range(t):
        h, zr, cand, q, h_new = hs[step], zrs[step], cands[step], qs[step], hs[step + 1]
        zr += np.matmul(h, u_zr, out=hu)
        _sigmoid_of_half(zr)
        z, r = zr[..., :hdim], zr[..., hdim:]
        np.matmul(h, u_n, out=q)
        cand += np.multiply(r, q, out=tmp)
        np.tanh(cand, out=cand)
        np.multiply(z, h, out=h_new)
        np.subtract(1.0, z, out=tmp)
        h_new += np.multiply(tmp, cand, out=tmp)
    cache = (x, w, u, zrs, cands, qs, hs, flips)
    outputs = _frames(hs[1:], flips).reshape(n, t, k * hdim)
    return outputs, hs[t].transpose(1, 0, 2).reshape(n, k * hdim).copy(), cache


def gru_backward(doutputs, dh_final, cache):
    """Backprop through time.

    doutputs: (N, T, H*k) gradient on every per-frame output (frame order as
    returned by gru_forward), or None.  dh_final: extra gradient on the
    final state (N, H*k), or None.  Returns (dx, dw, du, db) with dx in
    original frame order and dw, du, db packed like w, u, b.
    """
    x, w, u, zrs, nn_, qs, hs, flips = cache
    n, t, d = x.shape
    hdim, width = u.shape
    k, g = len(flips), 3 * hdim
    # Every gate gradient is dh_t times a coefficient the forward cache fixes:
    # d(x w + b) = dh_t * [cz | cr | cn] and d(h_{t-1} u) = dh_t * [cz | cr | cn r],
    # with dh_t tiled over the three gates.  Only dh is carried through time;
    # coef_h holds [cz | cr | cn r] and du is summed as the steps go.
    z, r = zrs[..., :hdim], zrs[..., hdim:]
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

    def block(_, lo, hi):
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

    def block(_, lo, hi):
        mask(lo, hi)
        np.matmul(mixed[lo:hi], d[lo:hi].transpose(0, 2, 1), out=dws[lo:hi])
        np.matmul(w, d[lo:hi], out=dmixed[lo:hi])

    _per_sample(block, n)
    db = d.sum(axis=(0, 2))
    # mixed = x a_hat^T over the joint axis  =>  dx = dmixed a_hat
    dx = (dmixed.reshape(-1, a_hat.shape[0]) @ a_hat).reshape(x_shape)
    return dx, dws.sum(axis=0), db
