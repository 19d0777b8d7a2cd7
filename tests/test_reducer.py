"""Conv/pool compressor: its convolutions and 2x2 pool against explicit
loops and finite differences, the forward's bytes against its GEMMs'
summation order, both passes' bytes against conv1 at full resolution,
batch invariance across chunks, the halving rule, pooling dominance,
gradients and the memory of both passes."""

import math
import re
from dataclasses import fields
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from traced_memory import traced_peak_mib

from eegfpn import gradcheck, reducer
from eegfpn.errors import ShapeError
from eegfpn.model import init_params


def relu(v):
    return np.maximum(v, 0.0)


def init_nsdru(hidden: int, seed: int) -> reducer.NsdruParams:
    return init_params(reducer.nsdru_shapes(hidden), seed)


def zeroed(hidden=8):
    p = init_nsdru(hidden, seed=0)
    p.conv1_w[...] = 0.0
    p.conv1_b[...] = 0.0
    p.conv2_w[...] = 0.0
    p.conv2_b[...] = 0.0
    return p


def delta_passthrough():
    """conv1 = identity (center tap), conv2 sums hidden channels."""
    p = zeroed(hidden=2)
    p.conv1_w[:, 0, 1, 1] = 1.0
    p.conv2_w[0, :, 1, 1] = 0.5
    return p


def identity():
    """conv1 = identity (center tap), so its pool is the pool of the input."""
    p = zeroed(hidden=1)
    p.conv1_w[0, 0, 1, 1] = 1.0
    return p


def window_cells(a):
    """The four cells of every 2x2 pool window of (n, c, h, w) `a`,
    row-major, as strided views."""
    h2, w2 = a.shape[2] // 2, a.shape[3] // 2
    return [a[:, :, i:2 * h2:2, j:2 * w2:2] for i in (0, 1) for j in (0, 1)]


def pool(x):
    """The pool of (m, 1, h, w) maps through an identity conv1, laid out
    as the backward routes it: the (4, m, 1, h//2, w//2) window cells after
    conv1's ReLU and the (m, 1, h//2, w//2) pooled map."""
    cells, pooled = reducer._conv1_pool(x, identity())
    return relu(cells).swapaxes(1, 2), pooled.swapaxes(0, 1)


def conv3x3_loop(x, k, b):
    """Zero-padded 3x3 cross-correlation of (n, c_in, h, w) `x` with
    (c_out, c_in, 3, 3) `k`, plus bias, one output cell at a time."""
    n, _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.empty((n, len(k), h, w))
    for i, o, y, z in np.ndindex(out.shape):
        out[i, o, y, z] = np.sum(xp[i, :, y:y + 3, z:z + 3] * k[o]) + b[o]
    return out


def fma(a: float, b: float, acc: float) -> float:
    """a * b + acc rounded once, as a fused multiply-add does."""
    return float(Fraction(a) * Fraction(b) + Fraction(acc))


def fma_sum(pairs) -> float:
    """The GEMM order: from zero, fuse each product into the sum in turn."""
    acc = 0.0
    for a, b in pairs:
        acc = fma(a, b, acc)
    return acc


def blas_sums_in_order() -> bool:
    """Whether this BLAS forms each GEMM entry as `fma_sum` of its
    products in index order (OpenBLAS's x86-64 FMA kernels do)."""
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 9)), rng.normal(size=(9, 40))
    got = a @ b
    return all(got[i, j] == fma_sum(zip(a[i], b[:, j])) for i, j in np.ndindex(got.shape))


def pooled_of(x, p):
    """The (n, c, ch//2, t//2) pool of conv1's output, as the backward
    rebuilds it: `_conv1_pool` over the forward's chunks."""
    return np.concatenate([reducer._conv1_pool(x[s], p)[1]
                           for s in reducer._chunks(x.shape)], axis=1).transpose(1, 0, 2, 3)


def forward_in_gemm_order(x, p):
    """(pooled, act2) of nsdru_forward, one cell at a time in its GEMMs'
    order. conv1: each channel's nine tap products, row-major, fused from
    zero, then the bias. conv2: the bias, then each tap row-major adds
    its channel products fused in channel order from zero."""
    n, _, h, w = x.shape
    c = len(p.conv1_w)
    h2, w2 = h // 2, w // 2
    xp = np.pad(x[:, 0], ((0, 0), (1, 1), (1, 1))).tolist()
    w1, b1 = p.conv1_w[:, 0].tolist(), p.conv1_b.tolist()
    w2l, b2 = p.conv2_w[0].tolist(), float(p.conv2_b[0])
    act1 = np.empty((n, c, h, w))
    for i, o, y, z in np.ndindex(act1.shape):
        act1[i, o, y, z] = fma_sum(
            (xp[i][y + di][z + dj], w1[o][di][dj]) for di in range(3) for dj in range(3)
        ) + b1[o]
    act1 = np.maximum(act1, 0.0)
    pooled = np.empty((n, c, h2, w2))
    for i, o, y, z in np.ndindex(pooled.shape):
        pooled[i, o, y, z] = max(act1[i, o, 2 * y + di, 2 * z + dj] for di in (0, 1) for dj in (0, 1))
    pp = np.pad(pooled, ((0, 0), (0, 0), (1, 1), (1, 1))).tolist()
    act2 = np.empty((n, 1, h2, w2))
    for i, _, y, z in np.ndindex(act2.shape):
        acc = b2
        for di in range(3):
            for dj in range(3):
                acc += fma_sum((pp[i][o][y + di][z + dj], w2l[o][di][dj]) for o in range(c))
        act2[i, 0, y, z] = acc
    return pooled, np.maximum(act2, 0.0)


def full_resolution_passes(x, p, up):
    """(act2, d_x, [d_conv1_w, d_conv1_b, d_conv2_w, d_conv2_b]) by the
    full-resolution rule, over the forward's chunks: conv1 as one GEMM over
    every cell, then its bias and ReLU; the pool as the np.maximum of four
    strided views of that map; conv2 as one GEMM and nine shifted adds; and
    back, each window's gradient routed by masks to its first max."""
    n, _, h, w = x.shape
    c, (h2, w2) = len(p.conv1_w), reducer.pooled_grid(h, w)
    chunks, maps = reducer._chunks(x.shape), []
    act2 = np.empty((n, 1, h2, w2))
    for s in chunks:
        xp = np.pad(x[s, 0], ((0, 0), (1, 1), (1, 1)))
        taps = np.stack([xp[:, i:i + h, j:j + w] for i, j in np.ndindex(3, 3)])
        act1 = relu(p.conv1_w.reshape(c, 9) @ taps.reshape(9, -1) + p.conv1_b[:, None])
        act1 = act1.reshape(c, -1, h, w).transpose(1, 0, 2, 3)
        a, b, cc, d = window_cells(act1)
        pooled = np.maximum(np.maximum(a, b), np.maximum(cc, d))
        maps.append((act1, pooled))
        pp = np.pad(pooled.transpose(1, 0, 2, 3), ((0, 0), (0, 0), (1, 1), (1, 1)))
        tap_sums = (p.conv2_w[0].reshape(c, 9).T @ pp.reshape(c, -1)).reshape((9,) + pp.shape[1:])
        out = act2[s, 0]
        out[...] = p.conv2_b[0]
        for tap, (i, j) in enumerate(np.ndindex(3, 3)):
            out += tap_sums[tap, :, i:i + h2, j:j + w2]
    act2 = relu(act2)
    d_act2 = up * (act2 > 0.0)
    d_x, parts = np.empty(x.shape), []
    for s, (act1, pooled) in zip(chunks, maps):
        d_pooled, d_conv2_w, d_conv2_b = reducer._conv3x3_backward(d_act2[s], pooled, p.conv2_w)
        d_pooled = d_pooled * (pooled > 0.0)
        d_act1 = np.zeros(act1.shape)
        unplaced = np.ones(pooled.shape, dtype=bool)
        for cell, d_cell in zip(window_cells(act1), window_cells(d_act1)):
            hit = cell == pooled
            np.copyto(d_cell, d_pooled, where=unplaced & hit)
            unplaced &= ~hit
        d_x[s], d_conv1_w, d_conv1_b = reducer._conv3x3_backward(d_act1, x[s], p.conv1_w)
        parts.append((d_conv1_w, d_conv1_b, d_conv2_w, d_conv2_b))
    return act2, d_x, [reduce(np.add, g) for g in zip(*parts)]


class TestForward:
    def test_halving_large(self):
        out = reducer.nsdru_forward(np.zeros((1, 1, 128, 400)), zeroed()).act2
        assert out.shape == (1, 1, 64, 200)

    def test_halving_floors_odd(self):
        out = reducer.nsdru_forward(np.zeros((1, 1, 5, 7)), zeroed()).act2
        assert out.shape == (1, 1, 2, 3)

    def test_halving_property(self):
        rng = np.random.default_rng(7)
        p = init_nsdru(3, seed=7)
        for _ in range(25):
            ch = int(rng.integers(2, 65))
            t = int(rng.integers(2, 65))
            x = rng.normal(size=(2, 1, ch, t))
            assert reducer.nsdru_forward(x, p).act2.shape == (2, 1, ch // 2, t // 2)

    def test_zero_params_zero_output(self):
        x = np.random.default_rng(1).normal(size=(2, 1, 6, 8))
        np.testing.assert_array_equal(reducer.nsdru_forward(x, zeroed()).act2, 0.0)

    def test_relu_outputs_nonnegative(self):
        # Both ReLUs bite (conv1 has sums <= 0 at window cells, and some
        # outputs are exactly zero), and the pool of the first ReLU's
        # output is nonnegative too.
        p = init_nsdru(4, seed=3)
        trace = reducer.nsdru_forward(np.random.default_rng(3).normal(size=(2, 1, 8, 10)), p)
        cells, pooled = reducer._conv1_pool(trace.x, p)
        for arr in (pooled, pooled_of(trace.x, p), trace.act2):
            assert np.all(arr >= 0.0)
        assert np.any(cells <= 0.0) and np.any(trace.act2 == 0.0)

    @pytest.mark.parametrize("grid", [(64, 256), (128, 300)], ids=["two-per-chunk", "one-per-chunk"])
    def test_batch_invariant_across_chunks(self, grid):
        # A batch the forward splits into several chunks gives bitwise the
        # output of one call per sample, and so does the pool the backward
        # rebuilds over those chunks. The backward's rows of d_x are each
        # sample's own, bitwise; its parameter gradients are the sum of the
        # samples' gradients, up to the order of that sum.
        rng = np.random.default_rng(11)
        x = rng.uniform(size=(5, 1) + grid)
        assert len(reducer._chunks(x.shape)) > 1
        p = init_nsdru(8, seed=11)
        p.conv2_w[...] = np.abs(p.conv2_w)
        trace, pooled = reducer.nsdru_forward(x, p), pooled_of(x, p)
        up = rng.normal(size=trace.act2.shape)
        grads, d_x = reducer.nsdru_backward(trace, up, p)
        summed = zeroed()
        for i in range(len(x)):
            alone = reducer.nsdru_forward(x[i:i + 1], p)
            assert trace.act2[i].tobytes() == alone.act2[0].tobytes()
            assert pooled[i].tobytes() == pooled_of(x[i:i + 1], p)[0].tobytes()
            g, d_alone = reducer.nsdru_backward(alone, up[i:i + 1], p)
            assert d_x[i].tobytes() == d_alone[0].tobytes()
            for f in fields(g):
                getattr(summed, f.name)[...] += getattr(g, f.name)
        assert np.any(grads.conv1_w != 0.0)
        for f in fields(grads):
            np.testing.assert_allclose(getattr(grads, f.name), getattr(summed, f.name),
                                       rtol=1e-12, err_msg=f.name)

    def test_pool_dominance_under_scaling(self):
        # With an identity first conv, the pooled grid is the window max;
        # doubling the unique max doubles that pooled value.
        p = delta_passthrough()
        x = np.random.default_rng(5).uniform(0.1, 1.0, size=(1, 1, 4, 4))
        window = x[0, 0, 0:2, 0:2]
        i, j = np.unravel_index(np.argmax(window), window.shape)
        x2 = x.copy()
        x2[0, 0, i, j] *= 2.0
        assert pooled_of(x2, p)[0, 0, 0, 0] == pytest.approx(2.0 * pooled_of(x, p)[0, 0, 0, 0])

    def test_too_small_grid_rejected(self):
        with pytest.raises(ShapeError):
            reducer.nsdru_forward(np.zeros((1, 1, 1, 8)), zeroed())

    def test_wrong_rank_rejected(self):
        with pytest.raises(ShapeError):
            reducer.nsdru_forward(np.zeros((1, 2, 4, 4)), zeroed())

    @pytest.mark.parametrize("field,shape", [
        pytest.param("conv1_w", (3, 2, 3, 3), id="conv1_w-channels"),
        pytest.param("conv1_w", (3, 1, 5, 5), id="conv1_w-5x5"),
        pytest.param("conv1_b", (4,), id="conv1_b-width"),
        pytest.param("conv2_w", (1, 2, 3, 3), id="conv2_w-channels"),
        pytest.param("conv2_w", (1, 3, 3), id="conv2_w-rank"),
        pytest.param("conv2_b", (3,), id="conv2_b-width"),
    ])
    def test_wrong_param_shape_rejected(self, field, shape):
        # Kernel channels that do not match their input, a kernel of
        # another size or rank, and a bias that does not match its
        # kernel's output channels.
        p = zeroed(hidden=3)
        setattr(p, field, np.zeros(shape))
        with pytest.raises(ShapeError, match=field):
            reducer.nsdru_forward(np.zeros((1, 1, 4, 4)), p)


class TestBackward:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_check(self, seed):
        assert gradcheck.check_nsdru(seed) < 1e-4

    def test_zero_upstream_zero_grads(self):
        p = init_nsdru(4, seed=2)
        trace = reducer.nsdru_forward(np.random.default_rng(2).normal(size=(1, 1, 4, 6)), p)
        g, d_x = reducer.nsdru_backward(trace, np.zeros_like(trace.act2), p)
        np.testing.assert_array_equal(g.conv1_w, 0.0)
        np.testing.assert_array_equal(g.conv2_w, 0.0)
        np.testing.assert_array_equal(d_x, 0.0)

    def test_unique_max_gets_all_window_gradient(self):
        # Identity conv path: the pool's input gradient must land on the
        # single argmax cell of each window.
        p = delta_passthrough()
        x = np.zeros((1, 1, 2, 2))
        x[0, 0, 1, 0] = 5.0  # unique max of the only window
        trace = reducer.nsdru_forward(x, p)
        upstream = np.ones_like(trace.act2)
        _, d_x = reducer.nsdru_backward(trace, upstream, p)
        mask = d_x[0, 0] != 0.0
        assert mask.sum() == 1
        assert mask[1, 0]

    @pytest.mark.parametrize("shape", [(1,), (2, 1, 2, 1)], ids=["rank-1", "narrow"])
    def test_wrong_upstream_shape_rejected(self, shape):
        # Each of these would broadcast against the (2, 1, 2, 3) output.
        p = init_nsdru(4, seed=4)
        trace = reducer.nsdru_forward(np.random.default_rng(4).normal(size=(2, 1, 4, 6)), p)
        assert trace.act2.shape == (2, 1, 2, 3)
        with pytest.raises(ShapeError, match=re.escape(f"{shape}") + ".*" + re.escape("(2, 1, 2, 3)")):
            reducer.nsdru_backward(trace, np.ones(shape), p)

    def test_pool_routes_each_window_to_one_recomputed_cell(self):
        # The backward recomputes conv1 over the forward's chunks; it must
        # find each window's max again, so every window's gradient lands on
        # exactly one cell and none is lost. Three chunks of two 64 x 256
        # maps, and ties: a zero input row and a negative bias leave
        # windows whose cells are all exactly zero.
        x = np.random.default_rng(13).uniform(size=(5, 1, 64, 256))
        x[:, :, 8:24] = 0.0
        p = init_nsdru(8, seed=13)
        p.conv1_b[...] = -0.05
        chunks = reducer._chunks(x.shape)
        assert len(chunks) == 3
        cells, pooled = (np.concatenate(parts, axis=-3) for parts in
                         zip(*(reducer._conv1_pool(x[s], p) for s in chunks)))
        cells, pooled = relu(cells).swapaxes(1, 2), pooled.swapaxes(0, 1)
        assert np.any(pooled == 0.0)
        up = np.random.default_rng(14).uniform(1.0, 2.0, size=pooled.shape)
        routed = reducer._maxpool_backward(up, cells, pooled, (5, 8, 64, 256))
        hits = sum(cell != 0.0 for cell in window_cells(routed))
        np.testing.assert_array_equal(hits, 1)
        assert math.fsum(routed.ravel()) == math.fsum(up.ravel())

    def test_param_count(self):
        p = init_nsdru(8, seed=0)
        tally = p.conv1_w.size + p.conv1_b.size + p.conv2_w.size + p.conv2_b.size
        assert tally == 153


class TestConv3x3:
    def test_all_ones_kernel_counts_neighbourhood(self):
        p = zeroed(hidden=1)
        p.conv1_w[...] = 1.0
        cells, pooled = reducer._conv1_pool(np.ones((1, 1, 4, 4)), p)
        # Zero padding: interior cells see 9 ones, edges 6, corners 4.
        want = np.array([[4.0, 6.0, 6.0, 4.0],
                         [6.0, 9.0, 9.0, 6.0],
                         [6.0, 9.0, 9.0, 6.0],
                         [4.0, 6.0, 6.0, 4.0]])
        for cell, want_cell in zip(cells, window_cells(want[None, None])):
            np.testing.assert_array_equal(cell, want_cell)
        np.testing.assert_array_equal(pooled, np.full((1, 1, 2, 2), 9.0))

    def test_zero_kernel_returns_bias_map(self):
        # conv1's cells are channel-first and hold the bias; the pool is
        # ReLU'd, so a negative bias leaves a zero map.
        p = zeroed(hidden=3)
        p.conv1_b[...] = [1.0, -2.0, 0.5]
        cells, pooled = reducer._conv1_pool(np.arange(16.0).reshape(1, 1, 4, 4), p)
        assert cells.shape == (4, 3, 1, 2, 2) and pooled.shape == (3, 1, 2, 2)
        for c, (b, v) in enumerate([(1.0, 1.0), (-2.0, 0.0), (0.5, 0.5)]):
            np.testing.assert_array_equal(cells[:, c], np.full((4, 1, 2, 2), b))
            np.testing.assert_array_equal(pooled[c, 0], np.full((2, 2), v))

    def test_same_padding_preserves_spatial_shape(self):
        # The window cells are the same-padded conv's cells; the odd
        # trailing row and column belong to no window.
        p = init_nsdru(4, seed=3)
        x = np.random.default_rng(3).normal(size=(2, 1, 9, 11))
        cells, pooled = reducer._conv1_pool(x, p)
        assert cells.shape == (4, 4, 2, 4, 5) and pooled.shape == (4, 2, 4, 5)
        full = conv3x3_loop(x, p.conv1_w, p.conv1_b)
        assert full.shape == (2, 4, 9, 11)
        for cell, want in zip(cells, window_cells(full)):
            np.testing.assert_allclose(cell.swapaxes(0, 1), want, atol=1e-12)

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 1, 6, 7))
        p = init_nsdru(4, seed=17)
        p.conv1_b[...] = rng.normal(size=4)
        p.conv2_w[...] = np.abs(p.conv2_w)
        p.conv2_b[...] = 0.1
        act1 = relu(conv3x3_loop(x, p.conv1_w, p.conv1_b))
        pooled = reduce(np.maximum, window_cells(act1))
        act2 = relu(conv3x3_loop(pooled, p.conv2_w, p.conv2_b))
        trace = reducer.nsdru_forward(x, p)
        cells, _ = reducer._conv1_pool(x, p)
        for cell, want in zip(relu(cells), window_cells(act1)):
            np.testing.assert_allclose(cell.swapaxes(0, 1), want, atol=1e-12)
        np.testing.assert_allclose(pooled_of(x, p), pooled, atol=1e-12)
        np.testing.assert_allclose(trace.act2, act2, atol=1e-12)

    @pytest.mark.parametrize("hidden", [2, 3, 4])
    def test_forward_bytes_follow_the_gemm_order(self, hidden):
        # Trained numbers and checkpoint hashes depend on the rounding, so
        # the forward's bytes must equal its GEMMs' order, written out in
        # `forward_in_gemm_order`. One hidden channel is left out: numpy
        # then runs conv1 as a matrix-vector product, whose order is the
        # BLAS kernel's own.
        if not blas_sums_in_order():
            pytest.skip("this BLAS does not sum a GEMM's products in index order "
                        "with fused multiply-adds")
        rng = np.random.default_rng(10 * hidden + 3)
        x = rng.normal(size=(2, 1, 7, 9))
        x[:, :, :, ::3] = 0.0
        x[:, :, 2] = 0.0
        p = init_nsdru(hidden, seed=hidden)
        p.conv1_b[...] = rng.normal(size=hidden)
        p.conv2_w[...] = rng.normal(size=p.conv2_w.shape)
        p.conv2_b[...] = 0.5
        pooled, act2 = forward_in_gemm_order(x, p)
        trace = reducer.nsdru_forward(x, p)
        assert np.any(act2 > 0.0) and np.any(pooled == 0.0)
        assert pooled_of(x, p).tobytes() == pooled.tobytes()
        assert trace.act2.tobytes() == act2.tobytes()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 2, 5, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        up = rng.normal(size=(2, 3, 5, 6))

        def loss(xv, kv, bv):
            return float(np.sum(conv3x3_loop(xv, kv, bv) * up))

        d_x, d_k, d_b = reducer._conv3x3_backward(up, x, k)
        eps = 1e-6
        for arr, grad in ((x, d_x), (k, d_k), (b, d_b)):
            flat = arr.reshape(-1)
            idxs = rng.choice(flat.size, size=min(12, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss(x, k, b)
                flat[i] = orig - eps
                lo = loss(x, k, b)
                flat[i] = orig
                assert grad.reshape(-1)[i] == pytest.approx((hi - lo) / (2 * eps), abs=1e-5)


class TestMaxPool:
    # Through an identity conv1, so cells and pool are the input's own.

    def test_two_by_two(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        np.testing.assert_array_equal(pool(x)[1], [[[[4.0]]]])

    def test_odd_dims_floor(self):
        x = np.arange(35.0).reshape(1, 1, 5, 7)
        out = pool(x)[1]
        assert out.shape == (1, 1, 2, 3)
        np.testing.assert_array_equal(out[0, 0], [[8.0, 10.0, 12.0], [22.0, 24.0, 26.0]])

    def test_shape_property(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            h = int(rng.integers(2, 64))
            w = int(rng.integers(2, 64))
            x = rng.normal(size=(2, 1, h, w))
            cells, out = pool(x)
            assert cells.shape == (4, 2, 1, h // 2, w // 2) and out.shape == (2, 1, h // 2, w // 2)

    def test_ties_route_to_first_row_major(self):
        x = np.full((1, 1, 2, 2), 7.0)
        cells, out = pool(x)
        np.testing.assert_array_equal(out, [[[[7.0]]]])
        grad = reducer._maxpool_backward(np.ones((1, 1, 1, 1)), cells, out, x.shape)
        np.testing.assert_array_equal(grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_backward_scatters_to_max_position(self):
        x = np.array([[[[1.0, 9.0, 0.0, 0.0], [2.0, 3.0, 0.0, 8.0]]]])
        cells, out = pool(x)
        np.testing.assert_array_equal(out, [[[[9.0, 8.0]]]])
        grad = reducer._maxpool_backward(np.array([[[[5.0, -2.0]]]]), cells, out, x.shape)
        np.testing.assert_array_equal(grad, [[[[0.0, 5.0, 0.0, 0.0], [0.0, 0.0, 0.0, -2.0]]]])

    def test_cropped_tail_receives_zero_grad(self):
        x = np.arange(15.0).reshape(1, 1, 3, 5)
        cells, out = pool(x)
        grad = reducer._maxpool_backward(np.ones_like(out), cells, out, x.shape)
        assert grad.shape == x.shape
        np.testing.assert_array_equal(grad[0, 0, 2, :], np.zeros(5))
        np.testing.assert_array_equal(grad[0, 0, :, 4], np.zeros(3))

    def test_matches_explicit_loop_on_tie_heavy_relu_output(self):
        # Twelve maps, odd H and W, exact-zero ReLU ties and rounded ties.
        rng = np.random.default_rng(17)
        x = relu(np.round(rng.normal(size=(12, 1, 9, 13)), 1))
        x[:, :, ::4, :] = 0.0
        up = rng.normal(size=(12, 1, 4, 6))
        ref_out = np.empty((12, 1, 4, 6))
        ref_grad = np.zeros_like(x)
        for n, c, i, j in np.ndindex(ref_out.shape):
            cells = [(2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]
            best = max(cells, key=lambda cell: x[n, c][cell])  # first of equal maxima
            ref_out[n, c, i, j] = x[n, c][best]
            ref_grad[n, c][best] = up[n, c, i, j]
        cells, out = pool(x)
        assert np.sum(x == 0.0) > x.size // 2
        assert out.tobytes() == ref_out.tobytes()
        assert reducer._maxpool_backward(up, cells, out, x.shape).tobytes() == ref_grad.tobytes()


class TestFullResolution:
    @pytest.mark.parametrize("n,h,w,c,ties", [
        pytest.param(16, 8, 256, 8, False, id="train-batch"),
        pytest.param(5, 128, 256, 8, False, id="several-chunks"),
        pytest.param(3, 129, 257, 8, False, id="odd-grid-several-chunks"),
        pytest.param(5, 64, 256, 8, True, id="zero-rows-negative-bias"),
        pytest.param(3, 7, 13, 1, True, id="one-channel"),
        pytest.param(16, 8, 256, 5, False, id="five-channels"),
    ])
    def test_both_passes_match_conv1_at_full_resolution(self, n, h, w, c, ties):
        # conv1 only at the pool windows' cells, pooled from its sums, gives
        # the bytes of conv1 over the whole grid followed by the pool:
        # rounded q + b never decreases as q grows, nor does ReLU, and each
        # entry of the windows' GEMM is the full GEMM's. That last holds
        # because the windows' GEMM is as wide as the full one: at one and
        # five channels OpenBLAS sums a GEMM per window cell, a quarter as
        # wide, in another order under the default core or Haswell. Zero
        # input rows and a negative conv1 bias leave windows of four zero
        # cells.
        rng = np.random.default_rng(100 * c + h)
        x = rng.uniform(size=(n, 1, h, w))
        p = init_nsdru(c, seed=h)
        p.conv1_b[...] = -0.05 if ties else rng.normal(scale=0.1, size=c)
        p.conv2_w[...] = np.abs(p.conv2_w)
        if ties:
            x[:, :, 1:4] = 0.0
            assert np.any(pooled_of(x, p) == 0.0)
        trace = reducer.nsdru_forward(x, p)
        up = rng.normal(size=trace.act2.shape)
        grads, d_x = reducer.nsdru_backward(trace, up, p)
        act2, want_d_x, want_grads = full_resolution_passes(x, p, up)
        assert np.any(d_x != 0.0)
        assert trace.act2.tobytes() == act2.tobytes()
        assert d_x.tobytes() == want_d_x.tobytes()
        for f, want in zip(fields(grads), want_grads):
            assert getattr(grads, f.name).tobytes() == want.tobytes(), f.name


class TestMemory:
    def test_forward_peak_stays_small(self):
        # conv1's sums at the pool windows' cells and their pool exist one
        # chunk at a time: on a 64-sample 128 x 256 batch with 8 channels
        # the peak, 9.8 MiB, is the output (4 MiB) and one chunk's
        # temporaries, not the 128 MiB of cells of the whole batch or its
        # 32 MiB pool.
        x = np.random.default_rng(0).uniform(size=(64, 1, 128, 256))
        p = init_nsdru(8, seed=0)
        peak = traced_peak_mib(lambda: reducer.nsdru_forward(x, p))
        assert peak < 16.0, f"forward peak {peak:.1f} MiB"

    def test_backward_peak_stays_small(self):
        # The backward walks the forward's chunks too, so it holds one
        # chunk's conv1 cells, pool and their gradients at a time: on a
        # 16-sample 128 x 256 batch with 8 channels the peak is about
        # 15 MiB, where rebuilding conv1's map for the whole batch
        # peaked at 93.3 MiB.
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(16, 1, 128, 256))
        p = init_nsdru(8, seed=0)
        p.conv2_w[...] = np.abs(p.conv2_w)
        trace = reducer.nsdru_forward(x, p)
        up = rng.normal(size=trace.act2.shape)
        peak = traced_peak_mib(lambda: reducer.nsdru_backward(trace, up, p))
        assert peak < 32.0, f"backward peak {peak:.1f} MiB"
