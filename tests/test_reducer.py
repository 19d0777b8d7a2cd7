"""Conv/pool compressor: its convolutions and 2x2 pool against explicit
loops and finite differences, the forward's bytes against its GEMMs'
summation order, batch invariance across chunks, the halving rule, pooling
dominance, gradients and the memory of both passes."""

import math
import re
from dataclasses import fields
from fractions import Fraction

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
    rebuilds it: the private kernels over the forward's chunks."""
    return np.concatenate([reducer._maxpool(reducer._conv1_relu(x[s], p))
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
        # Both ReLUs bite (some outputs are exactly zero), and the pool of
        # the first ReLU's output is nonnegative too.
        p = init_nsdru(4, seed=3)
        trace = reducer.nsdru_forward(np.random.default_rng(3).normal(size=(2, 1, 8, 10)), p)
        act1 = reducer._conv1_relu(trace.x, p)
        for arr in (act1, pooled_of(trace.x, p), trace.act2):
            assert np.all(arr >= 0.0)
        assert np.any(act1 == 0.0) and np.any(trace.act2 == 0.0)

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
        assert len(reducer._chunks(x.shape)) == 3
        act1 = np.concatenate([reducer._conv1_relu(x[s], p) for s in reducer._chunks(x.shape)],
                              axis=1).transpose(1, 0, 2, 3)
        pooled = reducer._maxpool(act1)
        assert np.any(pooled == 0.0)
        up = np.random.default_rng(14).uniform(1.0, 2.0, size=pooled.shape)
        routed = reducer._maxpool_backward(up, act1, pooled)
        hits = sum(cell != 0.0 for cell in reducer._pool_cells(routed))
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
        out = reducer._conv1_relu(np.ones((1, 1, 4, 4)), p)
        # Zero padding: interior cells see 9 ones, edges 6, corners 4.
        want = np.array([[4.0, 6.0, 6.0, 4.0],
                         [6.0, 9.0, 9.0, 6.0],
                         [6.0, 9.0, 9.0, 6.0],
                         [4.0, 6.0, 6.0, 4.0]])
        np.testing.assert_array_equal(out, want[None, None])

    def test_zero_kernel_returns_bias_map(self):
        # conv1's output is channel-first and ReLU'd: a negative bias
        # leaves a zero map.
        p = zeroed(hidden=3)
        p.conv1_b[...] = [1.0, -2.0, 0.5]
        out = reducer._conv1_relu(np.arange(16.0).reshape(1, 1, 4, 4), p)
        assert out.shape == (3, 1, 4, 4)
        for c, v in enumerate([1.0, 0.0, 0.5]):
            np.testing.assert_array_equal(out[c, 0], np.full((4, 4), v))

    def test_same_padding_preserves_spatial_shape(self):
        p = init_nsdru(4, seed=3)
        x = np.random.default_rng(3).normal(size=(2, 1, 9, 11))
        assert reducer._conv1_relu(x, p).shape == (4, 2, 9, 11)

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 1, 6, 7))
        p = init_nsdru(4, seed=17)
        p.conv1_b[...] = rng.normal(size=4)
        p.conv2_w[...] = np.abs(p.conv2_w)
        p.conv2_b[...] = 0.1
        act1 = relu(conv3x3_loop(x, p.conv1_w, p.conv1_b))
        pooled = reducer._maxpool(act1)
        act2 = relu(conv3x3_loop(pooled, p.conv2_w, p.conv2_b))
        trace = reducer.nsdru_forward(x, p)
        np.testing.assert_allclose(reducer._conv1_relu(x, p).transpose(1, 0, 2, 3), act1,
                                   atol=1e-12)
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
    def test_two_by_two(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        np.testing.assert_array_equal(reducer._maxpool(x), [[[[4.0]]]])

    def test_odd_dims_floor(self):
        x = np.arange(35.0).reshape(1, 1, 5, 7)
        out = reducer._maxpool(x)
        assert out.shape == (1, 1, 2, 3)
        np.testing.assert_array_equal(out[0, 0], [[8.0, 10.0, 12.0], [22.0, 24.0, 26.0]])

    def test_shape_property(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            h = int(rng.integers(2, 64))
            w = int(rng.integers(2, 64))
            x = rng.normal(size=(1, 2, h, w))
            assert reducer._maxpool(x).shape == (1, 2, h // 2, w // 2)

    def test_ties_route_to_first_row_major(self):
        x = np.full((1, 1, 2, 2), 7.0)
        out = reducer._maxpool(x)
        np.testing.assert_array_equal(out, [[[[7.0]]]])
        grad = reducer._maxpool_backward(np.ones((1, 1, 1, 1)), x, out)
        np.testing.assert_array_equal(grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_backward_scatters_to_max_position(self):
        x = np.array([[[[1.0, 9.0, 0.0, 0.0], [2.0, 3.0, 0.0, 8.0]]]])
        out = reducer._maxpool(x)
        np.testing.assert_array_equal(out, [[[[9.0, 8.0]]]])
        grad = reducer._maxpool_backward(np.array([[[[5.0, -2.0]]]]), x, out)
        np.testing.assert_array_equal(grad, [[[[0.0, 5.0, 0.0, 0.0], [0.0, 0.0, 0.0, -2.0]]]])

    def test_cropped_tail_receives_zero_grad(self):
        x = np.arange(15.0).reshape(1, 1, 3, 5)
        out = reducer._maxpool(x)
        grad = reducer._maxpool_backward(np.ones_like(out), x, out)
        assert grad.shape == x.shape
        np.testing.assert_array_equal(grad[0, 0, 2, :], np.zeros(5))
        np.testing.assert_array_equal(grad[0, 0, :, 4], np.zeros(3))

    def test_matches_explicit_loop_on_tie_heavy_relu_output(self):
        # Several channels, odd H and W, exact-zero ReLU ties and rounded ties.
        rng = np.random.default_rng(17)
        x = relu(np.round(rng.normal(size=(3, 4, 9, 13)), 1))
        x[:, :, ::4, :] = 0.0
        up = rng.normal(size=(3, 4, 4, 6))
        ref_out = np.empty((3, 4, 4, 6))
        ref_grad = np.zeros_like(x)
        for n, c, i, j in np.ndindex(ref_out.shape):
            cells = [(2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]
            best = max(cells, key=lambda cell: x[n, c][cell])  # first of equal maxima
            ref_out[n, c, i, j] = x[n, c][best]
            ref_grad[n, c][best] = up[n, c, i, j]
        out = reducer._maxpool(x)
        assert np.sum(x == 0.0) > x.size // 2
        assert out.tobytes() == ref_out.tobytes()
        assert reducer._maxpool_backward(up, x, out).tobytes() == ref_grad.tobytes()


class TestMemory:
    def test_forward_peak_stays_small(self):
        # conv1's output and its pool exist one chunk at a time: on a
        # 64-sample 128 x 256 batch with 8 channels the peak is the output
        # (4 MiB) and one chunk's temporaries (about 6 MiB), not the 128 MiB
        # conv1 output of the whole batch or its 32 MiB pool.
        x = np.random.default_rng(0).uniform(size=(64, 1, 128, 256))
        p = init_nsdru(8, seed=0)
        peak = traced_peak_mib(lambda: reducer.nsdru_forward(x, p))
        assert peak < 16.0, f"forward peak {peak:.1f} MiB"

    def test_backward_peak_stays_small(self):
        # The backward walks the forward's chunks too, so it holds one
        # chunk's conv1 output, pool and their gradients at a time: on a
        # 16-sample 128 x 256 batch with 8 channels the peak is about
        # 14.5 MiB, where rebuilding conv1's map for the whole batch
        # peaked at 93.3 MiB.
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(16, 1, 128, 256))
        p = init_nsdru(8, seed=0)
        p.conv2_w[...] = np.abs(p.conv2_w)
        trace = reducer.nsdru_forward(x, p)
        up = rng.normal(size=trace.act2.shape)
        peak = traced_peak_mib(lambda: reducer.nsdru_backward(trace, up, p))
        assert peak < 32.0, f"backward peak {peak:.1f} MiB"
