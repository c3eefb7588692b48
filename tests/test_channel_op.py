"""Per-channel maps as flat tile ops (`normbank.channel_op`): bitwise the
broadcast formulas they replaced in `Linear.apply` and `eval_normalize`, at
row counts around the tile's height, with one tile allocated and no numpy
iteration buffer; where the tile would cover every row, the broadcast
itself."""

import tracemalloc

import numpy as np
import pytest

from helpers import broadcast_eval_normalize, broadcast_linear_apply, same_bits
from normaug import normbank as nb
from normaug.model import Linear
from normaug.normbank import ROW_BLOCK, BNUnit, ONUnit, channel_op

ROWS = (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 19, 1000, 3000)
# an mlp site (n, C) and a smallconv site (n, C, H, W)
SITES = {"mlp": (8,), "smallconv": (4, 3, 3)}
SLACK = 4096  # tracemalloc's own bookkeeping and the per-channel vectors


def rows(n: int, shape: tuple[int, ...], seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, *shape)) * 3.0 + 0.5


def tile_bytes(n: int, shape: tuple[int, ...]) -> int:
    """`channel_op`'s tile: ROW_BLOCK rows, or as many as numpy's buffer
    holds elements where rows are narrower, and at most n (where the tile
    would cover all n rows, the broadcast's buffer of at most as many
    elements takes its place)."""
    width = int(np.prod(shape))
    return min(n, max(ROW_BLOCK, -(-np.getbufsize() // width))) * width * 8


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("site", list(SITES))
@pytest.mark.parametrize("op", [np.add, np.subtract, np.multiply])
def test_channel_op_is_the_broadcast_op(op, site, n):
    """Into a fresh output and in place, with a vector holding -0.0, a
    subnormal and a huge value."""
    check_broadcast_bits(op, rows(n, SITES[site]))


# rows the tile would cover whole (a 1000 x 5 classifier bias, a 128-row
# probe batch, a 128-row smallconv site) and rows that keep the tile
# (1000 x 64 hidden rows)
EVAL_SHAPES = [(1000, (5,)), (ROW_BLOCK, (64,)), (ROW_BLOCK, (4, 3, 3)), (1000, (64,))]


@pytest.mark.parametrize("n, shape", EVAL_SHAPES,
                         ids=["bias-1000x5", "probe-128x64", "conv-128", "hidden-1000x64"])
@pytest.mark.parametrize("op", [np.add, np.subtract, np.multiply])
def test_evaluation_shapes_are_the_broadcast_op(op, n, shape):
    check_broadcast_bits(op, rows(n, shape, seed=9))


def check_broadcast_bits(op, h: np.ndarray) -> None:
    """`channel_op` into a fresh output and in place has the broadcast's
    bits."""
    shape = h.shape[1:]
    v = np.random.default_rng(1).standard_normal(shape[0])
    v[:3] = (-0.0, 5e-324, 1e300)
    want = op(h, v.reshape(v.shape + (1,) * (h.ndim - 2)))
    out = np.empty(h.shape)
    assert channel_op(op, h, v, out) is out
    assert same_bits(out, want)
    assert same_bits(channel_op(op, h, v, h), want)


def test_channel_op_refuses_a_strided_output():
    """A reshape of a strided output would write into a copy."""
    h = rows(300, (8,))
    out = np.empty((300, 16))[:, ::2]
    with pytest.raises(ValueError, match="out must be C-contiguous"):
        channel_op(np.add, h, np.ones(8), out)


class TestLinearApply:
    # the default model's layer-0, hidden and classifier shapes, and odd ones
    SHAPES = [(16, 64), (64, 32), (32, 5), (7, 5), (3, 1)]

    @staticmethod
    def layer(fan_in, fan_out):
        lin = Linear(fan_in, fan_out, np.random.default_rng(fan_in * 100 + fan_out))
        lin.bias.data = np.random.default_rng(1).standard_normal(fan_out)
        return lin

    @pytest.mark.parametrize("n", ROWS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_plain_and_folded_are_the_broadcast_formula(self, shape, n):
        lin = self.layer(*shape)
        rng = np.random.default_rng(4)
        scale, shift = rng.uniform(0.3, 2.0, shape[1]), rng.standard_normal(shape[1])
        h = rows(n, (shape[0],), seed=2)
        assert same_bits(lin.apply(h), broadcast_linear_apply(lin, h))
        assert same_bits(lin.apply(h, scale, shift),
                         broadcast_linear_apply(lin, h, scale, shift))

    @pytest.mark.parametrize("width", [64, 32, 5])
    @pytest.mark.parametrize("folded", [False, True], ids=["plain", "folded"])
    def test_allocates_its_output_and_one_tile(self, folded, width):
        """No buffer beside the output and the bias tile: a broadcast `out +=
        b` took numpy's iteration buffer (64 KB for 1000 x 64 or 1000 x 32),
        and so does a tile op whose flat inner loop is shorter than that
        buffer. At width 5 the tile would cover all 1000 rows, so the
        broadcast runs, and its 40 KB buffer is the tile's size. The folded
        product also holds its folded weights."""
        lin = self.layer(64, width)
        h = rows(1000, (64,), seed=5)
        args = np.random.default_rng(4).uniform(0.3, 2.0, (2, width)) if folded else ()
        tracemalloc.start()
        try:
            out = lin.apply(h, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        weights = lin.weight.data.nbytes if folded else 0
        assert peak <= out.nbytes + tile_bytes(1000, (width,)) + weights + SLACK


def unit(kind: str, channels: int, seed: int = 3) -> BNUnit:
    rng = np.random.default_rng(seed)
    u = (ONUnit if kind == "on" else BNUnit)(channels)
    u.gamma.data = rng.uniform(0.5, 1.5, channels)
    u.beta.data = rng.standard_normal(channels) * 0.3
    u.running_mean = rng.standard_normal(channels)
    u.running_var = rng.uniform(0.2, 3.0, channels)
    if kind == "on":
        u.mix_logits.data = rng.standard_normal(2)
    return u


class TestEvalNormalize:
    @pytest.mark.parametrize("n", ROWS)
    @pytest.mark.parametrize("probe", [False, True], ids=["running", "probe"])
    @pytest.mark.parametrize("site", list(SITES))
    @pytest.mark.parametrize("kind", ["bn", "on"])
    def test_is_the_broadcast_formula(self, kind, site, probe, n):
        """With the running moments or probe moments standing in for them."""
        shape = SITES[site]
        u = unit(kind, shape[0])
        h = rows(n, shape, seed=6)
        moments = nb._channel_stats(h * 0.5 - 1.0) if probe else None
        want = broadcast_eval_normalize(u, h, moments)
        assert same_bits(nb.eval_normalize(u, h, moments), want)

    @pytest.mark.parametrize("kind", ["bn", "on"])
    def test_strided_input_keeps_the_bits(self, kind):
        u = unit(kind, 8)
        h = rows(2 * ROW_BLOCK + 19, (8,), seed=7)
        want = nb.eval_normalize(u, h)
        wide = np.zeros((h.shape[0], 16))
        wide[:, 1::2] = h
        assert same_bits(nb.eval_normalize(u, np.asfortranarray(h)), want)
        assert same_bits(nb.eval_normalize(u, wide[:, 1::2]), want)

    @pytest.mark.parametrize("width", [64, 32, 5])
    @pytest.mark.parametrize("probe", [False, True], ids=["running", "probe"])
    def test_bn_allocates_its_output_and_one_tile(self, probe, width):
        u = unit("bn", width)
        h = rows(1000, (width,), seed=8)
        moments = nb._channel_stats(h) if probe else None
        tracemalloc.start()
        try:
            out = nb.eval_normalize(u, h, moments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + tile_bytes(1000, (width,)) + SLACK
