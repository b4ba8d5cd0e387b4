"""The group memo's tile-class fill equals scalar pricing, bit for bit.

``BitDecoding.fill_group_class`` prices every length of a tile class in
one array pass (``PackingShape.class_times_ms``).  Every value it stores
must ``==`` ``n_layers * decode_time_ms(geom)`` on a cold engine, so the
engine's reports cannot tell the two paths apart.  The sweep covers the
INT bit widths x granularities x dequant paths on A100, v3 on H100, both
native-FP4 formats on RTX 5090, the warp layouts with the cooperative
softmax on and off, and the layout-induction and pipeline ablations.  Each
case takes one of the ``tiny``, bench-gqa and LLaMA-3.1-8B head shapes at
tp 1 or 2 and a batch from 1 to 16, and fills the classes on both sides
of the first tile boundary and of the split-target boundary, plus the
lengths with nothing packed yet.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.core.packing_kernel import _split_target
from repro.gpu.arch import get_arch
from repro.gpu.kernel import _combine
from repro.model.config import LLAMA31_8B, TINY

BENCH_GQA = dataclasses.replace(
    TINY, name="bench-gqa", hq=8, hkv=2, head_dim=64, hidden=512, intermediate=1024
)
MODELS = (TINY, BENCH_GQA, LLAMA31_8B)

#: (id, device, config overrides)
CONFIGS = [
    *[
        (
            f"int{bits}-{granularity}-{method}",
            "a100",
            dict(bits=bits, granularity=granularity, dequant_method=method),
        )
        for bits in (1, 2, 4, 8)
        for granularity in ("channel", "tensor")
        for method in ("lop3", "cvt")
    ],
    ("v3", "h100", dict(version="v3")),
    ("mxfp4", "rtx5090", dict(version="fp4", fp4_format="mxfp4")),
    ("nvfp4", "rtx5090", dict(version="fp4", fp4_format="nvfp4")),
    *[
        (f"wn{wn}-coop-{'on' if coop else 'off'}", "a100", dict(wn=wn, use_coop_softmax=coop))
        for wn in (1, 2, 4)
        for coop in (True, False)
    ],
    ("no-layout-induction", "a100", dict(use_layout_induction=False)),
    ("no-pipeline", "a100", dict(use_pipeline=False)),
]

#: One shape per config, cycling so that every head shape, both tp and
#: every batch from 1 to 16 appear: (id, device, overrides, model, tp, batch).
CASES = [
    (name, device, overrides, MODELS[i % 3], 1 + (i // 3) % 2, 1 + i % 16)
    for i, (name, device, overrides) in enumerate(CONFIGS)
]


def _cold_group_ms(config, arch, model, tp, batch, seq_len):
    geom = model.attention_geometry(batch, seq_len, tp=tp)
    return model.n_layers * BitDecoding(config, arch).decode_time_ms(geom)


@pytest.mark.parametrize(
    "device, overrides, model, tp, batch",
    [case[1:] for case in CASES],
    ids=[f"{name}-{model.name}-tp{tp}-b{batch}" for name, _, _, model, tp, batch in CASES],
)
def test_every_filled_value_equals_the_cold_scalar_price(device, overrides, model, tp, batch):
    config, arch = BitDecodingConfig(**overrides), get_arch(device)
    kernel = BitDecoding(config, arch)
    memo = kernel.group_memo(model, tp)
    res_len, tile_n = config.residual_block_size // 2, config.tile_n
    splits = _split_target(arch, model.attention_geometry(batch, 1, tp=tp))

    # Nothing packed: the scalar path, one entry per call.
    for seq_len in (1, res_len):
        value = kernel.fill_group_class(model, tp, batch, seq_len)
        cold = _cold_group_ms(config, arch, model, tp, batch, seq_len)
        assert value == memo[batch, seq_len] == cold
    assert len(memo) == 2

    # Both sides of the first tile boundary (one split vs two) and of the
    # split target (tiles below, at and past it).
    edge = splits * tile_n
    packed = {1, tile_n, tile_n + 1, edge, edge + 1, edge + tile_n + 1}
    for packed_len in sorted(packed):
        seq_len = res_len + packed_len
        if (batch, seq_len) in memo:
            continue
        before = set(memo)
        value = kernel.fill_group_class(model, tp, batch, seq_len)
        filled = sorted(set(memo) - before)
        last = res_len + -(-packed_len // tile_n) * tile_n
        assert [length for _, length in filled] == list(range(last - tile_n + 1, last + 1))
        assert value == memo[batch, seq_len]
        for key in filled:
            assert type(memo[key]) is float
            assert memo[key] == _cold_group_ms(config, arch, model, tp, *key), key


def test_combine_adds_left_to_right_on_every_python():
    """``1.0 + 1e-16 + 1e-16`` is 1.0 left to right but not under the
    compensated ``sum`` of Python 3.12+; scalar and array pricing must
    both take the left-to-right value."""
    times = {"dram": 1.0, "l2": 1e-16, "smem": 1e-16}
    assert _combine(times, 0.0) == 1.0
    arrays = {name: np.full(3, value) for name, value in times.items()}
    assert _combine(arrays, 0.0, np.maximum).tolist() == [1.0] * 3
