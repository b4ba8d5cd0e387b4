"""Design-choice ablations beyond the paper's own (README, "Reproduction contract").

These quantify the tunables BitDecoding fixes by construction: the warp
width Wn, the dequantization instruction path, the KV tile size, the page
size, the channel-wise key group size, and the full bit-width range down
to the 1-bit frontier the paper's related work points at.
"""

from repro.bench.ablations import (
    bit_width_sweep,
    dequant_path_sweep,
    key_group_size_sweep,
    page_size_sweep,
    tile_size_sweep,
    warp_width_sweep,
)


def test_warp_width_sweep(run):
    exp = run(warp_width_sweep, "a100")
    exp.show()
    lat = exp.series["Latency-ms"]
    # Wn=1 is the slow corner; returns diminish past 4.
    assert lat.value_at(1) > 1.5 * lat.value_at(4)
    assert lat.value_at(4) < 1.3 * lat.value_at(8)
    # TC utilization rises with warp width.
    tc = exp.series["TC-Utilization-pct"]
    assert tc.value_at(4) > tc.value_at(1)
    # Eq. 1: the residual block grows linearly with Wn.
    nr = exp.series["Residual-block-Nr"]
    assert nr.value_at(8) == 2 * nr.value_at(4) == 4 * nr.value_at(2)


def test_dequant_path_sweep(run):
    exp = run(dequant_path_sweep)
    exp.show()
    for device in ("a100", "rtx4090", "h100"):
        assert exp.series["cvt"].value_at(device) >= exp.series["lop3"].value_at(device)


def test_tile_size_sweep(run):
    exp = run(tile_size_sweep, "a100")
    exp.show()
    smem = exp.series["SMEM-per-block-KiB"]
    assert smem.value_at(256) > smem.value_at(32)
    lat = exp.series["Latency-ms"]
    # 128 is a sane default: within 25% of the best point in the sweep.
    best = min(lat.values())
    assert lat.value_at(128) < 1.25 * best


def test_page_size_sweep(run):
    exp = run(page_size_sweep, "a100")
    exp.show()
    lat = exp.series["Latency-ms"]
    frag = exp.series["Fragmentation-pct"]
    # Smaller pages cost lookups; larger pages cost fragmentation.
    assert lat.value_at(16) > lat.value_at(256)
    assert frag.value_at(256) > frag.value_at(16)


def test_key_group_size_sweep(run):
    exp = run(key_group_size_sweep)
    exp.show()
    meta = exp.series["Meta-bytes-per-token"]
    err = exp.series["Mean-abs-error"]
    # Monotone trade-off in both directions.
    assert meta.value_at(16) > meta.value_at(128)
    assert err.value_at(128) > err.value_at(16)


def test_bit_width_sweep(run):
    exp = run(bit_width_sweep, "rtx4090")
    exp.show()
    lat = exp.series["Latency-ms"]
    order = [lat.value_at(x) for x in ("fp16", "int8", "int4", "int2", "int1")]
    # Strictly cheaper with every halving of the cache.
    for slower, faster in zip(order, order[1:]):
        assert faster < slower
