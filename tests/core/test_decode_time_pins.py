"""``BitDecoding.decode_time_ms`` pinned to the float, at a fixed sweep.

The pricing miss is the modeled clock's hottest host path, so it gets
optimised; every such change must leave each latency bit-identical (the
e2e ``sim_*`` compare catches a drift too, but only in the benchmark
job).  These 50 values are compared with ``==``: a reordered or
re-associated operation anywhere in ``build_packing_launch``, the
residual launch, :class:`~repro.gpu.kernel.ResourceRates` or
``simulate_kernel`` fails here, in tier-1.  The sweep covers INT4/INT2 x A100/H100 x batch
1/2/8 at three lengths with the ``paged`` and ``res_len``/``flush``
keywords, the ``cluster_scale`` engine's shape (LLaMA-3.1-8B, one rank
of tp=2, ``wn=1``), and the v3, native-FP4 and layout-induction-off
launch variants.
"""

import pytest

from repro.core.attention import BitDecoding
from repro.core.config import AttentionGeometry, BitDecodingConfig

#: (device, config overrides, (batch, hq, hkv, seq_len), kwargs, ms)
PINNED = [
    ('a100', {'bits': 4}, (1, 32, 8, 100), {}, 0.014912538006157761),
    ('a100', {'bits': 4}, (1, 32, 8, 4097), {'paged': True}, 0.027516268108029103),
    ('a100', {'bits': 4}, (1, 32, 8, 131072), {'res_len': 5, 'flush': True}, 0.12226516087331027),
    ('a100', {'bits': 4}, (2, 32, 8, 100), {'paged': True}, 0.015681842735955215),
    ('a100', {'bits': 4}, (2, 32, 8, 4097), {'res_len': 5, 'flush': True}, 0.028499660981912426),
    ('a100', {'bits': 4}, (2, 32, 8, 131072), {}, 0.22788286093445684),
    ('a100', {'bits': 4}, (8, 32, 8, 100), {'res_len': 5, 'flush': True}, 0.016603524940583363),
    ('a100', {'bits': 4}, (8, 32, 8, 4097), {}, 0.050294291952505565),
    ('a100', {'bits': 4}, (8, 32, 8, 131072), {'paged': True}, 1.4593333531855501),
    ('a100', {'bits': 2}, (1, 32, 8, 100), {}, 0.009665173743207084),
    ('a100', {'bits': 2}, (1, 32, 8, 4097), {'paged': True}, 0.0270180765349253),
    ('a100', {'bits': 2}, (1, 32, 8, 131072), {'res_len': 5, 'flush': True}, 0.09184127597034195),
    ('a100', {'bits': 2}, (2, 32, 8, 100), {'paged': True}, 0.01035059932654716),
    ('a100', {'bits': 2}, (2, 32, 8, 4097), {'res_len': 5, 'flush': True}, 0.02696996562355569),
    ('a100', {'bits': 2}, (2, 32, 8, 131072), {}, 0.16538447668207992),
    ('a100', {'bits': 2}, (8, 32, 8, 100), {'res_len': 5, 'flush': True}, 0.01626522334055737),
    ('a100', {'bits': 2}, (8, 32, 8, 4097), {}, 0.04415617118650973),
    ('a100', {'bits': 2}, (8, 32, 8, 131072), {'paged': True}, 0.9002350086953239),
    ('h100', {'bits': 4}, (1, 32, 8, 100), {}, 0.013655910366815996),
    ('h100', {'bits': 4}, (1, 32, 8, 4097), {'paged': True}, 0.026120089095458102),
    ('h100', {'bits': 4}, (1, 32, 8, 131072), {'res_len': 5, 'flush': True}, 0.11931085822480357),
    ('h100', {'bits': 4}, (2, 32, 8, 100), {'paged': True}, 0.01464583608240956),
    ('h100', {'bits': 4}, (2, 32, 8, 4097), {'res_len': 5, 'flush': True}, 0.026675881147042127),
    ('h100', {'bits': 4}, (2, 32, 8, 131072), {}, 0.22350602513256615),
    ('h100', {'bits': 4}, (8, 32, 8, 100), {'res_len': 5, 'flush': True}, 0.015762204920460546),
    ('h100', {'bits': 4}, (8, 32, 8, 4097), {}, 0.04758749125751007),
    ('h100', {'bits': 4}, (8, 32, 8, 131072), {'paged': True}, 1.4303575627303688),
    ('h100', {'bits': 2}, (1, 32, 8, 100), {}, 0.009694301501082572),
    ('h100', {'bits': 2}, (1, 32, 8, 4097), {'paged': True}, 0.0257872378584688),
    ('h100', {'bits': 2}, (1, 32, 8, 131072), {'res_len': 5, 'flush': True}, 0.08530104849232059),
    ('h100', {'bits': 2}, (2, 32, 8, 100), {'paged': True}, 0.010576293233088046),
    ('h100', {'bits': 2}, (2, 32, 8, 4097), {'res_len': 5, 'flush': True}, 0.024833009771012014),
    ('h100', {'bits': 2}, (2, 32, 8, 131072), {}, 0.15457729320501337),
    ('h100', {'bits': 2}, (8, 32, 8, 100), {'res_len': 5, 'flush': True}, 0.01532517717788134),
    ('h100', {'bits': 2}, (8, 32, 8, 4097), {}, 0.04186854188385104),
    ('h100', {'bits': 2}, (8, 32, 8, 131072), {'paged': True}, 0.8503406715253157),
    ('a100', {'bits': 4, 'wn': 1}, (1, 16, 4, 65), {}, 0.016288773795212666),
    ('a100', {'bits': 4, 'wn': 1}, (1, 16, 4, 4096), {}, 0.032066626601648614),
    ('a100', {'bits': 4, 'wn': 1}, (1, 16, 4, 4161), {}, 0.0321001093736408),
    ('a100', {'bits': 4, 'wn': 1}, (1, 16, 4, 33000), {}, 0.06535834276916398),
    ('a100', {'bits': 4, 'wn': 1}, (1, 16, 4, 131072), {}, 0.18095572269015084),
    ('h100', {'version': 'v3'}, (4, 32, 8, 300), {}, 0.02024239171131145),
    ('h100', {'version': 'v3'}, (4, 32, 8, 8192), {}, 0.03495311251946717),
    ('h100', {'version': 'v3'}, (4, 32, 8, 65536), {}, 0.14409285531464036),
    ('rtx5090', {'version': 'fp4'}, (4, 32, 8, 300), {}, 0.022869437806855682),
    ('rtx5090', {'version': 'fp4'}, (4, 32, 8, 8192), {}, 0.04359233539021514),
    ('rtx5090', {'version': 'fp4'}, (4, 32, 8, 65536), {}, 0.19138497106201702),
    ('a100', {'use_layout_induction': False}, (4, 32, 8, 300), {}, 0.026930704100766062),
    ('a100', {'use_layout_induction': False}, (4, 32, 8, 8192), {}, 0.1074277860580106),
    ('a100', {'use_layout_induction': False}, (4, 32, 8, 65536), {}, 0.7058985216840562),
]


@pytest.mark.parametrize("arch, overrides, shape, kwargs, ms", PINNED)
def test_decode_time_ms_is_pinned(arch, overrides, shape, kwargs, ms):
    batch, hq, hkv, seq_len = shape
    engine = BitDecoding(BitDecodingConfig(**overrides), arch)
    geom = AttentionGeometry(batch, hq, hkv, seq_len, 128)
    assert engine.decode_time_ms(geom, **kwargs) == ms
    assert engine.decode_time_ms(geom, **kwargs) == ms  # the memo hands back the same float


def test_one_engine_over_the_whole_sweep_matches_fresh_engines():
    """A warm engine (shapes, rates and residual memo kept across points)
    prices every point exactly as a fresh one did."""
    engines = {}
    for arch, overrides, (batch, hq, hkv, seq_len), kwargs, ms in PINNED:
        key = (arch, tuple(sorted(overrides.items())))
        if key not in engines:
            engines[key] = BitDecoding(BitDecodingConfig(**overrides), arch)
        geom = AttentionGeometry(batch, hq, hkv, seq_len, 128)
        assert engines[key].decode_time_ms(geom, **kwargs) == ms
