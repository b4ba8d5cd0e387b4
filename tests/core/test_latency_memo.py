"""The per-instance kernel-latency memo is exact.

``decode_time_ms`` of every attention system is memoized on the frozen
geometry plus its name-sorted kwargs (``repro.gpu.kernel.memoized_latency``).
A memo may only ever change *when* a latency is computed, never *what* it
is: every comparison here is ``==`` against a cold, freshly built instance.
"""

import itertools
import random

import pytest

import repro.gpu.kernel as kernel_module
from repro.baselines import Atom, FlashDecodingV2, QServe
from repro.core.attention import BitDecoding
from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.gpu.arch import get_arch

A100 = get_arch("a100")
CONFIG = BitDecodingConfig(bits=4)  # N_r = 128

GEOMETRIES = [
    AttentionGeometry(1, 32, 8, 4096, 128),
    AttentionGeometry(1, 32, 8, 4097, 128),
    AttentionGeometry(7, 32, 8, 4096, 128),
    AttentionGeometry(16, 16, 4, 700, 128),  # one tp=2 rank of LLaMA-3.1-8B
    AttentionGeometry(3, 32, 32, 2048, 128),  # MHA
    AttentionGeometry(2, 32, 8, 40, 128),  # shorter than the default residual
]
KWARGS = [
    dict(res_len=res_len, flush=flush, paged=paged, page_size=page_size)
    for res_len, flush, paged, page_size in itertools.product(
        (None, 1, 127), (False, True), (False, True), (64, 128)
    )
] + [dict(res_len=128, flush=True), {}]


def _fresh(geom, **kwargs):
    return BitDecoding(CONFIG, A100).decode_time_ms(geom, **kwargs)


class TestExactness:
    def test_warm_instance_equals_fresh_instances_over_a_sweep(self):
        calls = [(geom, kwargs) for geom in GEOMETRIES for kwargs in KWARGS]
        expected = [_fresh(geom, **kwargs) for geom, kwargs in calls]
        warm = BitDecoding(CONFIG, A100)
        cold_pass = [warm.decode_time_ms(geom, **kwargs) for geom, kwargs in calls]
        assert cold_pass == expected
        order = list(range(len(calls)))
        random.Random(0).shuffle(order)
        for i in order:
            geom, kwargs = calls[i]
            assert warm.decode_time_ms(geom, **kwargs) == expected[i]

    @pytest.mark.parametrize(
        "system, geom, kwargs_list",
        [
            (FlashDecodingV2, GEOMETRIES[0], [{}, dict(paged=True), dict(paged=False)]),
            (QServe, GEOMETRIES[2], [{}, dict(paged=False)]),
            (Atom, GEOMETRIES[4], [{}, dict(paged=False)]),
        ],
    )
    def test_baseline_system_is_exact_too(self, system, geom, kwargs_list):
        warm = system(A100)
        for _ in range(2):
            for kwargs in kwargs_list:
                want = system(A100).decode_time_ms(geom, **kwargs)
                assert warm.decode_time_ms(geom, **kwargs) == want

    def test_baseline_kwarg_does_not_collide(self):
        geom = GEOMETRIES[0]
        warm = FlashDecodingV2(A100)
        paged, contiguous = (
            FlashDecodingV2(A100).decode_time_ms(geom, paged=p) for p in (True, False)
        )
        assert paged != contiguous
        for _ in range(2):
            assert warm.decode_time_ms(geom, paged=True) == paged
            assert warm.decode_time_ms(geom, paged=False) == contiguous
            assert warm.decode_time_ms(geom) == contiguous

    def test_equal_geometries_share_an_entry(self):
        engine = BitDecoding(CONFIG, A100)
        first = engine.decode_time_ms(AttentionGeometry(4, 32, 8, 1000, 128))
        assert engine.decode_time_ms(AttentionGeometry(4, 32, 8, 1000, 128)) == first
        assert len(engine._latency_memo) == 1


class TestKeys:
    def test_kwargs_order_does_not_matter(self):
        geom = GEOMETRIES[0]
        engine = BitDecoding(CONFIG, A100)
        a = engine.decode_time_ms(geom, res_len=128, flush=True, paged=True, page_size=128)
        b = engine.decode_time_ms(geom, page_size=128, paged=True, flush=True, res_len=128)
        assert a == b == _fresh(geom, flush=True, page_size=128, res_len=128, paged=True)
        assert len(engine._latency_memo) == 1
        plain = engine.decode_time_ms(geom)
        spelled = engine.decode_time_ms(geom, res_len=None, flush=False, paged=False, page_size=64)
        assert plain == spelled == _fresh(geom)  # a spelled-out default is the same latency

    def test_keys_differing_in_one_kwarg_do_not_collide(self):
        geom = GEOMETRIES[0]
        base = dict(res_len=64, flush=False, paged=True, page_size=64)
        variants = [
            base,
            {**base, "res_len": 65},
            {**base, "res_len": 1},  # 1 == True: must not alias flush=True
            {**base, "flush": True},
            {**base, "paged": False},
            {**base, "page_size": 128},
        ]
        engine = BitDecoding(CONFIG, A100)
        for _ in range(2):
            values = [engine.decode_time_ms(geom, **kwargs) for kwargs in variants]
            assert values == [_fresh(geom, **kwargs) for kwargs in variants]
        assert len(engine._latency_memo) == len(variants)
        assert len(set(values)) == len(variants)

    def test_geometry_fields_do_not_collide(self):
        engine = BitDecoding(CONFIG, A100)
        # Same multiset of numbers in different fields.
        swapped = [AttentionGeometry(8, 32, 8, 4096, 128), AttentionGeometry(32, 8, 8, 4096, 128)]
        for _ in range(2):
            for geom in swapped:
                assert engine.decode_time_ms(geom) == _fresh(geom)
        assert len(engine._latency_memo) == 2

    def test_unknown_kwarg_raises_cold_and_warm(self):
        engine = BitDecoding(CONFIG, A100)
        with pytest.raises(TypeError):
            engine.decode_time_ms(GEOMETRIES[0], bogus=1)
        engine.decode_time_ms(GEOMETRIES[0])
        with pytest.raises(TypeError):
            engine.decode_time_ms(GEOMETRIES[0], bogus=1)

    def test_a_call_that_raises_stores_nothing(self):
        atom = Atom(A100)
        gqa = GEOMETRIES[0]
        for _ in range(2):
            with pytest.raises(ValueError, match="GQA"):
                atom.decode_time_ms(gqa)
        assert not getattr(atom, "_latency_memo", {})


class TestScope:
    def test_memo_is_per_instance_and_lazy(self):
        a, b = BitDecoding(CONFIG, A100), BitDecoding(CONFIG, A100)
        assert not hasattr(a, "_latency_memo")  # nothing precomputed at construction
        a.decode_time_ms(GEOMETRIES[0])
        assert len(a._latency_memo) == 1
        assert not hasattr(b, "_latency_memo")

    def test_instances_with_different_configs_do_not_share(self):
        int4, int2 = BitDecoding(CONFIG, A100), BitDecoding(BitDecodingConfig(bits=2), A100)
        h100 = BitDecoding(CONFIG, get_arch("h100"))
        times = {e.decode_time_ms(GEOMETRIES[0]) for e in (int4, int2, h100) for _ in range(2)}
        assert len(times) == 3

    def test_results_and_launches_stay_uncached(self):
        engine = BitDecoding(CONFIG, A100)
        geom = GEOMETRIES[0]
        first, second = engine.decode_results(geom), engine.decode_results(geom)
        assert all(x is not y for x, y in zip(first, second))
        first[0].resource_times.clear()  # a caller mutating its result ...
        assert engine.decode_time_ms(geom) == _fresh(geom)  # ... cannot poison a latency
        assert engine.decode_launches(geom)[0] is not engine.decode_launches(geom)[0]


class TestCap:
    def test_cap_clears_without_changing_any_value(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "LATENCY_MEMO_CAP", 4)
        engine = BitDecoding(CONFIG, A100)
        geoms = [AttentionGeometry(1, 32, 8, 1024 + 64 * i, 128) for i in range(11)]
        expected = [_fresh(geom) for geom in geoms]
        sizes = []
        for _ in range(3):
            for geom, want in zip(geoms, expected):
                assert engine.decode_time_ms(geom) == want
                sizes.append(len(engine._latency_memo))
        assert max(sizes) == 4
        assert 1 in sizes[4:]  # it was cleared and refilled, not frozen at the cap

    def test_default_cap_outlasts_a_serving_trace(self):
        # cluster_scale prices 2 187 distinct shapes; a cap below that would
        # turn the memo into a thrash.
        assert kernel_module.LATENCY_MEMO_CAP >= 1 << 14
