"""Step pricing costs O(new shapes) — shown by counting, never by a clock.

The engine prices every ragged decode group of every step through
``BitDecoding.decode_time_ms``.  With the per-instance latency memo a
shape is simulated once (two launches: packing + residual); a run priced
through a shim that builds a cold attention system per call must produce
the same report, field for field.
"""

import dataclasses

import repro.core.attention as attention_module
import repro.model.inference as inference
from repro.cluster import Router
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.gpu.arch import get_arch
from repro.model.config import LLAMA31_8B
from repro.model.memory import int_format
from repro.serving import ContinuousBatchingEngine, EngineConfig, poisson_trace

A100 = get_arch("a100")
KERNEL_CONFIG = BitDecodingConfig(bits=4, wn=1)


class FreshKernelPerCall:
    """Test-local uncached twin: every call prices on a cold ``BitDecoding``."""

    def decode_time_ms(self, geom, **kwargs):
        return BitDecoding(KERNEL_CONFIG, A100).decode_time_ms(geom, **kwargs)


def _config(attention, **overrides):
    settings = dict(
        model=LLAMA31_8B,
        arch=A100,
        fmt=int_format(4, LLAMA31_8B, residual_window=64),
        attention=attention,
        page_size=64,
        prefix_cache=True,
        prefill_chunk_tokens=256,
    )
    return EngineConfig(**{**settings, **overrides})


def _trace(n_requests=24):
    return poisson_trace(
        n_requests,
        200.0,
        prompt_len=600,
        output_len=24,
        seed=1,
        prompt_jitter=0.5,
        output_jitter=0.5,
        shared_prefix_fraction=0.5,
        prefix_groups=3,
    )


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` where it is looked up; returns the arguments seen."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def _priced_shapes(grouped_calls):
    """Distinct ``(group_batch, group_seq_len)`` over the recorded
    ``_grouped_attention_ms(model, attention, batch, seq_len, groups, tp=)`` calls."""
    shapes = set()
    for _model, _attention, batch, seq_len, groups in grouped_calls:
        shapes.update(groups if groups is not None else [(batch, seq_len)])
    return shapes


def test_simulations_equal_twice_the_distinct_shapes(monkeypatch):
    simulated = _count_calls(monkeypatch, attention_module, "simulate_kernel")
    grouped = _count_calls(monkeypatch, inference, "_grouped_attention_ms")
    engine = ContinuousBatchingEngine(_config(BitDecoding(KERNEL_CONFIG, A100)), _trace())
    report = engine.run()
    assert report.completed == 24

    shapes = _priced_shapes(grouped)
    priced_groups = sum(len(call[4]) for call in grouped)
    assert all(seq_len > KERNEL_CONFIG.residual_block_size for _, seq_len in shapes)
    assert len(simulated) == 2 * len(shapes)  # one packing + one residual launch each
    assert priced_groups > len(shapes)  # the trace really does repeat shapes


def test_replicas_share_the_configs_kernel_and_its_memo(monkeypatch):
    simulated = _count_calls(monkeypatch, attention_module, "simulate_kernel")
    grouped = _count_calls(monkeypatch, inference, "_grouped_attention_ms")
    kernel = BitDecoding(KERNEL_CONFIG, A100)
    router = Router(_config(kernel, tp=2, n_gpus=2), _trace(), replicas=2, policy="prefix_affinity")
    report = router.run()
    assert report.completed == 24
    assert all(e.backend.attention_system is kernel for e in router.engines)
    assert len(simulated) == 2 * len(_priced_shapes(grouped)) == 2 * len(kernel._latency_memo)


def _assert_equal_field_for_field(a, b):
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), field.name


def test_engine_report_equals_uncached_pricing():
    memoized = ContinuousBatchingEngine(_config(BitDecoding(KERNEL_CONFIG, A100)), _trace()).run()
    uncached = ContinuousBatchingEngine(_config(FreshKernelPerCall()), _trace()).run()
    _assert_equal_field_for_field(memoized, uncached)


def test_cluster_report_equals_uncached_pricing():
    cluster = dict(replicas=2, policy="prefix_affinity")
    tp2 = dict(tp=2, n_gpus=2)
    memoized = Router(_config(BitDecoding(KERNEL_CONFIG, A100), **tp2), _trace(), **cluster).run()
    uncached = Router(_config(FreshKernelPerCall(), **tp2), _trace(), **cluster).run()
    _assert_equal_field_for_field(memoized, uncached)
    for ours, theirs in zip(memoized.per_replica, uncached.per_replica):
        _assert_equal_field_for_field(ours, theirs)
