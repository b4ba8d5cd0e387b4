"""Step pricing costs O(new tile classes) — shown by counting, never by a clock.

The engine prices every ragged decode group of every step.  A
``(group_batch, group_seq_len)`` priced before is one lookup in
``BitDecoding.group_memo``; a new one fills the memo for every length of
its tile class (equal ``ceil((L - res_len) / tile_n)``) in one array pass,
so the engine path builds no Packing launch at all.  The Residual launch
never reads ``seq_len``, so it is simulated once per residual class (here:
per distinct group batch, since heads, ``res_len`` and ``flush`` are
fixed).  A run priced through a shim that builds a cold attention system
per call must produce the same report, field for field.
"""

import dataclasses

import pytest

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


def _kernel_names(simulated):
    """The kernel name of each recorded ``simulate_kernel(arch, launch)`` call."""
    names = [launch.name for _arch, launch in simulated]
    assert set(names) <= {"packing_kernel", "residual_kernel"}
    return names


def _tile_classes(shapes):
    """Distinct ``(group_batch, tile class)`` pairs over priced shapes."""
    res_len, tile_n = KERNEL_CONFIG.residual_block_size // 2, KERNEL_CONFIG.tile_n
    return {(batch, -(-(seq_len - res_len) // tile_n)) for batch, seq_len in shapes}


def _spy_on_pricing(monkeypatch):
    """Spies on every way a shape gets priced: ``(simulated, grouped,
    launched, built, filled)`` argument lists."""
    return (
        _count_calls(monkeypatch, attention_module, "simulate_kernel"),
        _count_calls(monkeypatch, inference, "_grouped_attention_ms"),
        _count_calls(monkeypatch, BitDecoding, "decode_time_ms"),
        _count_calls(monkeypatch, attention_module, "build_packing_launch"),
        _count_calls(monkeypatch, BitDecoding, "fill_group_class"),
    )


def test_fills_equal_the_distinct_tile_classes_and_residual_classes(monkeypatch):
    simulated, grouped, launched, built, filled = _spy_on_pricing(monkeypatch)
    engine = ContinuousBatchingEngine(_config(BitDecoding(KERNEL_CONFIG, A100)), _trace())
    report = engine.run()
    assert report.completed == 24

    shapes = _priced_shapes(grouped)
    priced_groups = sum(len(call[4]) for call in grouped)
    assert all(seq_len > KERNEL_CONFIG.residual_block_size for _, seq_len in shapes)
    assert built == [] and launched == []  # the engine path builds no Packing launch
    assert len(filled) == len(_tile_classes(shapes))
    assert _kernel_names(simulated) == ["residual_kernel"] * len({b for b, _ in shapes})
    assert priced_groups > len(shapes)  # the trace really does repeat shapes
    assert len(shapes) > len(filled)  # ... and one fill covers several priced lengths
    assert len(filled) > len({b for b, _ in shapes})  # ... of more than one class per batch


def test_replicas_share_the_configs_kernel_and_its_memos(monkeypatch):
    simulated, grouped, launched, built, filled = _spy_on_pricing(monkeypatch)
    kernel = BitDecoding(KERNEL_CONFIG, A100)
    router = Router(_config(kernel, tp=2, n_gpus=2), _trace(), replicas=2, policy="prefix_affinity")
    report = router.run()
    assert report.completed == 24
    assert all(e.backend.attention_system is kernel for e in router.engines)
    shapes = _priced_shapes(grouped)
    assert built == [] and launched == []
    assert len(filled) == len(_tile_classes(shapes))
    memo = kernel.group_memo(LLAMA31_8B, 2)
    assert shapes <= memo.keys()
    assert len(memo) == len(filled) * KERNEL_CONFIG.tile_n
    residual = _kernel_names(simulated).count("residual_kernel")
    assert residual == len(kernel._residual_memo) == len({batch for batch, _ in shapes})


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


def test_a_group_list_that_does_not_partition_the_batch_is_rejected():
    """Memoized or not, the groups' batches must sum to the step's batch,
    and a rejected call fills no memo entry."""
    kernel = BitDecoding(KERNEL_CONFIG, A100)
    for attention in (kernel, FreshKernelPerCall()):
        for groups in ([(2, 4096)], [(2, 4096), (2, 4100)], []):
            with pytest.raises(ValueError, match="must sum to the step's decode batch"):
                inference.decode_step_ms(
                    LLAMA31_8B, A100, attention, 3, 4100, decode_groups=groups
                )
    assert not kernel.group_memo(LLAMA31_8B, 1)
