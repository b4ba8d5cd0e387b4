"""The five named workloads of the end-to-end benchmark.

Each workload splits into ``build`` (set-up: synthesize the inputs from
the seed, construct engines and pools), ``run`` (the timed region) and
``summarize``/``check`` (modeled-clock metrics, counters and correctness,
all outside the timed region).  The program under test only ever sees the
generated inputs.

What the seed feeds.  The *shape* of every workload — request count,
lengths, arrival pattern, fault plan — is part of its definition and is
generated from :data:`STRUCTURE_SEED`, because the serving engine is a
small discrete system: a 5 % change in one prompt length moves a modeled
p90 by 15 %, which would drown any change a later PR makes.  ``--seed``
feeds everything else: model weights and token content
(``execute_seed``), the kernel tensors, the kernel context's residual
fill, and a sub-microsecond offset on every arrival instant (enough to
tell two seeds apart on the modeled clock, far too small to move a
scheduling decision).

All arrival schedules are open-loop on the modeled clock: TTFT is timed
from the arrival instant.  On the host clock every run is a batch job.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List

import numpy as np

from repro.attn.paged import PagedBitBackend
from repro.attn.reference import chunked_causal_attention
from repro.baselines.flash_decoding import FlashDecodingV2
from repro.bench.figures import FIG14_PAPER
from repro.cluster.router import Router
from repro.core.attention import BitDecoding
from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.packing_kernel import FUSED_NUMERICS_TOLERANCE
from repro.core.residual_kernel import build_prefill_quant_launch
from repro.faults.plan import FaultSpec
from repro.gpu.arch import get_arch
from repro.gpu.kernel import simulate_kernel
from repro.model.config import LLAMA31_8B, ModelConfig
from repro.model.inference import decode_step_ms, prefill_time_ms
from repro.model.memory import int_format
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig
from repro.serving.request import DeadlinePolicy, poisson_trace

ARCH = "a100"
#: ``tiny`` (head_dim 16) makes every workload pure interpreter overhead
#: and hides numerics gains; this model keeps the GEMMs and the packed
#: tile walk visible while one scheduler step still costs milliseconds.
BENCH_MODEL = ModelConfig(
    "bench-gqa", n_layers=4, hq=8, hkv=2, head_dim=64, hidden=512, intermediate=1024, vocab=256
)
#: wn=1 keeps N_r (= page size in execute mode) at 32 tokens.
PAGED_KERNEL = BitDecodingConfig(bits=4, wn=1)
#: Seed of every workload's shape (lengths, arrival pattern, fault plan).
STRUCTURE_SEED = 0
#: Upper bound of the seed-drawn offset added to each successive arrival.
ARRIVAL_JITTER_S = 1e-8
#: "All at once": the whole burst lands inside the first modeled step.
BURST_RPS = 1e9
#: Chosen so the plan loses a page, corrupts a page, retries and slows a
#: step on the ``tiered_chaos`` schedule (``demo_fault_spec`` rates kill
#: most requests at this scale).
FAULT_PLAN_SEED = 12


@dataclass
class Summary:
    """What one finished run reports, besides its host times."""

    #: Modeled-clock end-to-end metrics (exact run to run for one seed).
    sim: Dict[str, float]
    #: Sample count behind each percentile metric.
    samples: Dict[str, int]
    attempted: int
    failed: int
    #: SHA-256 over the decoded outputs; two runs of one seed must agree.
    digest: str
    #: Per-layer counters read from the reports, by metric name.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Paper figure beside ``sim_speedup_vs_fp16``, or "unvalidated".
    anchor: str = "unvalidated"


def _percentiles(ttfts_s: List[float], tbts_s: List[float]):
    sim = {
        "sim_ttft_ms_p50": float(np.percentile(ttfts_s, 50)) * 1e3,
        "sim_ttft_ms_p90": float(np.percentile(ttfts_s, 90)) * 1e3,
        "sim_tbt_ms_p50": float(np.percentile(tbts_s, 50)) * 1e3,
        "sim_tbt_ms_p99": float(np.percentile(tbts_s, 99)) * 1e3,
    }
    samples = {name: len(ttfts_s if "ttft" in name else tbts_s) for name in sim}
    return sim, samples


def _jittered_arrivals(requests, seed: int):
    """Shift each arrival by a cumulative seed-drawn offset (order kept)."""
    rng = np.random.default_rng([seed, 0xA7])
    offsets = np.cumsum(rng.uniform(0, ARRIVAL_JITTER_S, len(requests)))
    return [replace(r, arrival_s=r.arrival_s + float(o)) for r, o in zip(requests, offsets)]


def _engine_samples(engines):
    ttfts = [
        lc.first_token_s - lc.request.arrival_s
        for engine in engines
        for lc in engine.lifecycles
        if lc.first_token_s is not None
    ]
    tbts = [s for engine in engines for s in engine.tbt_samples]
    return ttfts, tbts


def _speedup_vs_fp16(model, arch, kernel, batch: int, seq_len: int, n_gpus: int, tp: int) -> float:
    fp16 = decode_step_ms(model, arch, FlashDecodingV2(arch), batch, seq_len, n_gpus, tp=tp)
    return fp16 / decode_step_ms(model, arch, kernel, batch, seq_len, n_gpus, tp=tp)


def _serving_layers(reports) -> Dict[str, float]:
    """Per-layer counters of one or more ``ServingReport``s, summed."""

    def total(name: str) -> float:
        return sum(getattr(r, name) for r in reports)

    decode_steps = total("decode_steps")
    damaged = total("lost_pages") + total("checksum_failures")
    probed = total("prefix_probe_tokens")
    return {
        "serving.steps": total("prefill_steps") + decode_steps - total("mixed_steps"),
        "serving.batch_mean": total("total_generated_tokens") / decode_steps,
        "serving.preemptions": total("preemptions"),
        "pages.prefix.hit_share": total("prefix_hit_tokens") / probed if probed else 0.0,
        "pages.prefix.shared_pages_peak": max(r.shared_pages_peak for r in reports),
        "pages.tiers.swap_outs": total("swap_outs"),
        "pages.tiers.swap_ins": total("swap_ins"),
        "pages.tiers.moved_bytes": (
            total("offload_h2d_bytes") + total("offload_d2h_bytes") + total("offload_disk_bytes")
        ),
        "pages.tiers.fault_stall_ms": total("offload_stall_s") * 1e3,
        "pages.tiers.prefetch_overlapped_ms": total("offload_overlapped_s") * 1e3,
        "faults.audits": total("audits"),
        "faults.retries": total("transfer_retries"),
        "faults.healed_pages": total("healed_pages"),
        "faults.healed_requests": total("healed_requests"),
        "faults.heal_success_share": total("healed_pages") / damaged if damaged else 0.0,
    }


#: Counters an executed run must share with its analytical twin.
TWIN_FIELDS = (
    "total_generated_tokens",
    "prefill_steps",
    "decode_steps",
    "mixed_steps",
    "preemptions",
    "completed",
    "swap_outs",
    "swap_ins",
    "transfer_retries",
    "lost_pages",
    "checksum_failures",
    "healed_pages",
    "healed_requests",
    "slow_steps",
    "shed",
    "timed_out",
    "failed",
)


@dataclass
class EngineWorkload:
    """One executed single-engine trace over the paged INT4 stack."""

    #: ``poisson_trace`` arguments (the seed is :data:`STRUCTURE_SEED`).
    trace: dict
    #: ``EngineConfig`` arguments beyond the shared stack.
    engine: dict
    #: Report counters that must reach at least this value, or the
    #: workload no longer exercises the path it exists for.
    expect_min: Dict[str, int] = field(default_factory=dict)

    @property
    def sizes(self) -> dict:
        return {"trace": self.trace, "engine": self.engine, "model": BENCH_MODEL.name}

    def _config(self, kernel, **mode) -> EngineConfig:
        nr = PAGED_KERNEL.residual_block_size
        return EngineConfig(
            model=BENCH_MODEL,
            arch=kernel.arch,
            fmt=int_format(4, BENCH_MODEL, residual_window=nr),
            page_size=nr,
            **self.engine,
            **mode,
        )

    def build(self, seed: int) -> dict:
        requests = _jittered_arrivals(poisson_trace(seed=STRUCTURE_SEED, **self.trace), seed)
        kernel = BitDecoding(PAGED_KERNEL, get_arch(ARCH))
        config = self._config(
            kernel, backend=PagedBitBackend(kernel), execute=True, execute_seed=seed
        )
        return {
            "requests": requests,
            "kernel": kernel,
            "engine": ContinuousBatchingEngine(config, requests),
        }

    def run(self, state: dict) -> None:
        state["report"] = state["engine"].run()

    def summarize(self, state: dict) -> Summary:
        engine, report = state["engine"], state["report"]
        sim, samples = _percentiles(*_engine_samples([engine]))
        sim["sim_tok_per_s"] = report.sustained_tokens_per_s
        sim["sim_goodput_tok_per_s"] = report.goodput_tokens_per_s
        sim["sim_speedup_vs_fp16"] = _speedup_vs_fp16(
            BENCH_MODEL,
            state["kernel"].arch,
            state["kernel"],
            report.peak_resident_batch,
            max(r.total_len for r in state["requests"]),
            n_gpus=1,
            tp=1,
        )
        sha = hashlib.sha256()
        for req_id, steps in sorted(engine._runner.decoded.items()):
            sha.update(str(req_id).encode())
            for hidden in steps:
                sha.update(hidden.tobytes())
        return Summary(
            sim=sim,
            samples=samples,
            attempted=report.n_requests,
            failed=report.n_requests - report.completed,
            digest=sha.hexdigest(),
            layers=_serving_layers([report]),
        )

    def check(self, state: dict) -> List[str]:
        """Executed schedule must equal its analytical twin's, count for count."""
        executed = state["report"]
        twin = ContinuousBatchingEngine(
            self._config(state["kernel"], attention=state["kernel"]), state["requests"]
        ).run()
        problems = [
            f"{name}: executed {getattr(executed, name)} != analytical {getattr(twin, name)}"
            for name in TWIN_FIELDS
            if getattr(executed, name) != getattr(twin, name)
        ]
        if executed.executed_tokens != executed.total_generated_tokens:
            problems.append(
                f"executed {executed.executed_tokens} tokens, scheduled "
                f"{executed.total_generated_tokens}"
            )
        if executed.completed != executed.n_requests:
            problems.append(f"completed {executed.completed} of {executed.n_requests} requests")
        if executed.healed_pages != executed.lost_pages + executed.checksum_failures:
            problems.append(
                f"{executed.lost_pages} lost + {executed.checksum_failures} corrupt pages, "
                f"only {executed.healed_pages} healed"
            )
        problems += [
            f"{name} = {getattr(executed, name)}, expected >= {floor}"
            for name, floor in self.expect_min.items()
            if getattr(executed, name) < floor
        ]
        return problems


#: The cluster every ``cluster_scale`` run routes over.
CLUSTER = dict(replicas=2, policy="prefix_affinity")
CLUSTER_ENGINE = dict(page_size=64, prefix_cache=True, prefill_chunk_tokens=512, tp=2, n_gpus=2)


@dataclass
class ClusterWorkload:
    """Analytical two-replica router over LLaMA-3.1-8B INT4: zero numerics."""

    trace: dict

    @property
    def sizes(self) -> dict:
        return {"trace": self.trace, **CLUSTER, **CLUSTER_ENGINE, "model": LLAMA31_8B.name}

    def build(self, seed: int) -> dict:
        requests = _jittered_arrivals(poisson_trace(seed=STRUCTURE_SEED, **self.trace), seed)
        kernel = BitDecoding(PAGED_KERNEL, get_arch(ARCH))
        config = EngineConfig(
            model=LLAMA31_8B,
            arch=kernel.arch,
            fmt=int_format(4, LLAMA31_8B, residual_window=CLUSTER_ENGINE["page_size"]),
            attention=kernel,
            **CLUSTER_ENGINE,
        )
        return {
            "requests": requests,
            "kernel": kernel,
            "router": Router(config, requests, **CLUSTER),
        }

    def run(self, state: dict) -> None:
        state["report"] = state["router"].run()

    def summarize(self, state: dict) -> Summary:
        router, report = state["router"], state["report"]
        sim, samples = _percentiles(*_engine_samples(router.engines))
        sim["sim_tok_per_s"] = report.sustained_tokens_per_s
        sim["sim_goodput_tok_per_s"] = report.goodput_tokens_per_s
        sim["sim_speedup_vs_fp16"] = _speedup_vs_fp16(
            LLAMA31_8B,
            state["kernel"].arch,
            state["kernel"],
            max(r.peak_resident_batch for r in report.per_replica),
            max(r.total_len for r in state["requests"]),
            n_gpus=CLUSTER_ENGINE["n_gpus"],
            tp=CLUSTER_ENGINE["tp"],
        )
        # No tokens are decoded; the digest covers the simulated outcome.
        sha = hashlib.sha256()
        for engine in router.engines:
            for lc in engine.lifecycles:
                sha.update(repr((lc.request.req_id, lc.first_token_s, lc.finish_s)).encode())
        sha.update(repr(sorted(router.dispatch_log.items())).encode())
        dispatches = sum(report.dispatch_counts)
        layers = _serving_layers(report.per_replica)
        layers.update(
            {
                "cluster.dispatches": dispatches,
                "cluster.affinity_hit_share": 1.0 - report.cross_replica_prefix_misses / dispatches,
                "cluster.load_imbalance": report.load_imbalance,
            }
        )
        return Summary(
            sim=sim,
            samples=samples,
            attempted=len(state["requests"]),
            failed=len(state["requests"]) - report.completed,
            digest=sha.hexdigest(),
            layers=layers,
        )

    def check(self, state: dict) -> List[str]:
        """Every request dispatched exactly once and completed."""
        router, report = state["router"], state["report"]
        want = sorted(r.req_id for r in state["requests"])
        held = sorted(lc.request.req_id for e in router.engines for lc in e.lifecycles)
        problems = []
        if sorted(router.dispatch_log) != want or held != want:
            problems.append("requests were not dispatched exactly once")
        if sum(report.dispatch_counts) != len(want):
            problems.append(f"{sum(report.dispatch_counts)} dispatches for {len(want)} requests")
        if report.completed != len(want):
            problems.append(f"completed {report.completed} of {len(want)} requests")
        return problems


def _relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    """The ``FUSED_NUMERICS_TOLERANCE`` measure: max gap over max(1, max|want|)."""
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


#: LLaMA-3.1-8B attention shape.
KERNEL_HQ, KERNEL_HKV, KERNEL_HEAD_DIM = 32, 8, 128
#: Tokens the kernel prefill stops short of its nominal context (before
#: the seed's 0..7-token draw): leaves the FP16 residual 100..107 rows
#: full, so the N_r=128 block flushes about 25 and 153 steps in.
KERNEL_LEAD = 156


@dataclass
class KernelWorkload:
    """Single-batch decode over a long contiguous low-bit cache."""

    #: Nominal context; the prefill is ``KERNEL_LEAD`` shorter.
    context: int
    steps: int
    #: Every ``check_every``-th step (and each flush step) is compared
    #: against exact attention over the reconstructed cache.
    check_every: int

    @property
    def sizes(self) -> dict:
        return {
            "context": self.context,
            "steps": self.steps,
            "hq": KERNEL_HQ,
            "hkv": KERNEL_HKV,
            "head_dim": KERNEL_HEAD_DIM,
        }

    @staticmethod
    def _geometry(seq_len: int) -> AttentionGeometry:
        return AttentionGeometry(1, KERNEL_HQ, KERNEL_HKV, seq_len, KERNEL_HEAD_DIM)

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 0x6B])
        prefill_len = self.context - KERNEL_LEAD + int(rng.integers(0, 8))

        def fp16(*shape):
            return rng.standard_normal(shape, dtype=np.float32).astype(np.float16)

        return {
            "engine": BitDecoding(BitDecodingConfig(bits=4), get_arch(ARCH)),
            "k": fp16(1, KERNEL_HKV, prefill_len, KERNEL_HEAD_DIM),
            "v": fp16(1, KERNEL_HKV, prefill_len, KERNEL_HEAD_DIM),
            "q": rng.standard_normal(
                (self.steps, 1, 1, KERNEL_HQ, KERNEL_HEAD_DIM), dtype=np.float32
            ),
            "k_new": fp16(self.steps, 1, KERNEL_HKV, KERNEL_HEAD_DIM),
            "v_new": fp16(self.steps, 1, KERNEL_HKV, KERNEL_HEAD_DIM),
        }

    def run(self, state: dict) -> None:
        engine = state["engine"]
        cache = engine.prefill(state["k"], state["v"])
        outs = []
        for q, k_new, v_new in zip(state["q"], state["k_new"], state["v_new"]):
            cache.append_token(k_new, v_new)
            outs.append(engine.decode(q, cache))
        state["cache"], state["outs"] = cache, outs

    def summarize(self, state: dict) -> Summary:
        engine, cache = state["engine"], state["cache"]
        nr = engine.config.residual_block_size
        prefill_len = state["k"].shape[2]
        # One modeled latency per decode step, at the step's own residual
        # fill; the step that fills the block also pays the fused flush.
        step_ms = []
        for seq_len in range(prefill_len + 1, prefill_len + self.steps + 1):
            fill = seq_len % nr or nr
            step_ms.append(
                engine.decode_time_ms(self._geometry(seq_len), res_len=fill, flush=fill == nr)
            )
        quant_ms = simulate_kernel(
            engine.arch,
            build_prefill_quant_launch(self._geometry(prefill_len), engine.config, engine.arch),
        ).time_ms
        ttft_s = (
            prefill_time_ms(LLAMA31_8B, engine.arch, prefill_len) + LLAMA31_8B.n_layers * quant_ms
        ) * 1e-3
        sim, samples = _percentiles([ttft_s], [ms * 1e-3 for ms in step_ms])
        sim["sim_tok_per_s"] = self.steps / (sum(step_ms) * 1e-3)
        sim["sim_goodput_tok_per_s"] = sim["sim_tok_per_s"]
        geom = self._geometry(self.context)
        sim["sim_speedup_vs_fp16"] = FlashDecodingV2(engine.arch).decode_time_ms(
            geom
        ) / engine.decode_time_ms(geom)
        paper = FIG14_PAPER.get(self.context)
        sha = hashlib.sha256()
        for out in state["outs"]:
            sha.update(out.tobytes())
        return Summary(
            sim=sim,
            samples=samples,
            attempted=self.steps,
            failed=state.get("bad_steps", 0),
            digest=sha.hexdigest(),
            layers={
                # Computed from tensor sizes, not measured: the cache a
                # decode step reads, plus its FP16 query and output rows.
                "core.bytes_per_step": cache.total_nbytes + 2 * KERNEL_HQ * KERNEL_HEAD_DIM * 2,
                "core.compression_ratio": cache.compression_ratio(),
                "core.attn_rel_err": state.get("attn_rel_err", 0.0),
            },
            anchor=(
                f"paper Fig. 14: {paper[0] / paper[2]:.2f}x at {self.context}"
                if paper
                else "unvalidated"
            ),
        )

    def check(self, state: dict) -> List[str]:
        """Replay the steps untimed; sample them against exact attention.

        The fused kernel must stay within ``FUSED_NUMERICS_TOLERANCE`` of
        ``attn.reference`` over the *reconstructed* cache (same quantized
        values, exact softmax); every replayed output must equal the timed
        run's bit for bit.  ``core.attn_rel_err`` is the separate accuracy
        figure: the last step against exact attention over the FP16 K/V.
        """
        engine = state["engine"]
        tolerance = FUSED_NUMERICS_TOLERANCE["int"]
        cache = engine.prefill(state["k"], state["v"])
        problems, bad = [], 0
        for i, (q, k_new, v_new) in enumerate(zip(state["q"], state["k_new"], state["v_new"])):
            flushed = cache.append_token(k_new, v_new)
            out = engine.decode(q, cache)
            if not np.array_equal(out, state["outs"][i]):
                problems.append(f"step {i}: replayed output differs from the timed run")
            if flushed or i % self.check_every == 0 or i == self.steps - 1:
                k_hat, v_hat = cache.dequant_kv()
                k_res, v_res = cache.residual_kv()
                k_all = np.concatenate([k_hat, k_res.astype(np.float32)], axis=2)
                v_all = np.concatenate([v_hat, v_res.astype(np.float32)], axis=2)
                want = chunked_causal_attention(
                    q, k_all[:, :, :-1], v_all[:, :, :-1], k_all[:, :, -1:], v_all[:, :, -1:]
                )
                gap = _relative_gap(out, want)
                if gap > tolerance:
                    bad += 1
                    problems.append(f"step {i}: {gap:.2e} from exact attention (> {tolerance})")
        k_full = np.concatenate([state["k"], np.moveaxis(state["k_new"][:, 0], 0, 1)[None]], axis=2)
        v_full = np.concatenate([state["v"], np.moveaxis(state["v_new"][:, 0], 0, 1)[None]], axis=2)
        exact = chunked_causal_attention(
            state["q"][-1],
            k_full[:, :, :-1].astype(np.float32),
            v_full[:, :, :-1].astype(np.float32),
            k_full[:, :, -1:].astype(np.float32),
            v_full[:, :, -1:].astype(np.float32),
        )
        state["attn_rel_err"] = float(
            np.linalg.norm(state["outs"][-1] - exact) / np.linalg.norm(exact)
        )
        state["bad_steps"] = bad
        return problems


def _workloads(small: bool) -> Dict[str, object]:
    """The five workloads at benchmark size, or scaled down (warm-up, tests)."""

    def n(full, tiny):
        return tiny if small else full

    burst = dict(rate_rps=BURST_RPS)
    return {
        "kernel_longctx": KernelWorkload(
            context=n(4096, 512), steps=n(260, 40), check_every=n(32, 8)
        ),
        "decode_burst": EngineWorkload(
            trace=dict(n_requests=n(16, 6), prompt_len=64, output_len=n(64, 8), **burst),
            engine=dict(n_pages=n(96, 36), max_batch=16),
        ),
        "prefill_shared": EngineWorkload(
            trace=dict(
                n_requests=n(12, 6),
                prompt_len=n(384, 128),
                output_len=n(16, 6),
                prompt_jitter=0.25,
                output_jitter=0.5,
                shared_prefix_fraction=0.5,
                prefix_groups=3,
                **burst,
            ),
            engine=dict(
                n_pages=n(56, 48), max_batch=8, prefix_cache=True, prefill_chunk_tokens=n(128, 64)
            ),
            expect_min={} if small else {"preemptions": 1, "prefix_hit_tokens": 1},
        ),
        "tiered_chaos": EngineWorkload(
            trace=dict(n_requests=n(12, 6), prompt_len=n(128, 64), output_len=n(64, 24), **burst),
            engine=dict(
                max_batch=6,
                preemption="swap",
                device_pages=n(24, 14),
                host_pages=n(200, 60),
                faults=FaultSpec(
                    seed=FAULT_PLAN_SEED,
                    transfer_fault_rate=0.04,
                    permanent_fraction=0.1,
                    latency_spike_rate=0.04,
                    corruption_rate=0.005,
                    slow_step_rate=0.04,
                ),
                # Generous on purpose: the deadline machinery runs every
                # step, but no request is shed or timed out — the
                # workload must finish everything it attempts.
                deadline_policy=DeadlinePolicy(default_deadline_s=10.0, shed_on_admission=False),
                audit_every=10,
            ),
            expect_min=(
                {}
                if small
                else {"transfer_retries": 1, "healed_pages": 1, "slow_steps": 1, "swap_outs": 1}
            ),
        ),
        "cluster_scale": ClusterWorkload(
            trace=dict(
                n_requests=n(150, 24),
                rate_rps=100.0,
                prompt_len=2048,
                output_len=n(128, 16),
                prompt_jitter=0.5,
                output_jitter=0.5,
                shared_prefix_fraction=0.5,
                prefix_groups=15,
            ),
        ),
    }


WORKLOADS = _workloads(small=False)
SMALL_WORKLOADS = _workloads(small=True)
