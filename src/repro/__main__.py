"""Command-line entry point: quick tours of the reproduction.

Usage::

    python -m repro devices                 # registered GPU table
    python -m repro demo                    # tiny numerics demo
    python -m repro sweep [--arch a100]     # kernel speedup sweep
    python -m repro experiment fig10        # one paper experiment + its claims
    python -m repro experiment all          # every experiment; exit 1 on a violated claim
    python -m repro serve-sim [--steps 50]  # continuous-batching simulation
    python -m repro serve-sim --model tiny --execute  # real token execution
    python -m repro serve-sim --prefix-cache --shared-prefix 0.5  # prefix caching
    python -m repro serve-sim --model tiny --execute --preemption swap \\
        --device-pages 16 --host-pages 48   # tiered KV offload
    python -m repro serve-sim --model tiny --execute --chaos 7 \\
        --device-pages 8 --host-pages 28 --max-batch 3 --requests 8 \\
        --rate 100000 --prompt-len 40 --output-len 60 --seed 3 \\
        --deadline-ms 6                     # fault injection + recovery proof
    python -m repro serve-sim --model tiny --execute --tp 2 --replicas 2 \\
        --router prefix_affinity --prefix-cache --shared-prefix 0.5 \\
        --prefix-groups 3                   # TP sharding + replica routing
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_devices() -> None:
    from repro.gpu.arch import GPU_REGISTRY

    header = (
        f"{'name':<14} {'gen':<10} {'SMs':>4} {'GB/s':>6} {'TC fp16':>8} "
        f"{'TC fp4':>7} {'mem GB':>7} {'wgmma':>6} {'fp4':>4}"
    )
    print(header)
    print("-" * len(header))
    for spec in GPU_REGISTRY.values():
        print(
            f"{spec.name:<14} {spec.generation:<10} {spec.sm_count:>4} "
            f"{spec.dram_bw_gbs:>6.0f} {spec.tc_fp16_tflops:>8.1f} "
            f"{spec.tc_fp4_tflops:>7.1f} {spec.memory_gb:>7.0f} "
            f"{str(spec.has_wgmma):>6} {str(spec.has_native_fp4):>4}"
        )


def _cmd_demo() -> None:
    from repro import BitDecodingConfig, get_arch
    from repro.core.attention import BitDecoding
    from repro.core.softmax import reference_attention

    rng = np.random.default_rng(0)
    engine = BitDecoding(BitDecodingConfig(bits=4), get_arch("a100"))
    k = rng.standard_normal((1, 2, 400, 64)).astype(np.float16)
    v = rng.standard_normal((1, 2, 400, 64)).astype(np.float16)
    cache = engine.prefill(k, v)
    q = rng.standard_normal((1, 1, 8, 64)).astype(np.float16)
    out = engine.decode(q, cache)
    ref = reference_attention(
        q[0, 0, 0:1].astype(np.float32), k[0, 0].astype(np.float32), v[0, 0].astype(np.float32)
    )
    print(f"cache: {cache.packed_len()} packed + {cache.res_len()} residual tokens")
    print(f"compression: {cache.compression_ratio():.2f}x")
    print(f"head-0 max error vs FP16: {np.abs(out[0, 0, 0] - ref[0]).max():.4f}")


def _cmd_sweep(arch: str) -> None:
    from repro import AttentionGeometry, BitDecodingConfig, get_arch
    from repro.baselines import FlashDecodingV2
    from repro.core.attention import BitDecoding
    from repro.core.arch_support import resolve_version

    spec = get_arch(arch)
    version = resolve_version(spec)
    config = (
        BitDecodingConfig(version="fp4")
        if version == "fp4"
        else BitDecodingConfig(bits=4, version=version)
    )
    engine = BitDecoding(config, spec)
    baseline = FlashDecodingV2(spec)
    print(f"{spec.name}: {engine.config.short_name} vs FP16 FlashDecoding-v2")
    for seq in (8192, 32768, 131072):
        geom = AttentionGeometry(1, 32, 8, seq, 128)
        ratio = baseline.decode_time_ms(geom) / engine.decode_time_ms(geom)
        print(f"  seq {seq:>7}: {ratio:.2f}x")


def _cmd_experiment(name: str) -> None:
    """Print an experiment's table and one verdict line per claim row."""
    from repro.bench.claims import EXPERIMENTS, evaluate

    if name not in ("all", *EXPERIMENTS):
        print(f"unknown experiment {name!r}; choose from {['all', *EXPERIMENTS]}")
        sys.exit(2)
    experiments, all_ok = {}, True
    for each in EXPERIMENTS if name == "all" else [name]:
        verdicts = evaluate([each], experiments)
        experiments[each].show()
        for verdict in verdicts:
            print(f"  {verdict}")
        all_ok &= all(verdict.ok for verdict in verdicts)
    if not all_ok:
        sys.exit(1)


def _reject(message: str) -> None:
    """An unsupported flag combination: one ``serve-sim:`` line, exit 2."""
    print(f"serve-sim: {message}")
    sys.exit(2)


def _reject_unsupported(args) -> None:
    """Every flag combination ``serve-sim`` does not support, in one place."""
    cluster = args.tp > 1 or args.replicas > 1
    plain = not args.execute and args.chaos is None
    tiers = (
        args.preemption != "recompute"
        or args.device_pages is not None
        or args.host_pages is not None
        or bool(args.disk_pages)
    )
    chaos_only = (args.deadline_ms, args.audit_every, args.max_heals)
    if args.chaos is None and any(value is not None for value in chaos_only):
        _reject("--deadline-ms, --audit-every and --max-heals only apply to --chaos runs")
    if args.tp < 1 or args.replicas < 1:
        _reject(f"--tp and --replicas must be >= 1 (got tp={args.tp}, replicas={args.replicas})")
    if args.replicas == 1 and args.router != "round_robin":
        _reject(f"--router {args.router} routes across replicas; pass --replicas > 1")
    if cluster and args.n_gpus not in (1, args.tp):
        _reject(
            f"--tp {args.tp} spans one replica's GPUs, so --n-gpus must equal the "
            f"tp degree (or be left at its default 1); got --n-gpus {args.n_gpus}"
        )
    if plain and args.pages is not None:
        _reject("--pages only applies to --execute runs")
    if plain and tiers:
        _reject("--preemption swap and the tier sizes only apply to --execute runs")


def _nr_pool(args, model, trace, nr: int, mode: str, tiered: bool) -> dict:
    """Validate a run over the N_r-paged INT4 stack; return its pool knobs.

    Executed, such a run allocates the model's weights for real (tens of
    GB of float32 at serving scale).  A request whose own context outgrows
    the pages a decode step must fit in would be silently rejected by the
    engine — a mystery shortfall in the completion counts; fail fast.
    """
    if args.page_size is not None or args.residual_window is not None:
        _reject(
            f"{mode} derives --page-size and --residual-window from the "
            "kernel's residual block size N_r; drop those flags"
        )
    if args.execute and model.param_count > 1e6:
        _reject(
            f"--execute runs real numerics and {model.name} has "
            f"{model.param_count / 1e9:.1f}B parameters; use a toy model "
            "(e.g. --model tiny)"
        )
    if not tiered:
        pool = dict(n_pages=96 if args.pages is None else args.pages)
        fit_flag, fit_pages = "--pages", pool["n_pages"]
    elif args.pages is not None or args.device_pages is None or args.host_pages is None:
        _reject(
            f"{mode} sizes the pool from the tier geometry: pass --device-pages "
            "and --host-pages (plus optional --disk-pages), not --pages"
        )
    else:
        pool = dict(
            preemption="swap",
            device_pages=args.device_pages,
            host_pages=args.host_pages,
            disk_pages=args.disk_pages,
        )
        fit_flag, fit_pages = "--device-pages", args.device_pages
    worst = max(trace, key=lambda r: r.total_len, default=None)
    need = -(-worst.total_len // nr) if worst is not None else 0
    if need > fit_pages:
        _reject(
            f"request {worst.req_id} needs {need} pages for its {worst.total_len}-token "
            f"context (prompt + output) but {fit_flag} is only {fit_pages}; it can "
            f"never complete, even alone — raise it to at least {need}"
        )
    return pool


def _engine_knobs(args, **extra) -> dict:
    """The scheduler knobs every serve-sim mode forwards to the engine."""
    return dict(
        max_batch=args.max_batch,
        max_steps=args.steps,
        prefill_chunk_tokens=args.prefill_chunk,
        **extra,
    )


def _emit(args, model, arch, payload: dict, lines, ok: bool = True) -> None:
    """Print one run (JSON payload or text lines); exit 1 if a check failed."""
    import json

    if args.json:
        print(json.dumps({"model": model.name, "arch": arch.name, **payload}, indent=2))
    else:
        print("\n".join(lines))
    if not ok:
        sys.exit(1)


def _serve_checked(args, model, arch, trace) -> None:
    """``--execute`` / ``--chaos`` / ``--tp`` / ``--replicas``: one run over the
    INT4 stack, judged by ``crosscheck`` (each feature in use adds its
    reference runs, report section and checks)."""
    from repro.faults import demo_fault_spec
    from repro.model.inference import decode_step_breakdown
    from repro.model.memory import int_format
    from repro.serving import DeadlinePolicy
    from repro.serving.crosscheck import crosscheck, int4_stack

    tp, replicas = args.tp, args.replicas
    chaos, cluster = args.chaos is not None, tp > 1 or replicas > 1
    swap = chaos or args.preemption == "swap"
    stack = int4_stack(model, arch)
    knobs = _engine_knobs(args, n_gpus=max(args.n_gpus, tp), tp=tp, prefix_cache=args.prefix_cache)
    if args.execute or chaos:
        mode = "--chaos" if chaos else "--preemption swap" if swap else "--execute"
        knobs.update(_nr_pool(args, model, trace, stack.nr, mode, tiered=swap))
        disk = f" + disk {args.disk_pages}" if args.disk_pages else ""
        pool = f"page {stack.nr} tok (= N_r), " + (
            f"device {args.device_pages} + host {args.host_pages}{disk} pages, swap preemption"
            if swap
            else f"{knobs['n_pages']} pages"
        )
    else:  # analytical cluster: serving-scale pages, pool derived from device memory
        window = 64 if args.residual_window is None else args.residual_window
        knobs.update(
            fmt=int_format(4, model, residual_window=window),
            page_size=64 if args.page_size is None else args.page_size,
        )
        pool = f"page {knobs['page_size']} tok"
    deadline_ms = audit_every = None
    if chaos:
        deadline_ms = args.deadline_ms
        if deadline_ms is None and args.execute:
            deadline_ms = 6.0  # the committed demo plan's shed pressure
        audit_every = 10 if args.audit_every is None else args.audit_every
        knobs.update(
            faults=demo_fault_spec(args.chaos),
            audit_every=audit_every,
            max_heals=5 if args.max_heals is None else args.max_heals,
            deadline_policy=(
                DeadlinePolicy(default_deadline_s=deadline_ms * 1e-3) if deadline_ms else None
            ),
        )
    result = crosscheck(
        stack,
        trace,
        replicas=replicas,
        policy=args.router,
        execute=args.execute,
        seed=args.seed,
        **knobs,
    )
    reports = result.reports
    report = reports["executed" if args.execute else "analytical"]
    payload = {
        "mode": "execute" if args.execute else "analytical",
        "page_size": knobs.get("page_size", stack.nr),
        "preemption": "swap" if swap else "recompute",
        "prefix_cache": args.prefix_cache,
        "prefill_chunk_tokens": args.prefill_chunk,
        "tp": tp,
        "replicas": replicas,
        "router": args.router,
        "chaos_seed": args.chaos,
        "deadline_ms": deadline_ms,
        "audit_every": audit_every,
        "checks": result.checks,
        "reports": {name: r.to_dict() for name, r in reports.items()},
    }
    features = [
        f"INT4 paged-bit, {pool}",
        cluster
        and f"tp {tp} x {replicas} replica{'s' if replicas != 1 else ''}, router {args.router}",
        args.prefix_cache and "prefix cache on",
        args.prefill_chunk and f"chunked prefill {args.prefill_chunk} tok/step",
        chaos and (f"deadline {deadline_ms:g} ms" if deadline_ms else "best-effort"),
        "executed" if args.execute else "analytical",
    ]
    lines = [
        f"serve-sim{f' --chaos {args.chaos}' if chaos else ''}: {model.name} on {arch.name} | "
        + ", ".join(filter(None, features))
    ]
    for label in ("analytical", "executed")[: 1 + args.execute]:
        r = reports[label]
        ran = "-" if r.executed_tokens is None else str(r.executed_tokens)
        lines.append(
            f"  {label:<10} generated {r.total_generated_tokens:>5} tok "
            f"(ran {ran:>5}), decode steps {r.decode_steps}, "
            f"preemptions {r.preemptions}, done {r.completed}"
        )
    if swap:
        lines.append(
            f"  offload: swap-outs {report.swap_outs}, "
            f"swap-ins {report.swap_ins}, faults {report.offload_faults}, "
            f"stall {report.offload_stall_s * 1e3:.2f} ms, "
            f"d2h {report.offload_d2h_bytes} B, h2d {report.offload_h2d_bytes} B"
        )
    if "recompute_pressured" in reports:  # the swap brackets ran (an undisturbed swap run)
        pressured, baseline = reports["recompute_pressured"], reports["recompute_unpressured"]
        lines.append(
            f"  throughput: swap {report.sustained_tokens_per_s:.1f} tok/s vs "
            f"recompute@device {pressured.sustained_tokens_per_s:.1f} tok/s vs "
            f"unpressured {baseline.sustained_tokens_per_s:.1f} tok/s"
        )
    if args.prefix_cache:
        lines.append(
            f"  prefix cache: hit rate {report.prefix_hit_rate:.3f} "
            f"({report.prefix_hit_tokens}/{report.prefix_probe_tokens} tok), "
            f"shared pages peak {report.shared_pages_peak}, "
            f"effective capacity {report.effective_capacity_pages} pages"
        )
    if chaos:
        lines += [
            f"  outcome: {report.completed} finished ({report.deadline_met} in "
            f"deadline), {report.shed} shed, {report.timed_out} timed out, "
            f"{report.failed} failed of {report.n_requests}",
            f"  faults: {report.transfer_retries} retries "
            f"({report.retry_backoff_s * 1e3:.3f} ms backoff), "
            f"{report.lost_pages} lost pages, {report.checksum_failures} "
            f"checksum failures, {report.slow_steps} slow steps",
            f"  recovery: {report.healed_pages} pages healed via "
            f"{report.healed_requests} request replays, {report.audits} audits clean",
            f"  goodput: {report.goodput_tokens_per_s:.1f} tok/s in-deadline vs "
            f"{report.sustained_tokens_per_s:.1f} tok/s generated",
        ]
    if cluster:

        def rounded(value, scale, digits):
            return value if value is None else round(value * scale, digits)

        lines += [
            f"  aggregate: {report.completed} done of {report.n_requests}, "
            f"{report.sustained_tokens_per_s:.1f} tok/s "
            f"(goodput {report.goodput_tokens_per_s:.1f}), "
            f"p99 ttft {rounded(report.p99_ttft_s, 1, 4)} s, "
            f"p99 tbt {rounded(report.p99_tbt_s, 1e3, 3)} ms",
            f"  routing: dispatch {report.dispatch_counts}, "
            f"imbalance {report.load_imbalance:.2f}, prefix groups "
            f"{report.prefix_groups_seen} ({report.prefix_groups_split} split), "
            f"cross-replica prefix misses {report.cross_replica_prefix_misses}",
        ]
        if tp > 1:
            peak = max((r.peak_resident_batch for r in report.per_replica), default=0) or 1
            seq = max((r.total_len for r in trace), default=1)
            sharded = decode_step_breakdown(model, arch, stack.kernel, peak, seq, n_gpus=tp, tp=tp)
            full = decode_step_breakdown(model, arch, stack.kernel, peak, seq)
            payload["tp_pricing"] = {
                "allreduce_tax_ms": sharded.comm_ms,
                "rank_attention_ms": sharded.attention_ms,
                "full_attention_ms": full.attention_ms,
            }
            lines.append(
                f"  tp pricing: all-reduce tax {sharded.comm_ms:.4f} ms/step, "
                f"rank attention {sharded.attention_ms:.4f} ms vs full "
                f"{full.attention_ms:.4f} ms (batch {peak}, seq {seq})"
            )
        lines += [
            f"  replica {i}: {report.dispatch_counts[i]} requests, "
            f"done {r.completed}, {r.sustained_tokens_per_s:.1f} tok/s, "
            f"preemptions {r.preemptions}"
            + (f", swap-outs {r.swap_outs}" if swap else "")
            + (f", prefix hit rate {r.prefix_hit_rate:.3f}" if args.prefix_cache else "")
            for i, r in enumerate(report.per_replica)
        ]
    lines += [f"  check {name}: {value}" for name, value in result.checks.items()]
    _emit(args, model, arch, payload, lines, result.ok)


def _serve_formats(args, model, arch, trace) -> None:
    """The default analytical FP16 vs INT4 vs INT2 comparison table."""
    from repro.serving import compare_formats, paper_serving_stacks

    page_size = 64 if args.page_size is None else args.page_size
    residual_window = 64 if args.residual_window is None else args.residual_window
    reports = compare_formats(
        model,
        arch,
        paper_serving_stacks(model, arch, residual_window=residual_window),
        trace,
        page_size=page_size,
        n_gpus=args.n_gpus,
        prefix_cache=args.prefix_cache,
        **_engine_knobs(args),
    )
    payload = {
        "requests": args.requests,
        "rate_rps": args.rate,
        "seed": args.seed,
        "prefill_chunk_tokens": args.prefill_chunk,
        "reports": [r.to_dict() for r in reports],
    }

    def cell(value, scale=1.0, digits=2) -> str:
        return f"{'-':>10}" if value is None else f"{value * scale:10.{digits}f}"

    header = (
        f"{'format':<6} {'pages':>7} {'peak':>5} {'preempt':>8} {'done':>5} "
        f"{'tok/s':>9} {'p50 ttft s':>10} {'p99 ttft s':>10} "
        f"{'p99 tbt ms':>10} {'p99 lat s':>10}"
        + (f" {'hit %':>6} {'eff cap':>8}" if args.prefix_cache else "")
    )
    lines = [
        f"serve-sim: {model.name} on {arch.name} | {args.requests} requests, "
        f"Poisson {args.rate:.1f} req/s, seed {args.seed}",
        f"prompt {args.prompt_len} tok, output {args.output_len} tok, "
        f"page {page_size} tok, max batch {args.max_batch}"
        + (f", step cap {args.steps}" if args.steps else "")
        + (
            f", chunked prefill {args.prefill_chunk} tok/step"
            if args.prefill_chunk
            else ", whole-prompt prefill"
        )
        + (
            f", prefix cache on ({args.shared_prefix:.0%} shared, "
            f"{args.prefix_groups} group{'s' if args.prefix_groups != 1 else ''})"
            if args.prefix_cache
            else ""
        ),
        "",
        header,
        "-" * len(header),
    ]
    for r in reports:
        lines.append(
            f"{r.format_name:<6} {r.n_pages:>7} {r.peak_resident_batch:>5} "
            f"{r.preemptions:>8} {r.completed:>5} {r.sustained_tokens_per_s:>9.1f} "
            f"{cell(r.p50_ttft_s)} {cell(r.p99_ttft_s)} "
            f"{cell(r.p99_tbt_s, 1e3, 1)} {cell(r.p99_latency_s)}"
            + (
                f" {r.prefix_hit_rate * 100:>6.1f} {r.effective_capacity_pages:>8}"
                if args.prefix_cache
                else ""
            )
        )
    _emit(args, model, arch, payload, lines)


def _cmd_serve_sim(args) -> None:
    """Parse → validate → call the library → print."""
    from repro.gpu.arch import get_arch
    from repro.model.config import get_model
    from repro.model.serving import ServingOOMError
    from repro.serving import poisson_trace

    try:
        model = get_model(args.model)
        arch = get_arch(args.arch)
        trace = poisson_trace(
            args.requests,
            args.rate,
            args.prompt_len,
            args.output_len,
            seed=args.seed,
            prompt_jitter=args.prompt_jitter,
            output_jitter=args.output_jitter,
            shared_prefix_fraction=args.shared_prefix,
            prefix_groups=args.prefix_groups,
        )
        _reject_unsupported(args)
        checked = args.execute or args.chaos is not None or args.tp > 1 or args.replicas > 1
        (_serve_checked if checked else _serve_formats)(args, model, arch, trace)
    except (KeyError, ValueError, ServingOOMError) as err:
        _reject(err.args[0] if err.args else err)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("devices")
    sub.add_parser("demo")
    sweep = sub.add_parser("sweep")
    sweep.add_argument("--arch", default="a100")
    experiment = sub.add_parser("experiment")
    experiment.add_argument("name")
    serve = sub.add_parser(
        "serve-sim",
        help="continuous-batching simulation: FP16 vs INT4 vs INT2 serving",
    )
    serve.add_argument("--model", default="llama-3.1-8b")
    serve.add_argument("--arch", default="a100")
    serve.add_argument("--requests", type=int, default=96)
    serve.add_argument("--rate", type=float, default=32.0, help="Poisson req/s")
    serve.add_argument("--prompt-len", type=int, default=8192)
    serve.add_argument("--output-len", type=int, default=256)
    serve.add_argument("--prompt-jitter", type=float, default=0.0)
    serve.add_argument("--output-jitter", type=float, default=0.0)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--page-size",
        type=int,
        help="pool page size in tokens (default 64; incompatible with "
        "--execute, which uses N_r)",
    )
    serve.add_argument("--max-batch", type=int, default=384)
    serve.add_argument(
        "--residual-window",
        type=int,
        help="FP16 residual window tokens per sequence (default 64; "
        "incompatible with --execute, which uses N_r)",
    )
    serve.add_argument("--n-gpus", type=int, default=1)
    serve.add_argument(
        "--tp",
        type=int,
        default=1,
        help="tensor-parallel degree per engine: the KV-head space is "
        "sharded across tp ranks behind shared block tables (must divide "
        "the model's KV-head count; pricing pays one rank's attention "
        "plus the all-reduce tax)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="data-parallel engine replicas behind the request router",
    )
    serve.add_argument(
        "--router",
        choices=("round_robin", "least_loaded", "prefix_affinity"),
        default="round_robin",
        help="dispatch policy across --replicas engines: round_robin, "
        "least_loaded (fewest in-flight requests), or prefix_affinity "
        "(shared-prefix groups land on the replica whose prefix cache "
        "already holds their pages)",
    )
    serve.add_argument("--steps", type=int, help="scheduler step cap")
    serve.add_argument(
        "--prefill-chunk",
        type=int,
        help="chunked-prefill token budget per step (None = whole-prompt prefill)",
    )
    serve.add_argument(
        "--execute",
        action="store_true",
        help="run real tokens through TinyTransformer + the paged low-bit "
        "cache (use --model tiny) and cross-check every engine feature in "
        "use against its reference run (repro.serving.crosscheck)",
    )
    serve.add_argument(
        "--pages",
        type=int,
        help="page-pool size for --execute runs (pages of N_r tokens; default 96)",
    )
    serve.add_argument(
        "--preemption",
        choices=("recompute", "swap"),
        default="recompute",
        help="page-pressure discipline for --execute runs: recompute "
        "releases the victim's pages and replays its prefill; swap demotes "
        "them to the host tier and promotes them back bit-exactly",
    )
    serve.add_argument(
        "--device-pages",
        type=int,
        help="device-tier frames under --preemption swap (the decode "
        "working set must fit here at once)",
    )
    serve.add_argument(
        "--host-pages",
        type=int,
        help="host-tier frames backing the device tier under --preemption swap",
    )
    serve.add_argument(
        "--disk-pages",
        type=int,
        default=0,
        help="modeled NVMe frames behind the host tier (default 0)",
    )
    serve.add_argument(
        "--prefix-cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="probe a radix-style prefix cache at admission and share hit "
        "pages copy-on-write",
    )
    serve.add_argument(
        "--shared-prefix",
        type=float,
        default=0.0,
        help="fraction of every prompt that is a common prefix within its "
        "prefix group (what the cache can hit; default 0.0)",
    )
    serve.add_argument(
        "--prefix-groups",
        type=int,
        default=1,
        help="number of disjoint shared-prefix families in the trace",
    )
    serve.add_argument(
        "--chaos",
        type=int,
        metavar="SEED",
        help="arm the demo fault plan seeded here (transfer retries, lost "
        "pages, corruption, latency spikes, slow steps) over a swap-tiered "
        "INT4 stack",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        help="per-request completion deadline for --chaos runs (shed + "
        "timeout + goodput; --execute defaults to the committed demo's 6 ms)",
    )
    serve.add_argument(
        "--audit-every",
        type=int,
        help="invariant-audit cadence in scheduler steps for --chaos runs "
        "(default 10)",
    )
    serve.add_argument(
        "--max-heals",
        type=int,
        help="replay budget per request for --chaos runs (default 5); a "
        "sequence the plan keeps damaging past this many heals ends FAILED",
    )
    serve.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    if args.command == "devices":
        _cmd_devices()
    elif args.command == "demo":
        _cmd_demo()
    elif args.command == "sweep":
        _cmd_sweep(args.arch)
    elif args.command == "experiment":
        _cmd_experiment(args.name)
    elif args.command == "serve-sim":
        _cmd_serve_sim(args)


if __name__ == "__main__":
    main()
