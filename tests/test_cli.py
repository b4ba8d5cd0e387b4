"""CLI entry point (`python -m repro`)."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_devices(self, capsys):
        main(["devices"])
        out = capsys.readouterr().out
        for name in ("a100", "rtx4090", "h100", "rtx5090", "rtx_pro_6000"):
            assert name in out

    def test_demo(self, capsys):
        main(["demo"])
        out = capsys.readouterr().out
        assert "compression" in out
        assert "max error" in out

    def test_sweep(self, capsys):
        main(["sweep", "--arch", "rtx4090"])
        out = capsys.readouterr().out
        assert "BitDecoding" in out
        assert "131072" in out

    def test_experiment(self, capsys):
        main(["experiment", "table2"])
        out = capsys.readouterr().out
        assert "Marlin" in out
        assert "  decode ms, BitDecoding: " in out and out.rstrip().endswith("— ok")

    def test_experiment_serving_chaos_prints_its_verdicts(self, capsys):
        main(["experiment", "serving-chaos"])  # would SystemExit(1) on a False verdict
        out = capsys.readouterr().out
        assert "== serving-chaos: Chaos plan 7" in out
        for line in ("failed requests: 0 in [0, 0]", "check exercised_shed: 1 in [1, 1]"):
            assert f"  {line} — ok\n" in out

    def test_experiment_all_holds_every_row(self, capsys):
        from repro.bench.claims import CLAIMS

        main(["experiment", "all"])  # would SystemExit(1) on a violated row
        out = capsys.readouterr().out
        assert out.count("— ok\n") == sum(map(len, CLAIMS.values()))
        assert "VIOLATED" not in out

    def test_experiment_exits_1_on_a_violated_row(self, capsys, monkeypatch):
        from repro.bench import claims

        shut = claims.Claim("impossible", claims.at("Marlin", "Prefill"), lo=1.0, hi=0.0)
        monkeypatch.setitem(claims.CLAIMS, "table2", [shut])
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "table2"])
        assert exit_info.value.code == 1
        assert "  impossible: 51.89 in [1, 0] — VIOLATED" in capsys.readouterr().out

    def test_serve_sim(self, capsys):
        main([
            "serve-sim", "--requests", "6", "--rate", "100",
            "--prompt-len", "512", "--output-len", "16",
        ])
        out = capsys.readouterr().out
        for token in ("FP16", "INT4", "INT2", "tok/s", "p99 tbt ms", "whole-prompt prefill"):
            assert token in out

    def test_serve_sim_chunked(self, capsys):
        main([
            "serve-sim", "--requests", "6", "--rate", "100",
            "--prompt-len", "512", "--output-len", "16",
            "--prefill-chunk", "128",
        ])
        out = capsys.readouterr().out
        assert "chunked prefill 128 tok/step" in out
        for token in ("FP16", "INT4", "INT2", "tok/s"):
            assert token in out

    def test_serve_sim_step_cap_and_json(self, capsys):
        import json

        main([
            "serve-sim", "--requests", "6", "--rate", "100",
            "--prompt-len", "512", "--output-len", "64",
            "--steps", "5", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert [r["format_name"] for r in payload["reports"]] == ["FP16", "INT4", "INT2"]
        assert all(r["decode_steps"] <= 5 for r in payload["reports"])

    def test_serve_sim_chunked_json(self, capsys):
        import json

        main([
            "serve-sim", "--requests", "6", "--rate", "100",
            "--prompt-len", "512", "--output-len", "16",
            "--prefill-chunk", "128", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["prefill_chunk_tokens"] == 128
        for report in payload["reports"]:
            assert report["prefill_chunk_tokens"] == 128
            assert report["completed"] == 6
            assert report["p99_tbt_s"] is not None

    def test_unknown_experiment_exits(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "fig99"])
        assert exit_info.value.code == 2
        assert "'all', 'fig4'" in capsys.readouterr().out

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestServeSimExecute:
    _ARGS = [
        "serve-sim", "--model", "tiny", "--execute",
        "--requests", "4", "--rate", "100",
        "--prompt-len", "40", "--output-len", "6",
        "--pages", "64", "--max-batch", "4", "--steps", "120",
    ]

    def test_execute_reports_matching_schedule(self, capsys):
        main(self._ARGS)
        out = capsys.readouterr().out
        assert "check schedule_match: True" in out
        assert "executed" in out and "analytical" in out

    def test_execute_json_carries_both_reports(self, capsys):
        import json

        main(self._ARGS + ["--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "execute"
        assert payload["checks"] == {"schedule_match": True}
        executed = payload["reports"]["executed"]
        analytical = payload["reports"]["analytical"]
        assert executed["executed_tokens"] == executed["total_generated_tokens"]
        assert analytical["executed_tokens"] is None
        assert executed["total_generated_tokens"] == analytical["total_generated_tokens"]


class TestServeSimPrefixCache:
    # Prompts long enough that half of one is page-aligned in *both* page
    # geometries: the analytical default (64 tok) and execute's N_r (32).
    _ARGS = [
        "serve-sim", "--model", "tiny", "--requests", "8", "--rate", "5000",
        "--prompt-len", "256", "--output-len", "24", "--max-batch", "8",
        "--seed", "7", "--shared-prefix", "0.5", "--prefix-cache",
    ]

    def test_analytical_table_has_hit_columns(self, capsys):
        main(self._ARGS)
        out = capsys.readouterr().out
        assert "prefix cache on (50% shared, 1 group)" in out
        assert "hit %" in out and "eff cap" in out

    def test_analytical_json_carries_hit_rate(self, capsys):
        import json

        main(self._ARGS + ["--json"])
        payload = json.loads(capsys.readouterr().out)
        for report in payload["reports"]:
            assert report["prefix_cache_enabled"] is True
            assert report["prefix_hit_rate"] > 0
            assert report["effective_capacity_pages"] > report["n_pages"]

    def test_execute_runs_all_cross_checks(self, capsys):
        main(self._ARGS + ["--execute", "--pages", "96"])
        out = capsys.readouterr().out
        for check in (
            "check schedule_match: True",
            "check share_vs_copy_schedule_match: True",
            "check share_vs_copy_bit_exact: True",
            "check hit_rate_positive: True",
            "check faster_than_cache_off: True",
            "check more_effective_capacity: True",
        ):
            assert check in out

    def test_execute_json_carries_all_reports(self, capsys):
        import json

        main(self._ARGS + ["--execute", "--pages", "96", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["prefix_cache"] is True
        assert all(payload["checks"].values())
        assert set(payload["reports"]) == {
            "analytical", "executed", "executed_copy", "cache_off",
        }
        assert payload["reports"]["executed"]["prefix_hit_rate"] > 0
        assert payload["reports"]["cache_off"]["prefix_hit_rate"] == 0

    def test_no_prefix_cache_flag_restores_plain_run(self, capsys):
        main([
            "serve-sim", "--model", "tiny", "--requests", "4", "--rate", "100",
            "--prompt-len", "64", "--output-len", "8", "--no-prefix-cache",
        ])
        out = capsys.readouterr().out
        assert "prefix cache on" not in out
        assert "hit %" not in out


class TestServeSimCluster:
    _ARGS = [
        "serve-sim", "--model", "tiny", "--execute",
        "--tp", "2", "--replicas", "2", "--router", "prefix_affinity",
        "--prefix-cache", "--requests", "8", "--rate", "5000",
        "--prompt-len", "96", "--output-len", "12",
        "--shared-prefix", "0.5", "--prefix-groups", "3", "--seed", "3",
    ]

    def test_executed_cluster_passes_all_checks(self, capsys):
        main(self._ARGS)
        out = capsys.readouterr().out
        assert "tp 2 x 2 replicas" in out
        assert "router prefix_affinity" in out
        assert "check exactly_once_across_replicas: True" in out
        assert "check share_vs_copy_bit_exact: True" in out
        assert "False" not in out
        # A prefix-cache hit pattern depends on the schedule, so the
        # single-rank reruns (a different clock) are not owed here; the
        # swap case below, with the cache off, gets both.
        assert "vs_single" not in out

    def test_executed_cluster_composes_with_swap_preemption(self, capsys):
        """TP ranks are head slices of one paged pool, so an over-capacity
        trace swaps per replica and still decodes bit-identically."""
        main([
            "serve-sim", "--model", "tiny", "--execute", "--tp", "2", "--replicas", "2",
            "--preemption", "swap", *_TIERS, "--requests", "8", "--rate", "100000",
            "--prompt-len", "40", "--output-len", "60", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert "device 8 + host 28 pages, swap preemption" in out
        assert out.count("swap-outs 3") == 2
        assert "False" not in out
        assert "check tp_decode_bit_exact_vs_single_rank: True" in out
        assert "check cluster_bit_exact_vs_single_engine: True" in out

    def test_executed_cluster_json(self, capsys):
        import json

        main(self._ARGS + ["--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "execute"
        assert payload["tp"] == 2 and payload["replicas"] == 2
        pricing = payload["tp_pricing"]
        assert pricing["allreduce_tax_ms"] > 0
        assert pricing["rank_attention_ms"] < pricing["full_attention_ms"]
        assert all(payload["checks"].values())
        cluster = payload["reports"]["executed"]
        assert cluster["completed"] == 8
        assert cluster["cross_replica_prefix_misses"] == 0
        assert len(cluster["per_replica"]) == 2

    def test_analytical_cluster_runs(self, capsys):
        main([
            "serve-sim", "--tp", "2", "--replicas", "2",
            "--router", "least_loaded", "--requests", "8", "--rate", "100",
            "--prompt-len", "256", "--output-len", "8",
        ])
        out = capsys.readouterr().out
        assert "analytical" in out
        assert "8 done of 8" in out


_TINY = ["serve-sim", "--model", "tiny", "--requests", "4"]
_TIERS = ["--device-pages", "8", "--host-pages", "28"]


_SWAP = [
    "serve-sim", "--model", "tiny", "--execute", "--preemption", "swap",
    "--rate", "100000", "--output-len", "60",
]


class TestServeSimCompositions:
    """Legal feature compositions that exited 1 on their own checks before
    the one driver.  Each now ends with every check True — or, where no
    bit-exact reference exists, with the one documented rejection."""

    @pytest.mark.parametrize(
        "flags, rejected",
        [
            pytest.param(
                # Copy mode owns more pages, so its swap clock differs.
                [*_SWAP, "--device-pages", "24", "--host-pages", "80", "--requests", "12",
                 "--prompt-len", "64", "--seed", "0", "--prefix-cache",
                 "--shared-prefix", "0.67", "--prefix-groups", "4"],
                False,
                id="swap x prefix-cache",
            ),
            pytest.param(
                # Healed replays re-chunk: recovery was not bit-exact.
                ["serve-sim", "--model", "tiny", "--execute", "--chaos", "7", *_TIERS,
                 "--max-batch", "3", "--requests", "8", "--rate", "100000", "--prompt-len", "96",
                 "--output-len", "60", "--seed", "3", "--deadline-ms", "6",
                 "--prefill-chunk", "32"],
                True,
                id="chaos x prefill-chunk",
            ),
            pytest.param(
                # A mixed step's chunk pins rode on top of the decoders'
                # device budget; executed decode faulted pages back.
                [*_SWAP, "--device-pages", "8", "--host-pages", "60", "--requests", "8",
                 "--prompt-len", "96", "--seed", "7", "--max-batch", "3",
                 "--prefill-chunk", "48", "--prompt-jitter", "0.3"],
                False,
                id="swap x prefill-chunk",
            ),
            pytest.param(
                # fault_in evicted its own read set (15 faults vs 8 scheduled).
                [*_SWAP, *_TIERS, "--requests", "8", "--prompt-len", "96", "--seed", "3",
                 "--prefix-cache", "--shared-prefix", "0.5", "--prefix-groups", "3",
                 "--prefill-chunk", "32"],
                False,
                id="swap x prefix-cache x prefill-chunk",
            ),
            pytest.param(
                # ci.yml's composed smoke: every feature row at once.
                ["serve-sim", "--model", "tiny", "--execute", "--tp", "2",
                 "--preemption", "swap", "--device-pages", "12", "--host-pages", "80",
                 "--prefix-cache", "--shared-prefix", "0.34", "--prefill-chunk", "32",
                 "--requests", "12", "--rate", "20000", "--prompt-len", "96",
                 "--output-len", "40", "--seed", "7"],
                False,
                id="tp x swap x prefix-cache x prefill-chunk",
            ),
        ],
    )
    def test_green_or_rejected(self, capsys, flags, rejected):
        if rejected:
            with pytest.raises(SystemExit) as exc:
                main(flags)
            assert exc.value.code == 2
            out = capsys.readouterr().out
            assert out.startswith("serve-sim: ") and out.count("\n") == 1
        else:
            main(flags)  # exits 1 (SystemExit) if any check is False
            out = capsys.readouterr().out
            assert "check schedule_match: True" in out and "False" not in out
            assert "swap-outs 0" not in out


class TestServeSimRejections:
    """Every documented unsupported flag combination: exit 2, one
    ``serve-sim:`` line, no traceback (README "Unsupported combinations")."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--chaos", "7", *_TIERS, "--prefix-cache"],
            ["--chaos", "7", *_TIERS, "--prefill-chunk", "32"],
            ["--execute", "--chaos", "7", *_TIERS, "--prefill-chunk", "32"],
            ["--tp", "2", "--preemption", "swap"],
            ["--tp", "2", "--execute", "--preemption", "swap"],
            ["--replicas", "2", "--execute", "--preemption", "swap", *_TIERS, "--pages", "10"],
            ["--tp", "2", "--device-pages", "8"],
            ["--pages", "10"],
            ["--tp", "2", "--pages", "10"],
            ["--preemption", "swap", *_TIERS],
            ["--execute", "--page-size", "32"],
            ["--execute", "--residual-window", "32"],
            ["--execute", "--tp", "2", "--page-size", "32"],
            ["--chaos", "7", *_TIERS, "--page-size", "32"],
            ["--chaos", "7", "--pages", "10"],
            ["--chaos", "7", "--device-pages", "8"],
            ["--execute", "--preemption", "swap", "--pages", "10"],
            ["--execute", "--pages", "2", "--prompt-len", "200"],
            ["--router", "prefix_affinity"],
            ["--tp", "0"],
            ["--tp", "-1"],
            ["--replicas", "0"],
            ["--tp", "3"],
            ["--tp", "2", "--n-gpus", "4"],
            # Chaos-only knobs are rejected by presence, not by value (10
            # and 5 are the values a chaos run defaults to).
            ["--deadline-ms", "5"],
            ["--audit-every", "10"],
            ["--audit-every", "11"],
            ["--max-heals", "5"],
        ],
        ids=" ".join,
    )
    def test_exits_2_with_one_line(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main([*_TINY, *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("serve-sim: ") and captured.out.count("\n") == 1
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("cluster", [["--tp", "2"], ["--replicas", "2"]], ids=" ".join)
    def test_chaos_composes_with_cluster(self, capsys, cluster):
        # Formerly rejected ("no cluster chaos report"): the merged
        # ClusterReport carries the chaos counters, so the run is legal.
        main([
            *_TINY, "--chaos", "7", *_TIERS, *cluster,
            "--prompt-len", "40", "--output-len", "8",
        ])
        out = capsys.readouterr().out
        assert out.startswith("serve-sim --chaos 7: tiny on a100")
        assert "4 finished" in out and "audits clean" in out

    def test_executed_chaos_cluster_passes_all_checks(self, capsys):
        # ci.yml's cluster chaos smoke: exits 0 with every check True.
        main([
            "serve-sim", "--model", "tiny", "--execute", "--chaos", "7", "--tp", "2",
            "--replicas", "2", *_TIERS, "--max-batch", "3", "--requests", "16",
            "--rate", "100000", "--prompt-len", "40", "--output-len", "60", "--seed", "3",
            "--deadline-ms", "10",
        ])
        out = capsys.readouterr().out
        assert "tp 2 x 2 replicas" in out
        # Six chaos verdicts plus the three topology ones.
        assert out.count("check ") == 9 and "False" not in out

    def test_execute_rejects_serving_scale_models(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve-sim", "--execute", "--requests", "4"])
        assert exc.value.code == 2
        assert "toy model" in capsys.readouterr().out

    def test_chaos_knobs_default_under_chaos(self, capsys):
        import json

        main([*_TINY, "--chaos", "7", *_TIERS, "--prompt-len", "40", "--output-len", "8", "--json"])
        assert json.loads(capsys.readouterr().out)["audit_every"] == 10
