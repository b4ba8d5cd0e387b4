"""Request model and Poisson trace generation."""

import pytest

from repro.serving.request import Request, poisson_trace, prefix_block_keys


class TestRequest:
    def test_total_len(self):
        r = Request(req_id=0, arrival_s=0.0, prompt_len=100, output_len=20)
        assert r.total_len == 120

    def test_validation(self):
        with pytest.raises(ValueError):
            Request(req_id=0, arrival_s=-1.0, prompt_len=10, output_len=5)
        with pytest.raises(ValueError):
            Request(req_id=0, arrival_s=0.0, prompt_len=0, output_len=5)
        with pytest.raises(ValueError):
            Request(req_id=0, arrival_s=0.0, prompt_len=10, output_len=0)


class TestPrefixBlockKeys:
    def _req(self, req_id, group=0, shared=160):
        return Request(req_id, 0.0, 256, 8, shared_prefix_len=shared, prefix_group=group)

    def test_whole_shared_blocks_match_across_a_group(self):
        """Blocks fully inside the shared prefix key alike for every request
        of the group; the block the prefix ends in is the request's own."""
        a = prefix_block_keys(self._req(1), 4, 64)
        b = prefix_block_keys(self._req(2), 4, 64)
        assert a[:2] == b[:2]
        assert a[2] != b[2] and a[3] != b[3]

    def test_keys_chain_through_every_earlier_block(self):
        """Equal keys mean equal token prefixes: another group's request
        matches nowhere, and each key extends the one before it."""
        a = prefix_block_keys(self._req(1, group=0), 4, 64)
        b = prefix_block_keys(self._req(2, group=1), 4, 64)
        assert not set(a) & set(b)
        assert all(later[:-1] == earlier for earlier, later in zip(a, a[1:]))
        assert prefix_block_keys(self._req(1, shared=0), 1, 64) == [(("req", 1, 0),)]


class TestPoissonTrace:
    def test_deterministic_for_seed(self):
        a = poisson_trace(32, 4.0, 512, 64, seed=7, prompt_jitter=0.25)
        b = poisson_trace(32, 4.0, 512, 64, seed=7, prompt_jitter=0.25)
        assert a == b

    def test_seeds_differ(self):
        a = poisson_trace(32, 4.0, 512, 64, seed=1)
        b = poisson_trace(32, 4.0, 512, 64, seed=2)
        assert a != b

    def test_arrivals_sorted_and_start_at_zero(self):
        trace = poisson_trace(64, 8.0, 256, 32, seed=0)
        arrivals = [r.arrival_s for r in trace]
        assert arrivals[0] == 0.0
        assert arrivals == sorted(arrivals)

    def test_mean_rate_roughly_matches(self):
        trace = poisson_trace(2000, 10.0, 256, 32, seed=0)
        span = trace[-1].arrival_s
        assert 2000 / span == pytest.approx(10.0, rel=0.15)

    def test_jitter_bounds(self):
        trace = poisson_trace(200, 4.0, 1000, 100, seed=3, prompt_jitter=0.25, output_jitter=0.5)
        assert all(750 <= r.prompt_len <= 1250 for r in trace)
        assert all(50 <= r.output_len <= 150 for r in trace)
        assert len({r.prompt_len for r in trace}) > 1

    def test_no_jitter_keeps_lengths_fixed(self):
        trace = poisson_trace(20, 4.0, 777, 33, seed=0)
        assert {r.prompt_len for r in trace} == {777}
        assert {r.output_len for r in trace} == {33}

    @pytest.mark.parametrize("jitter", [-0.1, 1.0, 2.0])
    @pytest.mark.parametrize("name", ["prompt_jitter", "output_jitter"])
    def test_jitter_outside_unit_interval_rejected(self, name, jitter):
        """A negative jitter used to act as 0, and jitter >= 1 drew lengths
        <= 0 that were silently clamped to 1."""
        with pytest.raises(ValueError, match=rf"{name} must lie in \[0, 1\)"):
            poisson_trace(4, 4.0, 10, 10, **{name: jitter})

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            poisson_trace(0, 4.0, 10, 10)
        with pytest.raises(ValueError):
            poisson_trace(4, 0.0, 10, 10)
