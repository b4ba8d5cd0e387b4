"""Request model and Poisson trace generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def chained_keys(request, n_blocks, page_size):
    """The chained definition the constant-size keys replace, verbatim:
    block *i*'s key is the tuple of every tag up to *i*.  Kept as the
    equality oracle."""
    keys = []
    tags = []
    for i in range(n_blocks):
        if (i + 1) * page_size <= request.shared_prefix_len:
            tags.append(("prefix", request.prefix_group, i))
        else:
            tags.append(("req", request.req_id, i))
        keys.append(tuple(tags))
    return keys


def keys(request, n_blocks, page_size):
    return list(prefix_block_keys(request, page_size, 0, n_blocks))


@st.composite
def request_pairs(draw):
    """Two requests whose shared prefixes end on, before or after page
    boundaries, with equal or distinct ids and groups, and a page size."""
    page_size = draw(st.sampled_from([1, 2, 3, 16, 64]))
    prompt_len = 6 * page_size
    pair = []
    for _ in range(2):
        shared = draw(
            st.sampled_from([0, page_size - 1, page_size, 2 * page_size, 2 * page_size + 1])
            | st.integers(0, prompt_len)
        )
        pair.append(
            Request(
                req_id=draw(st.integers(0, 2)),
                arrival_s=0.0,
                prompt_len=prompt_len,
                output_len=1,
                shared_prefix_len=max(0, shared),
                prefix_group=draw(st.integers(0, 1)),
            )
        )
    return pair, page_size


class TestPrefixBlockKeys:
    @settings(max_examples=300, deadline=None)
    @given(request_pairs())
    def test_keys_are_equal_exactly_when_the_chained_keys_are(self, drawn):
        """At every pair of block indices, two requests' keys are equal
        exactly when the chained keys of the old definition are."""
        (a, b), page_size = drawn
        n = 7
        new_a, new_b = keys(a, n, page_size), keys(b, n, page_size)
        old_a, old_b = chained_keys(a, n, page_size), chained_keys(b, n, page_size)
        for i in range(n):
            for j in range(n):
                assert (new_a[i] == new_b[j]) == (old_a[i] == old_b[j]), (i, j)

    def test_every_key_has_a_constant_size(self):
        shared = Request(1, 0.0, 8192, 8, shared_prefix_len=4096, prefix_group=3)
        private = Request(2, 0.0, 8192, 8)
        for request in (shared, private):
            assert {len(key) for key in keys(request, 128, 64)} <= {3, 5}

    def test_a_slice_builds_only_its_own_blocks(self):
        request = Request(1, 0.0, 8192, 8, shared_prefix_len=4096)
        assert list(prefix_block_keys(request, 64, 96, 100)) == keys(request, 100, 64)[96:]

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
