"""Arrival processes: determinism, ranges, dispatch."""

import pytest

from repro.workload import (
    ARRIVAL_KINDS,
    fixed_arrivals,
    make_arrivals,
    poisson_arrivals,
)


class TestPoisson:
    def test_deterministic(self):
        assert poisson_arrivals(0.5, 100, seed=7) == poisson_arrivals(
            0.5, 100, seed=7
        )

    def test_seed_matters(self):
        assert poisson_arrivals(0.5, 100, seed=1) != poisson_arrivals(
            0.5, 100, seed=2
        )

    def test_within_window(self):
        times = poisson_arrivals(1.0, 50, seed=3)
        assert all(0.0 <= t < 50.0 for t in times)
        assert times == sorted(times)

    def test_start_offset_shifts(self):
        base = poisson_arrivals(1.0, 20, seed=3)
        shifted = poisson_arrivals(1.0, 20, seed=3, start=100.0)
        assert shifted == pytest.approx([t + 100.0 for t in base])

    def test_rate_scales_count(self):
        slow = len(poisson_arrivals(0.5, 400, seed=9))
        fast = len(poisson_arrivals(2.0, 400, seed=9))
        assert fast > 2 * slow


class TestFixed:
    def test_evenly_spaced(self):
        times = fixed_arrivals(2.0, 10)
        assert times == pytest.approx([i * 0.5 for i in range(20)])

    def test_start_offset(self):
        assert fixed_arrivals(1.0, 3, start=5.0) == pytest.approx(
            [5.0, 6.0, 7.0]
        )

    def test_zero_duration_is_empty(self):
        assert fixed_arrivals(1.0, 0) == []


class TestDispatch:
    def test_kinds(self):
        assert ARRIVAL_KINDS == ("poisson", "fixed")

    def test_make_arrivals_matches_direct(self):
        assert make_arrivals("poisson", 1.0, 30, seed=4) == poisson_arrivals(
            1.0, 30, seed=4
        )
        assert make_arrivals("fixed", 1.0, 3) == fixed_arrivals(1.0, 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            make_arrivals("bursty", 1.0, 10)

    @pytest.mark.parametrize("rate,duration", [(0.0, 10), (-1.0, 10), (1.0, -1)])
    def test_validation(self, rate, duration):
        with pytest.raises(ValueError):
            poisson_arrivals(rate, duration)

    @pytest.mark.timeout(10)
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    @pytest.mark.parametrize("rate,duration", [
        (float("nan"), 10), (float("inf"), 10), (1.0, float("inf")),
        (1.0, float("nan")), (float("-inf"), 10),
    ])
    def test_non_finite_knobs_are_refused(self, kind, rate, duration):
        """NaN slips past ``rate <= 0``; an infinite rate or horizon
        never ends the loop — each used to hang the generator."""
        with pytest.raises(ValueError, match="finite"):
            make_arrivals(kind, rate, duration)
