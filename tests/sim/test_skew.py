"""Skew modeling (relaxing the paper's non-skew assumption)."""

import pytest

from repro import api
from repro.core import Catalog, get_strategy, make_shape, paper_relation_names
from repro.sim import MachineConfig
from repro.sim.run import simulate
from repro.sim.skew import MIN_SHARE, skew_factor, zipf_shares

NAMES = paper_relation_names(6)
CATALOG = Catalog.regular(NAMES, 600)


def run(strategy, theta, config):
    tree = make_shape("wide_bushy", NAMES)
    schedule = get_strategy(strategy).schedule(tree, CATALOG, 12)
    return simulate(schedule, CATALOG, config, skew_theta=theta)


class TestZipfShares:
    def test_uniform_at_zero(self):
        shares = zipf_shares(5, 0.0)
        assert shares == pytest.approx([0.2] * 5)
        assert skew_factor(shares) == pytest.approx(1.0)

    def test_sums_to_one(self):
        for theta in (0.0, 0.5, 1.0, 2.0):
            assert sum(zipf_shares(7, theta)) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        shares = zipf_shares(6, 1.0)
        assert shares == sorted(shares, reverse=True)

    def test_skew_factor_grows_with_theta(self):
        assert (
            skew_factor(zipf_shares(8, 0.0))
            < skew_factor(zipf_shares(8, 0.5))
            < skew_factor(zipf_shares(8, 1.0))
        )

    def test_single_fragment(self):
        assert zipf_shares(1, 1.0) == [1.0]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            zipf_shares(0, 1.0)
        with pytest.raises(ValueError):
            zipf_shares(3, -0.1)


class TestSkewedSimulation:
    def test_zero_theta_matches_default(self, fast_config):
        assert run("SP", 0.0, fast_config).response_time == pytest.approx(
            run("SP", 0.0, fast_config).response_time
        )

    def test_result_tuples_conserved_under_skew(self, fast_config):
        for strategy in ("SP", "SE", "RD", "FP"):
            result = run(strategy, 1.0, fast_config)
            assert result.result_tuples == pytest.approx(600.0, rel=1e-6)

    def test_skew_slows_everything(self, fast_config):
        for strategy in ("SP", "FP"):
            uniform = run(strategy, 0.0, fast_config).response_time
            skewed = run(strategy, 1.0, fast_config).response_time
            assert skewed > uniform

    def test_skew_destroys_sp_perfect_balance(self):
        """Section 3.5's SP argument is explicitly conditioned on
        non-skewed partitioning; under Zipf(1) the largest fragment
        dominates the makespan."""
        config = MachineConfig.ideal(batches=8)
        tree = make_shape("left_linear", NAMES)
        schedule = get_strategy("SP").schedule(tree, CATALOG, 12)
        uniform = simulate(schedule, CATALOG, config, skew_theta=0.0)
        skewed = simulate(schedule, CATALOG, config, skew_theta=1.0)
        assert uniform.utilization() > 0.98
        assert skewed.utilization() < 0.75
        largest_share = max(zipf_shares(12, 1.0))
        expected_ratio = largest_share * 12
        assert skewed.response_time / uniform.response_time == pytest.approx(
            expected_ratio, rel=0.15
        )


class TestUnrepresentableTheta:
    """A theta whose shares no float can carry is refused up front; it
    used to overflow in ``zipf_shares`` (SP) or divide by an underflowed
    product of two shares (FP, the classic loop)."""

    @pytest.mark.parametrize("theta", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, theta):
        with pytest.raises(ValueError, match="finite and non-negative"):
            zipf_shares(4, theta)

    def test_limit_is_the_smallest_share(self):
        assert min(zipf_shares(40, 93.0)) >= MIN_SHARE
        with pytest.raises(ValueError, match=r"2\*\*-500"):
            zipf_shares(40, 100.0)
        assert zipf_shares(1, 1e308) == [1.0]

    @pytest.mark.parametrize("theta", [250.0, 1e308])
    @pytest.mark.parametrize("strategy", ["SP", "FP"])
    def test_run_rejects(self, strategy, theta):
        with pytest.raises(ValueError, match=r"2\*\*-500"):
            api.run("wide_bushy", strategy, 40, skew_theta=theta)

    @pytest.mark.parametrize("theta", [250.0, 1e308])
    def test_run_workload_rejects(self, theta):
        with pytest.raises(ValueError, match=r"2\*\*-500"):
            api.run_workload(skew_theta=theta)
