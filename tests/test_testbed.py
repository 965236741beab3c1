"""Testbed mode: rate jitter and the δ-enabled config."""

import math
import statistics

import numpy as np
import pytest

from repro.config import PAPER_SYNC_INTERVAL, SimulationConfig
from repro.core.saath import SaathScheduler
from repro.errors import ConfigError
from repro.rng import make_rng
from repro.simulator.engine import run_policy
from repro.simulator.fabric import Fabric
from repro.simulator.flows import Flow, make_coflow
from repro.simulator.testbed import RateJitter
from repro.simulator.testbed import testbed_config as make_testbed_config


class TestRateJitter:
    """The hook is called once per full apply with every rated flow; these
    tests call it the same way, one batch of ``n`` identical flows."""

    def _flows(self, n):
        return [Flow(flow_id=0, coflow_id=0, src=0, dst=5, volume=100.0)] * n

    def test_never_exceeds_allocation(self):
        jitter = RateJitter(seed=1)
        for rate in jitter(self._flows(500), [100.0] * 500):
            assert rate <= 100.0 + 1e-9

    def test_never_below_floor(self):
        jitter = RateJitter(mean_efficiency=0.9, sigma=0.3, floor=0.6, seed=2)
        for rate in jitter(self._flows(500), [100.0] * 500):
            assert rate >= 60.0 - 1e-9

    def test_mean_near_target(self):
        jitter = RateJitter(mean_efficiency=0.9, sigma=0.05, seed=3)
        samples = jitter(self._flows(2000), [100.0] * 2000)
        assert 85.0 <= sum(samples) / len(samples) <= 92.0

    def test_deterministic_under_seed(self):
        a = RateJitter(seed=9)
        b = RateJitter(seed=9)
        f = self._flows(10)
        assert a(f, [10.0] * 10) == b(f, [10.0] * 10)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RateJitter(mean_efficiency=0.0)
        with pytest.raises(ConfigError):
            RateJitter(mean_efficiency=0.9, floor=0.95)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_rejects_bad_sigma(self, sigma):
        """A negative sigma used to fail mid-run inside numpy, and a NaN
        one silently zeroed every perturbed rate."""
        with pytest.raises(ConfigError, match="sigma"):
            RateJitter(sigma=sigma)

    def test_zero_sigma_is_exact(self):
        jitter = RateJitter(mean_efficiency=0.9, sigma=0.0)
        assert jitter(self._flows(3), [10.0, 20.0, 40.0]) == [
            10.0 * 0.9, 20.0 * 0.9, 40.0 * 0.9]

    def test_batch_draw_matches_per_flow_reference_stream(self):
        """One batched call per apply consumes the generator exactly as one
        scalar draw per flow did, bit for bit, across successive applies.
        sigma = 0.3 around 0.9 with floor 0.6 makes both clip bounds bind."""
        n, mean, sigma, floor, seed = 12_000, 0.9, 0.3, 0.6, 11
        rates = [1e6 * (1 + k % 97) / 7 for k in range(n)]
        rng = make_rng(seed)
        etas = [float(np.clip(rng.normal(mean, sigma), floor, 1.0))
                for _ in range(n)]
        want = [rate * eta for rate, eta in zip(rates, etas)]
        assert floor in etas and 1.0 in etas
        assert floor < statistics.median(etas) < 1.0

        jitter = RateJitter(mean_efficiency=mean, sigma=sigma, floor=floor,
                            seed=seed)
        got = []
        for lo, hi in [(0, 1), (1, 4_000), (4_000, n)]:
            got += jitter(self._flows(hi - lo), rates[lo:hi])
        assert [x.hex() for x in got] == [x.hex() for x in want]


class TestTestbedConfig:
    def test_enables_paper_delta(self):
        cfg = make_testbed_config()
        assert cfg.sync_interval == PAPER_SYNC_INTERVAL

    def test_preserves_base_settings(self):
        base = SimulationConfig(deadline_factor=None)
        cfg = make_testbed_config(base)
        assert cfg.deadline_factor is None
        assert cfg.sync_interval == PAPER_SYNC_INTERVAL


class TestTestbedEndToEnd:
    def test_jitter_slows_but_completes(self):
        fab = Fabric(num_machines=4, port_rate=100.0)
        cfg = SimulationConfig(port_rate=100.0, min_rate=1e-3)
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)])
        ideal = run_policy(SaathScheduler(cfg), [c], fab, cfg)

        c2 = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)])
        noisy = run_policy(
            SaathScheduler(cfg), [c2], fab, cfg,
            rate_perturbation=RateJitter(seed=4),
        )
        assert noisy.cct(0) >= ideal.cct(0)
        assert len(noisy.coflows) == 1
