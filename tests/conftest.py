"""Shared fixtures: simulators, collectors and (expensive) trained models.

Training fixtures are session-scoped so the cost is paid once per test
run; tests that need isolation build their own objects.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core.predictor import YalaPredictor, YalaSystem
from repro.nf.catalog import make_nf
from repro.nic.nic import SmartNic
from repro.nic.spec import bluefield2_spec, pensando_spec
from repro.profiling.collector import ProfilingCollector
from repro.traffic.profile import TrafficProfile


@pytest.fixture(scope="session")
def bf2_nic() -> SmartNic:
    """A noiseless BlueField-2 simulator (deterministic fixed points)."""
    return SmartNic(bluefield2_spec(), seed=101, noise_std=0.0)


@pytest.fixture(scope="session")
def noisy_nic() -> SmartNic:
    """A BlueField-2 simulator with realistic measurement noise."""
    return SmartNic(bluefield2_spec(), seed=101)


@pytest.fixture(scope="session")
def pensando_nic() -> SmartNic:
    return SmartNic(pensando_spec(), seed=101, noise_std=0.0)


@pytest.fixture(scope="session")
def collector(noisy_nic: SmartNic) -> ProfilingCollector:
    """Session-wide collector (caches solo runs across tests)."""
    return ProfilingCollector(noisy_nic)


@pytest.fixture(scope="session")
def default_traffic() -> TrafficProfile:
    return TrafficProfile()


@pytest.fixture(scope="session")
def trained_flowmonitor(collector: ProfilingCollector) -> YalaPredictor:
    """A trained FlowMonitor predictor (moderate quota, shared)."""
    predictor = YalaPredictor(make_nf("flowmonitor"), collector, seed=707)
    predictor.train(quota=200)
    return predictor


@pytest.fixture(scope="session")
def small_system(noisy_nic: SmartNic) -> YalaSystem:
    """A YalaSystem trained on a small NF set (shared)."""
    system = YalaSystem(noisy_nic, seed=909, quota=200)
    system.train(["flowmonitor", "flowstats", "nids"])
    return system


@pytest.fixture(scope="session")
def flash_crowd():
    """``examples/flash_crowd_midpoint.py`` as a module: four services
    whose traffic surges between two epoch boundaries."""
    path = Path(__file__).resolve().parents[1] / "examples" / (
        "flash_crowd_midpoint.py"
    )
    spec = importlib.util.spec_from_file_location("flash_crowd_midpoint", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
