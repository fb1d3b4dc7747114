"""Shared fixtures: small deterministic workloads and builders."""

from __future__ import annotations

import importlib.util
import random

import pytest

from repro.core.cost_model import CostModel
from repro.env import PURE_PYTHON_VAR
from repro.workloads.model import Workload

from tests.taskutil import make_two_node_workload


@pytest.fixture
def rng():
    return random.Random(42)


@pytest.fixture
def two_node_workload() -> Workload:
    return make_two_node_workload()


@pytest.fixture
def zero_cost() -> CostModel:
    return CostModel.zero()


@pytest.fixture
def array_screen(monkeypatch):
    """Analyzers built in the test take the numpy burst screen: skip
    where numpy is not installed, and clear ``REPRO_PURE_PYTHON``."""
    if importlib.util.find_spec("numpy") is None:
        pytest.skip("the array screen needs numpy")
    monkeypatch.delenv(PURE_PYTHON_VAR, raising=False)
