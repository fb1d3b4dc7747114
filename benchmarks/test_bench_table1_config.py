"""Benchmark: Table 1 mapping + configuration-engine throughput.

Covers the paper's configuration pipeline (sections 4.1 and 6): mapping
characteristics to strategies, generating + validating an XML deployment
plan for the section 7.1 workload, and deploying it.
"""

import random

import pytest

from repro.config.characteristics import ApplicationCharacteristics
from repro.config.engine import ConfigurationEngine
from repro.config.xml_io import parse_xml
from repro.experiments import run_table1
from repro.experiments.table1 import format_rows
from repro.workloads.generator import generate_random_workload


@pytest.fixture(scope="module")
def workload():
    return generate_random_workload(random.Random(2008))


def test_bench_table1_mapping(benchmark):
    rows = benchmark(run_table1)
    print()
    print(format_rows(rows))
    assert all("_" in row.combo_label for row in rows)


def test_bench_configuration_engine(benchmark, workload):
    """Full front-end pass: characteristics -> plan -> XML -> validate."""
    engine = ConfigurationEngine()
    from repro.config.characteristics import OverheadTolerance

    chars = ApplicationCharacteristics(
        job_skipping=True,
        replicated_components=True,
        state_persistence=False,
        overhead_tolerance=OverheadTolerance.PER_JOB,
    )

    def configure():
        return engine.configure(workload, chars)

    result = benchmark(configure)
    assert result.combo.label == "J_J_J"
    plan = parse_xml(result.xml)
    assert plan.combo().label == "J_J_J"
    print(
        f"\nplan: {len(result.plan.instances)} instances, "
        f"{len(result.plan.connections)} connections, "
        f"{len(result.xml)} bytes of XML"
    )


def test_bench_dance_deployment(benchmark, workload):
    """Plan deployment (check, then assembly) of the full 9-task, 6-node
    system."""
    engine = ConfigurationEngine()
    chars = ApplicationCharacteristics(True, True, False)
    result = engine.configure(workload, chars)

    def deploy():
        return engine.deploy(result, seed=1)

    system = benchmark(deploy)
    assert system.ac is not None and system.lb is not None
