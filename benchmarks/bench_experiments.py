"""Every paper table and figure, run once under the scale plan.

One test per :data:`repro.bench.experiments.REGISTRY` key, through the
runner behind ``python -m repro experiment``: the rendering goes to
``benchmarks/results/<id>.txt`` and a failed expectation (integrity
violations, reader lock traffic, fsyncs not shared) fails the test.
"""

import pytest

from repro.bench import experiments
from repro.bench.scale import default_plan


@pytest.mark.parametrize("experiment_id", list(experiments.REGISTRY))
def test_experiment(benchmark, experiment_id):
    result = benchmark.pedantic(
        experiments.run, args=(experiment_id, default_plan()),
        rounds=1, iterations=1,
    )
    assert not result.failures, result.render()
