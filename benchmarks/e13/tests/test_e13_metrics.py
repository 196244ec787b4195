"""The percentile rule and the segment-median throughput."""

import pytest

from benchmarks.e13 import metrics
from benchmarks.e13.drive import Op


def op(host_s, kind="query"):
    return Op("query", kind, 0.0, host_s, host_s, 0.0, True, raw_s=host_s, host_s=host_s)


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert metrics.percentile(values, 50) == 100
    assert metrics.percentile(values, 95) == 190


@pytest.mark.parametrize("count, q, allowed", [
    (200, 95, True), (199, 95, False), (20, 50, True), (19, 50, False), (0, 50, False),
])
def test_percentile_needs_ten_samples_beyond_it(count, q, allowed):
    values = [float(i) for i in range(count)]
    if allowed:
        metrics.percentile(values, q)
    else:
        with pytest.raises(metrics.TooFewSamples):
            metrics.percentile(values, q)
    if count:
        metrics.percentile(values, q, enforce=False)


def test_one_slow_segment_cannot_move_the_throughput():
    steady = [op(0.01) for _ in range(100)]
    burst = steady[:40] + [op(0.05) for _ in range(20)] + steady[60:]
    assert metrics.segment_throughput(steady) == pytest.approx(100.0)
    assert metrics.segment_throughput(burst) == pytest.approx(100.0)


def test_throughput_of_fewer_ops_than_segments():
    assert metrics.segment_throughput([op(0.5), op(0.25)]) == pytest.approx(3.0)
