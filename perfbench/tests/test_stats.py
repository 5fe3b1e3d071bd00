"""Tail-percentile rule, spread and fingerprint helpers."""

import pytest

from perfbench import stats


def test_nearest_rank_on_hand_made_samples():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 50) == 50
    assert stats.nearest_rank(values, 90) == 90
    assert stats.nearest_rank(values, 99.5) == 100
    assert stats.nearest_rank([7.0], 95) == 7.0


def test_beyond_counts_samples_above_the_percentile():
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(120, 95) == 6
    assert stats.beyond(21, 50) == 10


@pytest.mark.parametrize(
    "count, expected",
    [(20, 50.0), (21, 50.0), (40, 75.0), (42, 75.0), (100, 90.0), (120, 90.0),
     (200, 95.0), (240, 95.0), (1000, 99.0), (2000, 99.5), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_beyond(count, expected):
    p = stats.tail_percentile(count)
    assert p == expected
    assert stats.beyond(count, p) >= stats.TAIL_MIN_BEYOND
    higher = [q for q in stats.TAIL_LADDER if q > p]
    assert all(stats.beyond(count, q) < stats.TAIL_MIN_BEYOND for q in higher)


def test_tail_percentile_on_samples_matches_the_eleventh_largest_at_the_edge():
    # with 100 samples p90 has exactly ten samples above it
    samples = sorted(float(v) for v in range(100))
    p = stats.tail_percentile(len(samples))
    tail = stats.nearest_rank(samples, p)
    assert sum(v > tail for v in samples) == 10


def test_tail_percentile_rejects_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_fingerprint_is_order_sensitive():
    a = {"seed": 1, "ok": True, "bits": 3, "qubits": 4, "rounds": 1}
    b = {"seed": 2, "ok": False, "bits": 5, "qubits": 0, "rounds": 3}
    assert stats.fingerprint([a, b]) == stats.fingerprint([dict(a), dict(b)])
    assert stats.fingerprint([a, b]) != stats.fingerprint([b, a])


def test_reference_kernels_scale_to_nominal_speed():
    from perfbench import calibrate

    for name in calibrate.KERNELS:
        kernel = calibrate.Kernel(name)
        assert kernel.time_ms() > 0
        assert kernel.scale(kernel.nominal_ms) == pytest.approx(1.0)
        # a machine running at half speed doubles the kernel time and halves the scale
        assert kernel.scale(2 * kernel.nominal_ms) == pytest.approx(0.5)
