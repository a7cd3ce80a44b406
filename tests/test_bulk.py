import numpy as np
import pytest

from curvlens.bulk import (
    LayerBlockSpec,
    bulk_mean_random_vector,
    bulk_median_gradient,
    count_outliers_gap,
    predict_outliers_from_blocks,
)
from curvlens.density import DiracMixture
from curvlens.rmt import fit_mp_to_bulk


def _mixture_with_spike_and_outlier():
    # zero ghost spike, flat bulk at {2, 4, 6}, single outlier at 100
    return DiracMixture.from_arrays(
        [0.0, 2.0, 4.0, 6.0, 100.0],
        [0.5, 0.15, 0.15, 0.15, 0.05],
    )


def test_bulk_mean_drops_spike_and_outlier():
    # all-negative spectrum: the smallest-|lambda| atom is also the largest, so
    # the outlier dropped is the next-largest atom
    negative = DiracMixture.from_arrays([-100.0, -6.0, -4.0, -2.0, -0.1],
                                        [0.15, 0.15, 0.15, 0.05, 0.5])
    for mixture, expected in ((_mixture_with_spike_and_outlier(), 4.0),
                              (negative, (-100.0 - 6.0 - 4.0) / 3.0)):
        estimate = bulk_mean_random_vector(mixture, layers=1)
        assert estimate.bulk_mean == pytest.approx(expected)


def test_bulk_mean_respects_weights():
    mixture = DiracMixture.from_arrays([0.0, 1.0, 3.0, 50.0], [0.4, 0.3, 0.1, 0.2])
    estimate = bulk_mean_random_vector(mixture, layers=1)
    assert estimate.bulk_mean == pytest.approx((0.3 * 1.0 + 0.1 * 3.0) / 0.4)


def test_bulk_mean_needs_enough_atoms():
    mixture = DiracMixture.from_arrays([0.0, 1.0, 2.0], [0.3, 0.3, 0.4])
    with pytest.raises(ValueError):
        bulk_mean_random_vector(mixture, layers=1)


def test_estimators_reject_negative_counts():
    mixture = _mixture_with_spike_and_outlier()
    for estimate in (lambda: bulk_mean_random_vector(mixture, layers=-3),
                     lambda: bulk_median_gradient(mixture.locations, layers=-3),
                     lambda: fit_mp_to_bulk(mixture, excluded_outliers=-1),
                     lambda: fit_mp_to_bulk(mixture, excluded_zero_modes=-1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            estimate()


def test_bulk_median_drops_spike_and_outliers():
    values = [0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 200.0, 300.0]
    estimate = bulk_median_gradient(values, layers=2)
    assert estimate.bulk_mean == pytest.approx(4.0)


def test_bulk_median_ignores_input_order():
    shuffled = [5.0, 0.0, 300.0, 3.0, 2.0, 200.0, 4.0, 6.0]
    estimate = bulk_median_gradient(shuffled, layers=2)
    assert estimate.bulk_mean == pytest.approx(4.0)


def test_count_outliers_simple_gap():
    values = [1.0, 1.1, 1.2, 9.5, 10.0]
    report = count_outliers_gap(values, threshold=0.1)
    assert report.count == 2
    assert report.predicted == (10.0, 9.5)


def test_count_outliers_uses_largest_qualifying_gap():
    # nested tiers: one huge outlier, then a second tier still gapped from the bulk
    values = [1.0, 1.01, 1.02, 5.0, 5.1, 100.0]
    report = count_outliers_gap(values, threshold=0.03)
    assert report.count == 3


def test_count_outliers_none_when_spectrum_flat():
    values = np.linspace(1.0, 1.05, 30)
    assert count_outliers_gap(values, threshold=0.1).count == 0


def test_count_outliers_validates():
    with pytest.raises(ValueError):
        count_outliers_gap([1.0], threshold=0.1)
    with pytest.raises(ValueError):
        count_outliers_gap([1.0, 2.0], threshold=1.5)
    with pytest.raises(ValueError):
        count_outliers_gap([-2.0, -1.0], threshold=0.1)


def test_block_prediction_values_and_separation():
    spec = LayerBlockSpec(blocks=((100, 2.0, 0.1), (50, 5.0, 0.2)))
    report = predict_outliers_from_blocks(spec)
    assert report.count == 2
    assert report.predicted == (250.0, 200.0)
    assert report.separation_holds


def test_block_prediction_flags_unseparated_noise():
    # sigma sqrt(n) comparable to n mu: heuristic declines to predict
    spec = LayerBlockSpec(blocks=((100, 0.01, 1.0),))
    report = predict_outliers_from_blocks(spec)
    assert not report.separation_holds
    assert report.count == 0


def test_block_spec_validation():
    with pytest.raises(ValueError):
        LayerBlockSpec(blocks=((0, 1.0, 0.1),))
    with pytest.raises(ValueError):
        LayerBlockSpec(blocks=((10, 1.0, -0.1),))
    with pytest.raises(ValueError):
        predict_outliers_from_blocks(LayerBlockSpec(blocks=((10, -1.0, 0.1),)))
