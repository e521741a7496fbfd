import mpmath
import pytest

from crowdfdb import accuracy_loss_bound, fairness_violation_bound


def mp_fairness_bound(n, n_gold, gamma) -> float:
    """50-digit independent evaluation of the fairness-slack inflation."""
    with mpmath.workdps(50):
        g = mpmath.mpf(str(gamma))
        inner = 1 - g ** (mpmath.mpf(1) / (2 * n))
        return float(2 * mpmath.sqrt((-mpmath.log(inner) + mpmath.log(2)) / (2 * n_gold)))


def mp_accuracy_bound(n, n_gold, gamma, beta) -> float:
    with mpmath.workdps(50):
        g = mpmath.mpf(str(gamma))
        b = mpmath.mpf(str(beta))
        inner = 1 - g ** (mpmath.mpf(1) / (4 * n))
        return float(2 * n * b * mpmath.sqrt((-mpmath.log(inner) + mpmath.log(2)) / (2 * n_gold)))


class TestFairnessViolationBound:
    def test_quadrupling_gold_halves_delta(self):
        for n, gamma, n_gold in ((1, 0.9, 5), (17, 0.5, 12), (400, 0.99, 20)):
            d1 = fairness_violation_bound(n, n_gold, gamma)
            d4 = fairness_violation_bound(n, 4 * n_gold, gamma)
            assert d1 / d4 == pytest.approx(2.0, abs=1e-12)

    def test_single_worker_against_high_precision(self):
        got = fairness_violation_bound(1, 20, 0.95)
        assert got == pytest.approx(mp_fairness_bound(1, 20, 0.95), rel=1e-12)

    def test_tiny_confidence_boundary(self):
        got = fairness_violation_bound(3, 20, 1e-12)
        assert got == pytest.approx(mp_fairness_bound(3, 20, 1e-12), rel=1e-12)

    def test_large_worker_count_stability(self):
        # the naive 1 - gamma**(1/(2n)) loses digits at n=400; ours must not
        got = fairness_violation_bound(400, 20, 0.9)
        assert got == pytest.approx(mp_fairness_bound(400, 20, 0.9), rel=1e-12)

    def test_strictly_decreasing_in_gold_count(self):
        values = [fairness_violation_bound(10, n_gold, 0.9) for n_gold in (1, 2, 5, 20, 100, 1000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_strictly_increasing_in_confidence(self):
        values = [
            fairness_violation_bound(10, 20, g)
            for g in (0.01, 0.2, 0.5, 0.8, 0.95, 0.999)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_query_validation(self):
        """Each calculator checks n, N_g and the confidence, in that order;
        accuracy_loss_bound then checks beta."""
        for args, message in (
            ((0, 20, 0.9, 0.01), "n_workers must be >= 1, got 0"),
            ((5, 0, 0.9, 0.01), "n_gold_per_type must be >= 1, got 0"),
            ((5, 20, 1.0, 0.01), "confidence must lie in (0, 1), got 1.0"),
            ((0, 0, 1.0, 1.0), "n_workers must be >= 1, got 0"),
            ((5, 20, 0.0, -0.1), "confidence must lie in (0, 1), got 0.0"),
        ):
            for call in (lambda: fairness_violation_bound(*args[:3]), lambda: accuracy_loss_bound(*args)):
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            accuracy_loss_bound(5, 20, 0.9, 1.0)
        assert str(err.value) == "beta must lie in [0, 1), got 1.0"


class TestAccuracyLossBound:
    def test_zero_beta_gives_zero(self):
        for n, n_gold, gamma in ((1, 5, 0.5), (50, 20, 0.9), (400, 100, 0.99)):
            assert accuracy_loss_bound(n, n_gold, gamma, beta=0.0) == 0.0

    def test_linear_in_beta(self):
        lo = accuracy_loss_bound(30, 20, 0.9, beta=0.02)
        hi = accuracy_loss_bound(30, 20, 0.9, beta=0.04)
        assert hi == pytest.approx(2.0 * lo, rel=1e-14)

    def test_experiment_scale_against_high_precision(self):
        got = accuracy_loss_bound(400, 20, 0.9, beta=0.01)
        assert got == pytest.approx(mp_accuracy_bound(400, 20, 0.9, 0.01), rel=1e-12)

    def test_monotone_in_gold_and_confidence(self):
        by_gold = [accuracy_loss_bound(10, g, 0.9, beta=0.1) for g in (1, 5, 20, 80)]
        assert all(a > b for a, b in zip(by_gold, by_gold[1:]))
        by_conf = [accuracy_loss_bound(10, 20, g, beta=0.1) for g in (0.1, 0.5, 0.9, 0.999)]
        assert all(a < b for a, b in zip(by_conf, by_conf[1:]))
