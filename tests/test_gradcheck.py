"""grad_check, the one comparison of analytic gradients against central
finite differences, on parameter objects with known gradients."""

from dataclasses import dataclass

import numpy as np
import pytest

from eegfpn.errors import NumericError
from eegfpn.gradcheck import grad_check


@dataclass
class Theta:
    v: np.ndarray


class TestGradCheck:
    def test_quadratic_is_exact_to_fd_accuracy(self):
        error = grad_check(
            Theta(np.array([1.0, 2.0])),
            lambda p: float(np.sum(p.v ** 2)), lambda p: Theta(2.0 * p.v),
        )
        assert error < 1e-8

    def test_constant_loss_has_zero_error(self):
        error = grad_check(
            Theta(np.array([3.0, -1.0, 0.5])),
            lambda p: 4.2, lambda p: Theta(np.zeros_like(p.v)),
        )
        assert error == 0.0

    def test_wrong_gradient_is_flagged(self):
        error = grad_check(
            Theta(np.array([1.5])),
            lambda p: float(np.sum(p.v ** 2)), lambda p: Theta(3.0 * p.v),
        )
        assert error > 0.2

    def test_nonfinite_loss_raises(self):
        with pytest.raises(NumericError):
            grad_check(Theta(np.array([1.0])), lambda p: float("nan"), lambda p: p)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            grad_check(Theta(np.array([1.0])), lambda p: 0.0, lambda p: p, epsilon=0.0)
