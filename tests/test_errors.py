"""errors.check_int, the one rule for every integer setting."""

import math

import numpy as np
import pytest

from ensattack.errors import ConfigError, LayerSpecError, check_int


@pytest.mark.parametrize("value", [0, 7, -3, 10**400, np.int64(5), np.uint8(2), np.int32(-1)])
def test_check_int_takes_python_and_numpy_integers(value):
    check_int("n", value)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0, 2.5, np.float64(3.0),
                                   "3", None, math.nan])
def test_check_int_refuses_everything_else(value):
    with pytest.raises(ValueError, match=r"^n must be an integer, got "):
        check_int("n", value)


def test_check_int_holds_a_minimum_and_raises_the_error_it_is_given():
    check_int("n", 2, 2)
    check_int("n", np.int64(2), 2)
    with pytest.raises(ValueError, match=r"^n must be an integer >= 2, got 1$"):
        check_int("n", 1, 2)
    with pytest.raises(ConfigError, match=r"^seed must be an integer, got 1\.5$"):
        check_int("seed", 1.5, error=ConfigError)
    with pytest.raises(LayerSpecError, match=">= 1, got 0"):
        check_int("dense in_features", 0, 1, LayerSpecError)

