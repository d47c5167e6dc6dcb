import math

import pytest

from ratcirc.arith import factored_value, factored_value_below, factorial_factored, factorize

LIMIT = 2 ** 63


@pytest.mark.parametrize(
    "f, want",
    [
        ({}, 1),
        ({2: 62}, 2 ** 62),
        ({2: 63}, None),
        ({3: 39}, 3 ** 39),
        ({3: 40}, None),
        ({3: 10 ** 12}, None),  # refused from the exponent, never computed
        ({2: 31, 3: 19}, 2 ** 31 * 3 ** 19),
        ({2: 32, 3: 20}, None),  # each factor fits, the product does not
    ],
)
def test_factored_value_below_2_to_63(f, want):
    assert factored_value_below(f, LIMIT) == want
    if want is not None:
        assert want == factored_value(f)


def test_factorial_factored_is_fresh_and_exact():
    for n in [0, 1, 2, 10, 97, 360]:
        first = factorial_factored(n)
        assert first == (factorize(math.factorial(n)) if n > 1 else {})
        assert list(first) == sorted(first)
        first[2] = -1  # the caller's copy; the memoised pairs are immutable
        assert factorial_factored(n) == (factorize(math.factorial(n)) if n > 1 else {})
    with pytest.raises(ValueError):
        factorial_factored(-1)
