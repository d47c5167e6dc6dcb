import math

import pytest

from ratcirc.arith import factored_value, factored_value_below, factorial_items, factorize

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


def test_factorial_items_are_exact():
    for n in [0, 1, 2, 10, 97, 360]:
        items = factorial_items(n)
        assert dict(items) == (factorize(math.factorial(n)) if n > 1 else {})
        assert [p for p, _ in items] == sorted(p for p, _ in items)
    with pytest.raises(ValueError):
        factorial_items(-1)
