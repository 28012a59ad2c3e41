"""The sample module's test subset: it misses ``>`` made ``>=``."""

from sample import positive


def test_one_is_positive_and_minus_one_is_not():
    assert positive(1) and not positive(-1)
