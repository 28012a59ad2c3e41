"""The rest of the sample module's suite: zero is not positive."""

from sample import positive


def test_zero_is_not_positive():
    assert not positive(0)
