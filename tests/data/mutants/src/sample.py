"""The module that ``tests/test_mutants.py`` sweeps: three mutants, one of each verdict."""

from functools import lru_cache

LABEL = 'single-quoted'  # a comment with 'quotes' and a < that no mutant may rewrite


@lru_cache(maxsize=8)
def positive(x):
    return x > 0
