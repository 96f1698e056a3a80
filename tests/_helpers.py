"""Matrices the tests build words and reference reductions from."""

from formclass.forms import UnimodMatrix

SWAP = UnimodMatrix(0, -1, 1, 0)


def translation(m: int) -> UnimodMatrix:
    """[[1, m], [0, 1]]; acts on forms by b -> b + 2am."""
    return UnimodMatrix(1, m, 0, 1)
