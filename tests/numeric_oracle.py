"""Floating-point views of exact values, for the numeric oracles of the test
suite alone: the library itself computes without floats."""

import math

W = complex(-0.5, math.sqrt(3) / 2)


def to_complex(x):
    """The element a + b*w of Q(w) as a complex number."""
    return float(x.a) + W * float(x.b)
