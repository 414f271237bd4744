"""Exact rational scalars with a compiled fast path.

Every hot kernel in this package (short-vector enumeration, fraction-free
determinants, q-series convolution) bottoms out in rational arithmetic, so
the scalar type is chosen once at import time: gmpy2's GMP-backed ``mpq``
when available, ``fractions.Fraction`` otherwise.  Both types normalize
eagerly and expose ``numerator``/``denominator``, which is all the rest of
the code relies on.

Set ``MODULIQ_BACKEND=fractions`` to force the pure-Python implementation
(``python3 perfbench/backends.py`` runs the benchmark once per backend).

``det_bareiss`` is the package's one int determinant, read by the
discriminant groups of ``lattices`` and the Sylvester determinants of
``luna``.  ``padic_valuation`` (with ``is_prime``) is the one
number-theoretic helper of the ledger, so ``moduliq t9``, ``kequiv`` and
``ledger`` load the ledger and this module only, without the Q(w) scalars.
``Frozen`` is the base of the package's immutable value records; it lives
here because every layer already imports this module.
"""

import math
import os
from fractions import Fraction

_requested = os.environ.get("MODULIQ_BACKEND", "").strip().lower()

if _requested in ("fractions", "fraction", "python"):
    QQ = Fraction
    BACKEND = "fractions"
elif _requested in ("", "gmpy2", "fast"):
    try:
        from gmpy2 import mpq as QQ
        BACKEND = "gmpy2"
    except ImportError:
        if _requested:
            raise
        QQ = Fraction
        BACKEND = "fractions"
else:
    raise RuntimeError(f"unknown MODULIQ_BACKEND={_requested!r}")


def qq(x, y=None):
    """Coerce to the backend rational type.

    ``qq(x, y)`` is the rational x / y of two ints, built and reduced in one
    step (``ZeroDivisionError`` for y = 0).  ``qq(x)`` returns a backend
    rational as it is, parses a string such as ``"3/6"``, and converts an
    int or any other rational.
    """
    if y is not None:
        return QQ(x, y)
    if type(x) is QQ:
        return x
    if isinstance(x, str):
        return QQ(Fraction(x))
    return QQ(x)


ZERO = qq(0)
ONE = qq(1)


def num(x) -> int:
    return int(x.numerator)


def den(x) -> int:
    return int(x.denominator)


def is_integer(x) -> bool:
    return den(x) == 1


def as_int(x) -> int:
    if den(x) != 1:
        raise ValueError(f"{x} is not an integer")
    return num(x)


def floor_q(x) -> int:
    return num(x) // den(x)


def mod_q(x, m):
    """x reduced mod m into [0, m); m a positive rational."""
    return x - m * floor_q(x / m)


def fmt_q(x) -> str:
    """Render a rational as 'p' or 'p/q'."""
    if den(x) == 1:
        return str(num(x))
    return f"{num(x)}/{den(x)}"


def det_bareiss(matrix) -> int:
    """Determinant of a square int matrix by fraction-free Bareiss elimination:
    every division by the previous pivot is exact.  The empty matrix has
    determinant 1."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - lead * row_k[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1] if n else 1


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def padic_valuation(x, p: int):
    """v with x = p^v * (unit at p); math.inf for x = 0.

    Rejects non-prime p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    x = qq(x)
    if x == 0:
        return math.inf
    v = 0
    n = abs(num(x))
    while n % p == 0:
        n //= p
        v += 1
    d = den(x)
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _rebuild(cls, values):
    """The record of class cls with these field values, set as
    ``Frozen.__init__`` sets them, whatever cls's own constructor takes."""
    record = object.__new__(cls)
    Frozen.__init__(record, *values)
    return record


class Frozen:
    """An immutable value record.  A subclass names its fields in ``_fields``
    and ``__slots__``; the fields are set once, by ``Frozen.__init__`` in
    field order.  ``==`` and ``hash`` read the class and the field values, so
    a record never equals a bare tuple, and assigning an attribute raises
    AttributeError.  ``copy``, ``deepcopy`` and ``pickle`` rebuild a record
    from its field values alone, so a slot that is not a field (a cache) is
    left unset in the copy."""

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}")
        for field, value in zip(self._fields, values):
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return _rebuild, (type(self), self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__name__}({fields})"
