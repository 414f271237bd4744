"""The field Q(w) with w^2+w+1=0 over the rationals of ``_rational``.

An element of Q(w) is held as ints (x, y, d) meaning (x + y w) / d on the
basis (1, w), in lowest terms with d > 0: integer coordinates over one
common denominator (Cohen, GTM 138, 4.2), so each operation is a few int
products and one gcd.  Conjugation sends w to w^2 = -1-w, and the square
root of -3 is the exact element 1 + 2w.  Values are immutable.
"""

import math
from fractions import Fraction

from ._rational import QQ, den, fmt_q, num, qq

__all__ = [
    "CycNum",
    "OMEGA",
    "OMEGA_POWERS",
    "SQRT_M3",
    "cyc",
    "omega_pow",
    "root_of_unity_6",
    "QQ",
    "qq",
]


class CycNum:
    """(x + y w) / d with w a primitive cube root of unity, held as ints x, y,
    d in lowest terms with d > 0 and never changed after construction;
    ``CycNum(a, b)`` is a + b w for two rationals (or anything qq takes)."""

    __slots__ = ("x", "y", "d")

    def __init__(self, a, b):
        a, b = qq(a), qq(b)
        d = math.lcm(den(a), den(b))
        self.x, self.y, self.d = num(a) * d // den(a), num(b) * d // den(b), d

    @classmethod
    def of(cls, x: int, y: int, d: int = 1) -> "CycNum":
        """(x + y w) / d for ints x, y and d != 0, reduced by one gcd."""
        g = math.gcd(x, y, d) if d > 0 else -math.gcd(x, y, d)
        z = object.__new__(cls)
        z.x, z.y, z.d = x // g, y // g, d // g
        return z

    a = property(lambda self: qq(self.x, self.d), doc="The rational coordinate on 1.")
    b = property(lambda self: qq(self.y, self.d), doc="The rational coordinate on w.")

    def __eq__(self, other):
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.d == other.d

    def __hash__(self):
        return hash((self.x, self.y, self.d))

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        d, e = self.d, other.d
        return CycNum.of(self.x * e + other.x * d, self.y * e + other.y * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else other + -self

    def __neg__(self):
        return CycNum.of(-self.x, -self.y, self.d)

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        x, y, u, v = self.x, self.y, other.x, other.y
        # (x + yw)(u + vw) = (xu - yv) + (xv + yu - yv) w  using w^2 = -1 - w
        return CycNum.of(x * u - y * v, x * v + y * u - y * v, self.d * other.d)

    __rmul__ = __mul__

    def conj(self) -> "CycNum":
        # w -> w^2 = -1 - w
        return CycNum.of(self.x - self.y, -self.y, self.d)

    def norm(self):
        """self * conj(self), a non-negative rational."""
        x, y = self.x, self.y
        return qq(x * x - x * y + y * y, self.d * self.d)

    def inverse(self) -> "CycNum":
        # conj / norm = ((x - y) - y w) d / (x^2 - xy + y^2)
        x, y, d = self.x, self.y, self.d
        n = x * x - x * y + y * y
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        return CycNum.of((x - y) * d, -y * d, n)

    def __truediv__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self * other.inverse()

    def __rtruediv__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result, base = CYC_ONE, self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_rational(self) -> bool:
        return self.y == 0

    def rational(self):
        if self.y != 0:
            raise ValueError(f"{self} has a nonzero w-part")
        return self.a

    def is_integral(self) -> bool:
        """True when both coordinates are rational integers (element of Z[w])."""
        return self.d == 1

    def __str__(self) -> str:
        x, y, d = self.x, self.y, self.d
        if y == 0:
            return fmt_q(self.a)
        wpart = "w" if y == d else "-w" if y == -d else f"{fmt_q(self.b)}*w"
        if x == 0:
            return wpart
        return f"{fmt_q(self.a)} {'+' if y > 0 else '-'} {wpart.lstrip('-')}"

    __repr__ = __str__


def _operand(x):
    """x as a CycNum if it is one, an int or a rational; None (NotImplemented) else."""
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction, QQ)):
        return CycNum.of(num(x), 0, den(x))
    return None


def cyc(x) -> CycNum:
    """Coerce a rational/int/CycNum to CycNum."""
    return x if isinstance(x, CycNum) else CycNum(x, 0)


CYC_ZERO = cyc(0)
CYC_ONE = cyc(1)
OMEGA = CycNum(0, 1)
SQRT_M3 = CycNum(1, 2)  # (1 + 2w)^2 = -3
OMEGA_POWERS = (CYC_ONE, OMEGA, OMEGA * OMEGA)  # w^0, w^1, w^2 = -1 - w


def omega_pow(k: int) -> CycNum:
    return OMEGA_POWERS[k % 3]


def root_of_unity_6(j: int) -> CycNum:
    """exp(2*pi*i*j/6) as an element of Q(w)."""
    # exp(pi i j / 3) = (-w^2)^j; (-w^2) is the primitive sixth root.
    w2j = OMEGA_POWERS[2 * j % 3]
    return w2j if j % 2 == 0 else -w2j
