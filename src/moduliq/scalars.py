"""Arithmetic foundations: rationals, the field Q(w) with w^2+w+1=0, p-adic valuations.

Elements of Q(w) are stored as a + b*w on the basis (1, w).  Conjugation
sends w to w^2 = -1-w, and the square root of -3 is the exact element
1 + 2w.  All operations are pure and values immutable.
"""

import math
from dataclasses import dataclass

from ._rational import QQ, den, fmt_q, num, qq

__all__ = [
    "CycNum",
    "OMEGA",
    "OMEGA_POWERS",
    "SQRT_M3",
    "cyc",
    "cyc_conj_norm",
    "int_pairs",
    "is_prime",
    "omega_pow",
    "padic_valuation",
    "root_of_unity_6",
    "QQ",
    "qq",
]


@dataclass(frozen=True)
class CycNum:
    """a + b*w with w a primitive cube root of unity."""

    a: object
    b: object

    def __add__(self, other):
        other = cyc(other)
        return CycNum(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = cyc(other)
        return CycNum(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return cyc(other) - self

    def __neg__(self):
        return CycNum(-self.a, -self.b)

    def __mul__(self, other):
        other = cyc(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        # (a + bw)(c + dw) = (ac - bd) + (ad + bc - bd) w  using w^2 = -1 - w
        return CycNum(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def conj(self) -> "CycNum":
        # w -> w^2 = -1 - w
        return CycNum(self.a - self.b, -self.b)

    def norm(self):
        """self * conj(self), a non-negative rational."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> "CycNum":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        c = self.conj()
        return CycNum(c.a / n, c.b / n)

    def __truediv__(self, other):
        return self * cyc(other).inverse()

    def __rtruediv__(self, other):
        return cyc(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CYC_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def rational(self):
        if self.b != 0:
            raise ValueError(f"{self} has a nonzero w-part")
        return self.a

    def is_integral(self) -> bool:
        """True when both coordinates are rational integers (element of Z[w])."""
        return den(self.a) == 1 and den(self.b) == 1

    def __str__(self) -> str:
        if self.b == 0:
            return fmt_q(self.a)
        if self.b == 1:
            wpart = "w"
        elif self.b == -1:
            wpart = "-w"
        else:
            wpart = f"{fmt_q(self.b)}*w"
        if self.a == 0:
            return wpart
        sign = "+" if self.b > 0 else "-"
        mag = wpart.lstrip("-")
        return f"{fmt_q(self.a)} {sign} {mag}"

    __repr__ = __str__


def int_pairs(terms):
    """(D, [(k, x, y), ...]) for (k, c) terms, with each c = (x + y w) / D
    over one common denominator D: the ints the exact kernels loop on."""
    d = math.lcm(*(den(z) for _, c in terms for z in (c.a, c.b)))
    return d, [
        (k, num(c.a) * (d // den(c.a)), num(c.b) * (d // den(c.b))) for k, c in terms
    ]


def cyc(x) -> CycNum:
    """Coerce a rational/int/CycNum to CycNum."""
    if isinstance(x, CycNum):
        return x
    return CycNum(qq(x), qq(0))


CYC_ZERO = cyc(0)
CYC_ONE = cyc(1)
OMEGA = CycNum(qq(0), qq(1))
SQRT_M3 = CycNum(qq(1), qq(2))  # (1 + 2w)^2 = -3
OMEGA_POWERS = (CYC_ONE, OMEGA, OMEGA * OMEGA)  # w^0, w^1, w^2 = -1 - w


def omega_pow(k: int) -> CycNum:
    return OMEGA_POWERS[k % 3]


def root_of_unity_6(j: int) -> CycNum:
    """exp(2*pi*i*j/6) as an element of Q(w)."""
    # exp(pi i j / 3) = (-w^2)^j; (-w^2) is the primitive sixth root.
    w2j = OMEGA_POWERS[2 * j % 3]
    return w2j if j % 2 == 0 else -w2j


def cyc_conj_norm(x) -> tuple:
    """Return (conjugate, norm) of an element of Q(w)."""
    z = cyc(x)
    return z.conj(), z.norm()


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
