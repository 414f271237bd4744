"""Plain reference for Q(w), w^2 + w + 1 = 0, shared by the test oracles.

``Cyc`` holds a + b w as two ``fractions.Fraction`` coordinates and does
each operation by its textbook formula, so it shares nothing with the
integer triples of ``moduliq.scalars.CycNum``.  ``ref`` turns a ``CycNum``,
an int or any rational into a ``Cyc``; the oracles compute on ``Cyc`` alone
and the tests compare their results with ``ref`` of the code under test.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Cyc:
    a: Fraction
    b: Fraction

    def __add__(self, other):
        other = ref(other)
        return Cyc(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = ref(other)
        return Cyc(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return ref(other) - self

    def __neg__(self):
        return Cyc(-self.a, -self.b)

    def __mul__(self, other):
        other = ref(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        # (a + bw)(c + dw) = (ac - bd) + (ad + bc - bd) w  using w^2 = -1 - w
        return Cyc(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def conj(self):
        # w -> w^2 = -1 - w
        return Cyc(self.a - self.b, -self.b)

    def norm(self):
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        c = self.conj()
        return Cyc(c.a / n, c.b / n)

    def __truediv__(self, other):
        return self * ref(other).inverse()

    def __rtruediv__(self, other):
        return ref(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        for _ in range(k):
            result = result * self
        return result

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def is_integral(self):
        return self.a.denominator == 1 and self.b.denominator == 1

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            wpart = "w"
        elif self.b == -1:
            wpart = "-w"
        else:
            wpart = f"{self.b}*w"
        if self.a == 0:
            return wpart
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {wpart.lstrip('-')}"


def ref(x) -> Cyc:
    """x as a Cyc: a Cyc as it is, anything with coordinates .a and .b (a
    ``CycNum``) by those, and an int or a rational as x + 0 w."""
    if isinstance(x, Cyc):
        return x
    if hasattr(x, "b"):
        return Cyc(Fraction(x.a), Fraction(x.b))
    return Cyc(Fraction(x), Fraction(0))


ZERO = Cyc(Fraction(0), Fraction(0))
ONE = Cyc(Fraction(1), Fraction(0))
OMEGA = Cyc(Fraction(0), Fraction(1))
