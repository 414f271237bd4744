"""Exact linear algebra over named divisor classes.

A relation equates two formal Q-linear combinations of class symbols, with
coefficients that may carry one shared unknown (affine expressions a + b*x).
Certain classes are declared independent (they span freely, like the
automorphic bundle and the boundary); a relation set is inconsistent when
Gaussian elimination of the dependent symbols leaves a nonzero combination
of independent classes.  Affine constants are modeled through the reserved
independent class "1".

A coefficient is a ``Lin``, whose constructor is the one place a number
becomes a backend rational, and ``Lin.scale`` is the one product: by a
rational, or by a ``Lin`` when at most one factor carries x.  One
elimination, ``_leftover``, reduces the residual rows lhs - rhs of a
relation set; ``solve_unknown`` reads the unknown off it, and
``consistency_report`` reads conflicts and repairs off it, one row left out at a time.

The module ships the canonical-bundle bookkeeping for twelve points: the
Hassett-Keel formulas for the ordered spaces, the ball-quotient relations
on the unordered side (including the one printed relation whose boundary
orientation conflicts with the rest of the system), the top intersection
number of the toroidal boundary, and the 3-adic obstruction to
K-equivalence of the two resolutions.
"""

import math
from collections import namedtuple

from ._rational import ZERO, Frozen, fmt_q, padic_valuation, qq

__all__ = [
    "ConsistencyReport",
    "DivisorExpr",
    "InconsistentError",
    "KEquivalenceReport",
    "Lin",
    "Relation",
    "RelationSet",
    "UNKNOWN",
    "UnderdeterminedError",
    "consistency_report",
    "discriminant_pullback_multiplicity",
    "hassett_keel_relations",
    "k_equiv_obstruction",
    "kirwan_discrepancy",
    "kirwan_exceptional_coefficient",
    "normal_bundle_bidegree",
    "ordered_k_formulas",
    "section4_relations",
    "solve_unknown",
    "top_intersection_T9",
    "top_intersection_factors",
    "vital_coefficient",
]


class Lin(Frozen):
    """Affine expression a + b*x in the shared unknown.  The constructor is
    the one coercion: a and b are held as backend rationals, b = 0 by default."""

    _fields = __slots__ = ("a", "b")

    def __init__(self, a, b=ZERO):
        init = object.__setattr__
        init(self, "a", qq(a))
        init(self, "b", qq(b))

    @staticmethod
    def of(v) -> "Lin":
        return v if isinstance(v, Lin) else Lin(v)

    def __add__(self, other):
        return Lin(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return Lin(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return Lin(-self.a, -self.b)

    def scale(self, c):
        """self * c for a rational c, or for a Lin c as long as the product
        stays affine (ValueError when both factors carry x)."""
        if isinstance(c, Lin):
            if c.b:
                if self.b:
                    raise ValueError("product of two unknown-carrying coefficients")
                return Lin(self.a * c.a, self.a * c.b)
            c = c.a
        return Lin(self.a * c, self.b * c)

    def is_zero(self):
        return not (self.a or self.b)

    def __str__(self):
        if not self.b:
            return fmt_q(self.a)
        if not self.a:
            return f"{fmt_q(self.b)}*x"
        return f"{fmt_q(self.a)} + {fmt_q(self.b)}*x"


UNKNOWN = Lin(0, 1)


class DivisorExpr(Frozen):
    """Formal linear combination of named classes, coefficients affine in x."""

    _fields = __slots__ = ("coeffs",)  # sorted tuple of (name, nonzero Lin)

    @staticmethod
    def make(mapping: dict) -> "DivisorExpr":
        items = []
        for name, c in mapping.items():
            c = Lin.of(c)
            if not c.is_zero():
                items.append((name, c))
        items.sort(key=lambda kv: kv[0])
        return DivisorExpr(tuple(items))

    @staticmethod
    def of(name: str, coeff=1) -> "DivisorExpr":
        return DivisorExpr.make({name: coeff})

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def __add__(self, other: "DivisorExpr") -> "DivisorExpr":
        out = self.as_dict()
        for name, c in other.coeffs:
            out[name] = out[name] + c if name in out else c
        return DivisorExpr.make(out)

    def __sub__(self, other: "DivisorExpr") -> "DivisorExpr":
        return self + other.scale(-1)

    def scale(self, c) -> "DivisorExpr":
        """Every coefficient times c, a rational or a Lin (see Lin.scale)."""
        return DivisorExpr.make({n: v.scale(c) for n, v in self.coeffs})

    def substitute(self, pullback: dict) -> "DivisorExpr":
        """Replace each class by its image expression where the map defines one."""
        out = DivisorExpr.make({})
        for name, c in self.coeffs:
            out = out + pullback.get(name, DivisorExpr.of(name)).scale(c)
        return out

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*{n}" for n, c in self.coeffs)


class Relation(Frozen):
    """A named equation lhs = rhs of two DivisorExpr."""

    _fields = __slots__ = ("name", "lhs", "rhs")

    def residual(self) -> DivisorExpr:
        return self.lhs - self.rhs


class RelationSet(Frozen):
    """Relations and the names of the classes that span freely."""

    _fields = __slots__ = ("relations", "independent")

    @staticmethod
    def make(relations, independent=()) -> "RelationSet":
        return RelationSet(tuple(relations), tuple(independent))


# ---------------------------------------------------------------------------
# solving


class UnderdeterminedError(ValueError):
    pass


class InconsistentError(ValueError):
    pass


def _leftover(residuals, independent) -> list:
    """The residual rows lhs - rhs (dicts class -> nonzero Lin, left as they
    are) after eliminating every class not in independent; rows that vanish
    are dropped.

    Dependent classes are pivoted out in name order, each through the first
    row whose coefficient on it is free of x; a class that only appears with
    x-carrying coefficients stays.  ValueError if a step multiplies x by x.
    """
    rows = [dict(row) for row in residuals]
    dependent = sorted({name for row in rows for name in row} - set(independent))
    for name in dependent:
        pivot = next((row for row in rows if name in row and not row[name].b), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = 1 / pivot[name].a
        pivot = [(n, v.scale(inv)) for n, v in pivot.items()]
        for row in rows:
            c = row.get(name)
            if c is None:
                continue
            for n, v in pivot:
                new = row[n] - v.scale(c) if n in row else -v.scale(c)
                if new.is_zero():
                    del row[n]
                else:
                    row[n] = new
    return [row for row in rows if row]


def solve_unknown(rels: RelationSet):
    """The unique rational value of the shared unknown coefficient.

    Dependent class symbols are eliminated first; the leftover equations on
    the independent classes must pin the unknown uniquely.  The result does
    not depend on the order of the relations.
    """
    rows = _leftover([rel.residual().as_dict() for rel in rels.relations], rels.independent)
    return _pin_unknown(rows)


def _pin_unknown(rows):
    """The one value of x that makes every leftover row vanish."""
    solution = None
    for row in rows:
        for c in row.values():
            if not c.b:
                raise InconsistentError("system is inconsistent")
            value = -c.a / c.b
            if solution is None:
                solution = value
            elif solution != value:
                raise InconsistentError("system is inconsistent in the unknown")
    if solution is None:
        raise UnderdeterminedError("system does not determine the unknown")
    return solution


# conflicts: names of relations whose removal restores consistency; residuals:
# leftover combinations of independent classes; repairs: (relation, class,
# side, repaired coefficient)
ConsistencyReport = namedtuple("ConsistencyReport", "consistent conflicts residuals repairs")


def consistency_report(rels: RelationSet) -> ConsistencyReport:
    """Detect relations that conflict with the rest and propose repairs.

    A conflict is a nonzero leftover combination of independent classes
    after eliminating every dependent symbol.  For each single relation
    whose removal restores consistency, each of its classes is tried as the
    carrier of a repaired coefficient; repairs that make the full system
    consistent are reported with their unique value.
    """
    # every residual row is built once, and each elimination below reads them
    rows = [rel.residual().as_dict() for rel in rels.relations]
    bad = _leftover(rows, rels.independent)
    if not bad:
        return ConsistencyReport(True, (), (), ())
    conflicts = []
    repairs = []
    for rel, residual in zip(rels.relations, rows):
        others = [row for r, row in zip(rels.relations, rows) if r.name != rel.name]
        if _leftover(others, rels.independent):
            continue
        conflicts.append(rel.name)
        for name in residual:
            sides = {"lhs": rel.lhs.as_dict(), "rhs": rel.rhs.as_dict()}
            side = "lhs" if name in sides["lhs"] else "rhs"
            sides[side][name] = UNKNOWN
            candidate = (DivisorExpr.make(sides["lhs"]) - DivisorExpr.make(sides["rhs"])).as_dict()
            try:
                value = _pin_unknown(_leftover(others + [candidate], rels.independent))
            except ValueError:  # InconsistentError, UnderdeterminedError or x*x
                continue
            repairs.append((rel.name, name, side, value))
    residuals = tuple(tuple(sorted((n, str(v)) for n, v in row.items())) for row in bad)
    return ConsistencyReport(False, tuple(conflicts), residuals, tuple(repairs))


# ---------------------------------------------------------------------------
# the twelve-points ledgers


def vital_coefficient(n: int, k: int):
    """Canonical-bundle coefficient of the vital divisor D_k for n points:
    k(n-k)/(n-1) - 2."""
    return qq(k * (n - k), n - 1) - 2


def discriminant_pullback_multiplicity(n: int) -> int:
    """Vanishing order of the discriminant along the locus where n/2 points
    collide: pairs within the colliding half."""
    return math.comb(n // 2, 2)


def hassett_keel_relations(unknown_slot: str = None) -> RelationSet:
    """The ordered twelve-points canonical-bundle system.

    Classes: K (of the blow-up), D2, D6 (vital divisors on the blow-up),
    phi*D2 expanded through the pullback D2 + 15 D6.  unknown_slot picks one
    printed coefficient to re-derive: 'exceptional' (the 4), 'discriminant'
    (the -2/11), or 'pullback' (the 15).
    """
    # the printed coefficients -2/11, 15 and 4; one of them may become x
    printed = {
        "discriminant": vital_coefficient(12, 2),
        "pullback": discriminant_pullback_multiplicity(12),
        "exceptional": 4,
    }
    if unknown_slot is not None:
        if unknown_slot not in printed:
            raise ValueError(f"unknown slot {unknown_slot!r}")
        printed[unknown_slot] = UNKNOWN
    c2, mult, exc = printed["discriminant"], printed["pullback"], printed["exceptional"]
    # K = c2 D2 + c6 D6  and  K = c2 (D2 + mult D6) + exc D6
    r1 = Relation(
        "K on the blow-up (vital coefficients)",
        DivisorExpr.of("K"),
        DivisorExpr.make({"D2": c2, "D6": vital_coefficient(12, 6)}),
    )
    r2 = Relation(
        "K via the pullback of the discriminant",
        DivisorExpr.of("K"),
        DivisorExpr.make({"D2": 1, "D6": mult}).scale(c2) + DivisorExpr.of("D6", exc),
    )
    return RelationSet.make([r1, r2], independent=("D2", "D6"))


def kirwan_exceptional_coefficient():
    """Re-derive the coefficient 4 of the exceptional divisor."""
    return solve_unknown(hassett_keel_relations("exceptional"))


def ordered_k_formulas() -> dict:
    """Printed canonical-bundle coefficients for the whole blow-up tower,
    all reproduced by the vital-coefficient rule."""
    return {k: vital_coefficient(12, k) for k in (2, 3, 4, 5, 6)}


def kirwan_discrepancy():
    """Discrepancy of the exceptional divisor for the pair with 5/6 boundary.

    From K_blowup = f*K + 9 E and f*(discriminant) = strict + 10 E:
    solve K_blowup + (5/6) strict = f*(K + (5/6) disc) + x E.
    """
    L = DivisorExpr.of
    pullback = {
        "K_blowup": L("fK") + L("E", 9),  # canonical bundle of the blow-up
        "f_disc": L("strict") + L("E", 10),  # pullback of the discriminant
    }
    log_discrepancy = Relation(
        "log discrepancy",
        L("K_blowup") + L("strict", qq(5, 6)),
        L("fK") + L("f_disc", qq(5, 6)) + L("E", UNKNOWN),
    )
    # substitute the two pullbacks and solve for x on the class E
    combined = log_discrepancy.residual().substitute(pullback)
    system = RelationSet.make(
        [Relation("combined", combined, DivisorExpr.make({}))],
        independent=("E", "fK", "strict"),
    )
    return solve_unknown(system)


def normal_bundle_bidegree():
    """Bidegree of the normal bundle of a boundary component P^4 x P^4.

    Adjunction: (K + E)|_E = K_{P4 x P4} = O(-5, -5) with E|_E = O(x, x)
    entering with multiplicity 4 + 1; solve 5x = -5 on each factor.
    """
    rel = Relation(
        "adjunction on the boundary",
        DivisorExpr.make({"h1": Lin(0, 5), "h2": Lin(0, 5)}),
        DivisorExpr.make({"h1": -5, "h2": -5}),
    )
    x = solve_unknown(RelationSet.make([rel], independent=("h1", "h2")))
    return (x, x)


def section4_relations() -> RelationSet:
    """The ball-quotient canonical-bundle system on the unordered side.

    Symbols: Ktor, KBB (pulled back), L (automorphic bundle), HBB (pulled
    back), Htor, T (toroidal boundary); L and T are independent.  The
    relation named 'K_tor = pi*K_BB + 16T (as printed)' carries the
    orientation that conflicts with the rest of the system; the repair is
    the unique coefficient flip restoring consistency.
    """
    L = DivisorExpr.of
    rels = [
        Relation("K_tor = pi*K_BB + 16T (as printed)", L("Ktor"), L("KBB") + L("T", 16)),
        Relation("K_BB = 10L - (5/6)HBB", L("KBB"), L("L", 10) - L("HBB", qq(5, 6))),
        Relation("K_tor = 10L - (5/6)Htor - T", L("Ktor"), L("L", 10) - L("Htor", qq(5, 6)) - L("T")),
        Relation("pi*HBB = Htor - 18T", L("HBB"), L("Htor") - L("T", 18)),
        Relation("44L = (1/6)HBB", L("L", 44), L("HBB", qq(1, 6))),
        Relation("K_BB = -210L", L("KBB"), L("L", -210)),
        Relation("K_tor = -210L - 16T", L("Ktor"), L("L", -210) - L("T", 16)),
    ]
    return RelationSet.make(rels, independent=("L", "T"))


def top_intersection_factors():
    """(component count, top coefficient) = ((1/2) binom(12,6), binom(8,4))
    = (462, 70): the boundary components and each one's top intersection."""
    return math.comb(12, 6) // 2, math.comb(8, 4)


def top_intersection_T9():
    """Top self-intersection of the toroidal boundary:
    binom(8,4) * (1/2) binom(12,6) / 12! = 7/103680."""
    components, per_component = top_intersection_factors()
    return qq(per_component * components) / math.factorial(12)


KEquivalenceReport = namedtuple("KEquivalenceReport", "delta9_required valuation_at_3 contradiction")


def k_equiv_obstruction() -> KEquivalenceReport:
    """The 3-adic obstruction: K-equivalence would force the exceptional
    divisor's ninth power to equal (16/9)^9 T^9, whose 3-adic valuation is
    negative, contradicting the prime-to-3 stabilizer orders over it."""
    required = qq(16, 9) ** 9 * top_intersection_T9()
    v3 = padic_valuation(required, 3)
    return KEquivalenceReport(required, v3, v3 < 0)
