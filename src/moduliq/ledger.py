"""Exact linear algebra over named divisor classes.

A relation equates two formal Q-linear combinations of class symbols, with
coefficients that may carry one shared unknown (affine expressions a + b*x).
Certain classes are declared independent (they span freely, like the
automorphic bundle and the boundary); a relation set is inconsistent when
Gaussian elimination of the dependent symbols leaves a nonzero combination
of independent classes.  Affine constants are modeled through the reserved
independent class "1".

The module ships the canonical-bundle bookkeeping for twelve points: the
Hassett-Keel formulas for the ordered spaces, the ball-quotient relations
on the unordered side (including the one printed relation whose boundary
orientation conflicts with the rest of the system), the top intersection
number of the toroidal boundary, and the 3-adic obstruction to
K-equivalence of the two resolutions.
"""

import math
from collections import namedtuple

from ._rational import Frozen, fmt_q, qq
from .scalars import padic_valuation

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
    """Affine expression a + b*x in the shared unknown."""

    _fields = __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        super().__init__(a, b)

    @staticmethod
    def of(v) -> "Lin":
        if isinstance(v, Lin):
            return v
        return Lin(qq(v), qq(0))

    def __add__(self, other):
        other = Lin.of(other)
        return Lin(qq(self.a) + qq(other.a), qq(self.b) + qq(other.b))

    def __sub__(self, other):
        other = Lin.of(other)
        return Lin(qq(self.a) - qq(other.a), qq(self.b) - qq(other.b))

    def __neg__(self):
        return Lin(-qq(self.a), -qq(self.b))

    def scale(self, c):
        c = qq(c)
        return Lin(qq(self.a) * c, qq(self.b) * c)

    def is_zero(self):
        return qq(self.a) == 0 and qq(self.b) == 0

    def __str__(self):
        if qq(self.b) == 0:
            return fmt_q(qq(self.a))
        if qq(self.a) == 0:
            return f"{fmt_q(qq(self.b))}*x"
        return f"{fmt_q(qq(self.a))} + {fmt_q(qq(self.b))}*x"


UNKNOWN = Lin(qq(0), qq(1))


class DivisorExpr(Frozen):
    """Formal linear combination of named classes, coefficients affine in x."""

    _fields = __slots__ = ("coeffs",)  # sorted tuple of (name, Lin)

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
        return DivisorExpr.make({name: Lin.of(coeff)})

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def coeff(self, name: str) -> Lin:
        for n, c in self.coeffs:
            if n == name:
                return c
        return Lin(qq(0), qq(0))

    def __add__(self, other: "DivisorExpr") -> "DivisorExpr":
        out = self.as_dict()
        for name, c in other.coeffs:
            out[name] = out.get(name, Lin(qq(0))) + c
        return DivisorExpr.make(out)

    def __sub__(self, other: "DivisorExpr") -> "DivisorExpr":
        out = self.as_dict()
        for name, c in other.coeffs:
            out[name] = out.get(name, Lin(qq(0))) - c
        return DivisorExpr.make(out)

    def scale(self, c) -> "DivisorExpr":
        return DivisorExpr.make({n: v.scale(c) for n, v in self.coeffs})

    def substitute(self, pullback: dict) -> "DivisorExpr":
        """Replace each class by its image expression where the map defines one."""
        out = DivisorExpr.make({})
        for name, c in self.coeffs:
            image = pullback.get(name, DivisorExpr.of(name))
            out = out + image.scale_lin(c)
        return out

    def scale_lin(self, c: Lin) -> "DivisorExpr":
        if qq(c.b) != 0:
            out = {}
            for name, v in self.coeffs:
                if qq(v.b) != 0:
                    raise ValueError("product of two unknown-carrying coefficients")
                out[name] = Lin(qq(v.a) * qq(c.a), qq(v.a) * qq(c.b))
            return DivisorExpr.make(out)
        return self.scale(qq(c.a))

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

    def class_names(self):
        names = set()
        for rel in self.relations:
            for expr in (rel.lhs, rel.rhs):
                names.update(n for n, _ in expr.coeffs)
        return sorted(names)


# ---------------------------------------------------------------------------
# solving


def _lin_rows(rels: RelationSet, skip=None):
    rows = []
    for rel in rels.relations:
        if skip is not None and rel.name == skip:
            continue
        rows.append({name: c for name, c in rel.residual().coeffs})
    return rows


def _reduce_rows(rows, dependent_order):
    """Eliminate dependent symbols using unknown-free pivots.

    rows: list of dicts name -> Lin.  Returns the leftover reduced rows
    (each a dict with only nonzero entries).  Raises if elimination would
    need the product of two unknown-carrying coefficients.
    """
    rows = [dict(r) for r in rows]
    for pivot_name in dependent_order:
        pivot_row = None
        for r in rows:
            c = r.get(pivot_name)
            if c is not None and not c.is_zero() and qq(c.b) == 0:
                pivot_row = r
                break
        if pivot_row is None:
            # tolerate a symbol that only appears with unknown coefficients
            continue
        pv = qq(pivot_row[pivot_name].a)
        for r in rows:
            if r is pivot_row:
                continue
            c = r.get(pivot_name)
            if c is None or c.is_zero():
                continue
            f_a = qq(c.a) / pv
            f_b = qq(c.b) / pv
            for name, v in pivot_row.items():
                if f_b != 0 and qq(v.b) != 0:
                    raise ValueError("elimination produced a quadratic term")
                prev = r.get(name, Lin(qq(0)))
                r[name] = Lin(
                    qq(prev.a) - f_a * qq(v.a),
                    qq(prev.b) - f_a * qq(v.b) - f_b * qq(v.a),
                )
        rows.remove(pivot_row)
    return [
        {n: v for n, v in r.items() if not v.is_zero()}
        for r in rows
        if any(not v.is_zero() for v in r.values())
    ]


class UnderdeterminedError(ValueError):
    pass


class InconsistentError(ValueError):
    pass


def _scan_solution(leftover):
    """Unique unknown value from reduced rows, or the failure mode."""
    solution = None
    for r in leftover:
        for _name, c in r.items():
            a, b = qq(c.a), qq(c.b)
            if b == 0:
                if a != 0:
                    raise InconsistentError("system is inconsistent")
                continue
            val = -a / b
            if solution is None:
                solution = val
            elif solution != val:
                raise InconsistentError("system is inconsistent in the unknown")
    if solution is None:
        raise UnderdeterminedError("system does not determine the unknown")
    return solution


def solve_unknown(rels: RelationSet, unknown: str = "x"):
    """The unique rational value of the shared unknown coefficient.

    Dependent class symbols are eliminated first; the leftover equations on
    the independent classes must pin the unknown uniquely.  The result does
    not depend on the order of the relations.
    """
    dependent = [n for n in rels.class_names() if n not in rels.independent]
    leftover = _reduce_rows(_lin_rows(rels), dependent)
    return _scan_solution(leftover)


# conflicts: names of relations whose removal restores consistency; residuals:
# leftover combinations of independent classes; repairs: (relation, class,
# side, repaired coefficient)
ConsistencyReport = namedtuple("ConsistencyReport", "consistent conflicts residuals repairs")


def _leftover_numeric(rels: RelationSet, skip=None):
    dependent = [n for n in rels.class_names() if n not in rels.independent]
    return _reduce_rows(_lin_rows(rels, skip=skip), dependent)


def consistency_report(rels: RelationSet) -> ConsistencyReport:
    """Detect relations that conflict with the rest and propose repairs.

    A conflict is a nonzero leftover combination of independent classes
    after eliminating every dependent symbol.  For each single relation
    whose removal restores consistency, each of its classes is tried as the
    carrier of a repaired coefficient; repairs that make the full system
    consistent are reported with their unique value.
    """
    bad = _leftover_numeric(rels)
    if not bad:
        return ConsistencyReport(True, (), (), ())
    conflicts = []
    repairs = []
    for rel in rels.relations:
        if _leftover_numeric(rels, skip=rel.name):
            continue
        conflicts.append(rel.name)
        for name, _c in rel.residual().coeffs:
            mended_lhs = rel.lhs.as_dict()
            mended_rhs = rel.rhs.as_dict()
            if name in mended_lhs:
                mended_lhs[name] = UNKNOWN
                side = "lhs"
            else:
                mended_rhs[name] = UNKNOWN
                side = "rhs"
            candidate = Relation(
                rel.name, DivisorExpr.make(mended_lhs), DivisorExpr.make(mended_rhs)
            )
            others = [r for r in rels.relations if r.name != rel.name]
            try:
                value = solve_unknown(
                    RelationSet.make(others + [candidate], rels.independent)
                )
            except (InconsistentError, UnderdeterminedError, ValueError):
                continue
            repairs.append((rel.name, name, side, value))
    frozen = tuple(
        tuple(sorted((n, str(v)) for n, v in r.items())) for r in bad
    )
    return ConsistencyReport(False, tuple(conflicts), frozen, tuple(repairs))


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
    c2 = vital_coefficient(12, 2)   # -2/11
    c6 = vital_coefficient(12, 6)   # 14/11
    mult = discriminant_pullback_multiplicity(12)  # 15
    exc = qq(4)
    lin_c2 = Lin.of(c2)
    lin_mult = Lin.of(mult)
    lin_exc = Lin.of(exc)
    if unknown_slot == "exceptional":
        lin_exc = UNKNOWN
    elif unknown_slot == "discriminant":
        lin_c2 = UNKNOWN
    elif unknown_slot == "pullback":
        lin_mult = UNKNOWN
    elif unknown_slot is not None:
        raise ValueError(f"unknown slot {unknown_slot!r}")
    # K = c2 D2 + c6 D6  and  K = c2 (D2 + mult D6) + exc D6
    r1 = Relation(
        "K on the blow-up (vital coefficients)",
        DivisorExpr.of("K"),
        DivisorExpr.make({"D2": lin_c2, "D6": c6}),
    )
    pullback_expr = DivisorExpr.make({"D2": Lin.of(1), "D6": lin_mult})
    r2 = Relation(
        "K via the pullback of the discriminant",
        DivisorExpr.of("K"),
        pullback_expr.scale_lin(lin_c2) + DivisorExpr.make({"D6": lin_exc}),
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
    r1 = Relation(
        "canonical bundle of the blow-up",
        DivisorExpr.of("K_blowup"),
        DivisorExpr.of("fK") + DivisorExpr.of("E", 9),
    )
    r2 = Relation(
        "pullback of the discriminant",
        DivisorExpr.of("f_disc"),
        DivisorExpr.of("strict") + DivisorExpr.of("E", 10),
    )
    r3 = Relation(
        "log discrepancy",
        DivisorExpr.of("K_blowup") + DivisorExpr.of("strict", qq(5, 6)),
        DivisorExpr.of("fK")
        + DivisorExpr.of("f_disc", qq(5, 6))
        + DivisorExpr.make({"E": UNKNOWN}),
    )
    # substitute r1, r2 into r3 and solve for x on the class E
    resid = r3.lhs - r3.rhs
    sub = {
        "K_blowup": r1.rhs,
        "f_disc": r2.rhs,
    }
    system = RelationSet.make(
        [Relation("combined", resid.substitute(sub), DivisorExpr.make({}))],
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
        DivisorExpr.make({"h1": Lin(qq(0), qq(5)), "h2": Lin(qq(0), qq(5))}),
        DivisorExpr.make({"h1": qq(-5), "h2": qq(-5)}),
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
        Relation(
            "K_tor = pi*K_BB + 16T (as printed)",
            L("Ktor"),
            L("KBB") + L("T", 16),
        ),
        Relation(
            "K_BB = 10L - (5/6)HBB",
            L("KBB"),
            L("L", 10) - L("HBB", qq(5, 6)),
        ),
        Relation(
            "K_tor = 10L - (5/6)Htor - T",
            L("Ktor"),
            L("L", 10) - L("Htor", qq(5, 6)) - L("T"),
        ),
        Relation(
            "pi*HBB = Htor - 18T",
            L("HBB"),
            L("Htor") - L("T", 18),
        ),
        Relation(
            "44L = (1/6)HBB",
            L("L", 44),
            L("HBB", qq(1, 6)),
        ),
        Relation(
            "K_BB = -210L",
            L("KBB"),
            L("L", -210),
        ),
        Relation(
            "K_tor = -210L - 16T",
            L("Ktor"),
            L("L", -210) - L("T", 16),
        ),
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
