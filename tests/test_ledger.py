import math

import pytest

from moduliq import qq
from moduliq.ledger import (
    UNKNOWN,
    DivisorExpr,
    InconsistentError,
    Lin,
    Relation,
    RelationSet,
    UnderdeterminedError,
    consistency_report,
    discriminant_pullback_multiplicity,
    hassett_keel_relations,
    k_equiv_obstruction,
    kirwan_discrepancy,
    kirwan_exceptional_coefficient,
    normal_bundle_bidegree,
    ordered_k_formulas,
    section4_relations,
    solve_unknown,
    top_intersection_T9,
    top_intersection_factors,
)


def test_vital_coefficients_match_printed_values():
    assert ordered_k_formulas() == {
        2: qq(-2, 11),
        3: qq(5, 11),
        4: qq(10, 11),
        5: qq(13, 11),
        6: qq(14, 11),
    }
    assert discriminant_pullback_multiplicity(12) == 15 == math.comb(6, 2)


def test_rederivations():
    assert kirwan_exceptional_coefficient() == 4
    assert solve_unknown(hassett_keel_relations("discriminant")) == qq(-2, 11)
    assert solve_unknown(hassett_keel_relations("pullback")) == 15


def test_solver_is_order_invariant():
    rels = hassett_keel_relations("exceptional")
    flipped = RelationSet.make(list(reversed(rels.relations)), rels.independent)
    assert solve_unknown(rels) == solve_unknown(flipped) == 4


def test_solver_error_modes():
    d2 = DivisorExpr.of("D2")
    with pytest.raises(UnderdeterminedError):
        solve_unknown(RelationSet.make([Relation("t", d2, d2)], independent=("D2",)))
    # a leftover constant: D2 = 2 D2 with D2 independent
    with pytest.raises(InconsistentError, match="inconsistent$"):
        solve_unknown(RelationSet.make([Relation("t", d2, d2.scale(2))], independent=("D2",)))
    # two different values of x: x h1 = h1 and x h2 = 2 h2
    two_values = [
        Relation("h1", DivisorExpr.of("h1", UNKNOWN), DivisorExpr.of("h1")),
        Relation("h2", DivisorExpr.of("h2", UNKNOWN), DivisorExpr.of("h2", 2)),
    ]
    with pytest.raises(InconsistentError, match="in the unknown"):
        solve_unknown(RelationSet.make(two_values, independent=("h1", "h2")))
    assert issubclass(InconsistentError, ValueError)
    assert issubclass(UnderdeterminedError, ValueError)


def test_products_of_the_unknown_are_refused():
    carries_x = DivisorExpr.of("A", UNKNOWN)
    with pytest.raises(ValueError, match="two unknown-carrying coefficients"):
        carries_x.substitute({"A": DivisorExpr.of("B", UNKNOWN)})
    # eliminating K from x K = D through the pivot K = x D needs x^2 D
    quadratic = [
        Relation("pivot", DivisorExpr.of("K"), DivisorExpr.of("D", UNKNOWN)),
        Relation("carrier", DivisorExpr.of("K", UNKNOWN), DivisorExpr.of("D")),
    ]
    with pytest.raises(ValueError) as excinfo:
        solve_unknown(RelationSet.make(quadratic, independent=("D",)))
    assert excinfo.type is ValueError


def test_solver_pivots_on_x_free_coefficients():
    # K carries 1 + x in the first row, so K = 2 D must be the pivot:
    # (1 + x) 2 D = D gives x = -1/2
    rels = [
        Relation("mixed", DivisorExpr.of("K", Lin(1, 1)), DivisorExpr.of("D")),
        Relation("plain", DivisorExpr.of("K"), DivisorExpr.of("D", 2)),
    ]
    assert solve_unknown(RelationSet.make(rels, independent=("D",))) == qq(-1, 2)


@pytest.mark.parametrize("factor", [qq(-3, 7), qq(5), qq(1, 12)])
def test_solver_is_scale_invariant(factor):
    def scaled(rels):
        rows = [Relation(r.name, r.lhs.scale(factor), r.rhs.scale(factor)) for r in rels.relations]
        return RelationSet.make(rows, rels.independent)

    for slot, value in (("exceptional", 4), ("discriminant", qq(-2, 11)), ("pullback", 15)):
        assert solve_unknown(scaled(hassett_keel_relations(slot))) == value
    report = consistency_report(scaled(section4_relations()))
    assert report.conflicts == ("K_tor = pi*K_BB + 16T (as printed)",)
    # the repair replaces the whole scaled coefficient 16 * factor
    assert [value for *_, value in report.repairs] == [-16 * factor]


def test_discrepancy_two_thirds():
    assert kirwan_discrepancy() == qq(2, 3)


def test_normal_bundle():
    assert normal_bundle_bidegree() == (qq(-1), qq(-1))


def test_section4_consistency_report():
    report = consistency_report(section4_relations())
    assert not report.consistent
    assert report.conflicts == ("K_tor = pi*K_BB + 16T (as printed)",)
    # the unique single-coefficient repair flips the boundary orientation
    assert len(report.repairs) == 1
    relation, cls, side, value = report.repairs[0]
    assert relation == "K_tor = pi*K_BB + 16T (as printed)"
    assert cls == "T" and side == "rhs" and value == -16


def test_section4_subsystem_without_printed_relation_is_consistent():
    rels = section4_relations()
    kept = [r for r in rels.relations if "as printed" not in r.name]
    sub = RelationSet.make(kept, rels.independent)
    assert consistency_report(sub).consistent


def test_section4_entails_minus_16():
    # replace the printed relation by one with an unknown boundary coefficient
    rels = section4_relations()
    kept = [r for r in rels.relations if "as printed" not in r.name]
    candidate = Relation(
        "K_tor = pi*K_BB + xT",
        DivisorExpr.of("Ktor"),
        DivisorExpr.of("KBB") + DivisorExpr.make({"T": UNKNOWN}),
    )
    x = solve_unknown(RelationSet.make(kept + [candidate], rels.independent))
    assert x == -16


def test_trivial_consistency_cases():
    assert consistency_report(RelationSet.make([], ())).consistent
    one = DivisorExpr.of("1")
    x = DivisorExpr.of("x")
    bad = RelationSet.make(
        [Relation("a", x, one), Relation("b", x, one.scale(2))], independent=("1",)
    )
    report = consistency_report(bad)
    assert not report.consistent
    assert set(report.conflicts) == {"a", "b"}


def test_top_intersection():
    assert top_intersection_T9() == qq(7, 103680)
    assert top_intersection_T9() == qq(7) / (144 * math.factorial(6))
    assert top_intersection_factors() == (462, 70)


def test_k_equivalence_obstruction():
    report = k_equiv_obstruction()
    assert report.delta9_required == qq(16**9 * 7, 9**9 * 144 * 720)
    assert report.valuation_at_3 == -22
    assert report.contradiction
    # internal cross-check: (16/9)^-9 times the required value is T^9
    assert report.delta9_required * qq(9, 16) ** 9 == top_intersection_T9()
