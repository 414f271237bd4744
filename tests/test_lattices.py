import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_oracle import coset_of, det_field, inner, lift, mat_inverse
from test_linalg import symmetric_forms, unimodular
from test_shortvec import skew
from moduliq import qq
from moduliq._linalg import mat_vec
from moduliq._rational import is_integer, mod_q
from moduliq.lattices import (
    ISO_LIMIT,
    Lattice,
    _lattice,
    analyze_isometry,
    build_standard,
    classify_disc_elements,
    direct_sum,
    disc_forms_isomorphic,
    discriminant_group,
    overlattice,
    pairing_census,
    theta1_isometry_matrix,
)
from moduliq.modforms import theta_series
from moduliq.shortvec import count_coset_vectors


def test_standard_constructors():
    a2 = build_standard("A2")
    assert a2.rank == 2 and a2.det() == 3 and a2.is_even()
    assert a2.gram == ((qq(-2), qq(1)), (qq(1), qq(-2)))
    u3 = build_standard("U(3)")
    assert u3.gram == ((qq(0), qq(3)), (qq(3), qq(0)))
    ii = build_standard("II_2_26")
    assert ii.det() == 1 and ii.is_even() and ii.signature() == (2, 26)
    with pytest.raises(ValueError):
        build_standard("E7")


def test_dual_gram_determinant():
    for name in ("A2", "E6", "U(3)", "L_dm"):
        lat = build_standard(name)
        dual = mat_inverse(lat.gram, qq(1), qq(0))
        assert det_field(dual, qq(1), qq(0)) == 1 / lat.det()


@pytest.mark.parametrize(
    "name", ["A2", "E6", "E8", "U(3)", "L_dm", "II_2_18", "II_2_26", "A2(1/3)", "U(2/3)+E6", "0"]
)
def test_det_matches_the_field_echelon(name):
    lat = build_standard(name)
    assert lat.det() == det_field(lat.gram, qq(1), qq(0))


def _fraction_lattice(rows):
    return Lattice(tuple(tuple(qq(x) for x in row) for row in rows))


@given(
    symmetric_forms(),
    symmetric_forms(),
    st.builds(qq, st.integers(-4, 4), st.integers(1, 6)),
    st.integers(2, 6),
)
def test_int_gram_is_the_minimally_scaled_gram(g, h, r, k):
    # each draw and its double, which is even whenever the draw is integral
    for c in (1, 2):
        gram = tuple(tuple(qq(c * x) for x in row) for row in g)
        lat = Lattice(gram)
        s, ints = lat.gram_scale, lat.int_gram
        assert lat.gram == gram
        # the int route at a scale k times the least one gives the same lattice
        same = _lattice([[k * x for x in row] for row in ints], k * s)
        assert same == lat and hash(same) == hash(lat)
        assert (same.gram, same.int_gram, same.gram_scale) == (gram, ints, s)
        assert all(type(x) is int for row in ints for x in row)
        assert [[qq(x) for x in row] for row in ints] == [[s * x for x in row] for row in lat.gram]
        assert math.gcd(s, *(x for row in ints for x in row)) == 1
        integral = all(is_integer(x) for row in lat.gram for x in row)
        assert lat.is_integral() == integral
        even = integral and all(is_integer(row[i] / 2) for i, row in enumerate(lat.gram))
        assert lat.is_even() == even
        assert lat.det() == det_field(lat.gram, qq(1), qq(0))
    # the int builders against Fraction Grams built here: the block sum of two
    # draws, and a draw times r
    n, m = len(g), len(h)
    block = [list(row) + [0] * m for row in g] + [[0] * n + list(row) for row in h]
    scaled = [[r * x for x in row] for row in g]
    for got, rows in ((direct_sum(_fraction_lattice(g), _fraction_lattice(h)), block),
                      (_fraction_lattice(g).rescale(r), scaled)):
        want = _fraction_lattice(rows)
        assert got == want and hash(got) == hash(want)
        assert got.gram == tuple(tuple(qq(x) for x in row) for row in rows)


def test_discriminant_groups():
    assert discriminant_group(build_standard("E8")).invariant_factors == ()
    ldm = discriminant_group(build_standard("L_dm"))
    assert ldm.invariant_factors == (3, 3)
    a2 = discriminant_group(build_standard("A2"))
    assert a2.invariant_factors == (3,)
    # q on the generator: the dual basis vector has norm -2/3
    gen = (1,)
    v = lift(a2, gen)
    assert inner(a2.lattice.gram, v, v) % 2 != 0  # sanity: non-integral value
    assert a2.q(gen) == qq(4, 3)  # -2/3 mod 2


def test_discriminant_group_refuses_degenerate_and_non_integral_grams():
    singular = Lattice(((qq(-2), qq(1), qq(1)), (qq(1), qq(-2), qq(1)), (qq(1), qq(1), qq(-2))))
    with pytest.raises(ValueError, match="^degenerate Gram matrix$"):
        discriminant_group(singular)
    with pytest.raises(ValueError, match="^degenerate Gram matrix$"):
        discriminant_group(build_standard("U+U(0)"))
    with pytest.raises(ValueError, match="^discriminant group needs an integral lattice$"):
        discriminant_group(build_standard("A2(1/2)"))



@pytest.mark.parametrize(
    "rows, message",
    [
        # the first two used to be taken: theta series 1 + 4q + 4q^2, and rank 1
        (((-2, 1), (0, -2)), "^Gram matrix is not symmetric$"),
        (((1, 2),), "^Gram matrix is not square: a row has 2 entries, not 1$"),
        (((qq(1, 2), qq(1, 3)), (qq(1, 2), 1)), "^Gram matrix is not symmetric$"),
        (((-2, 1, 0), (1, -2, 0)), "^Gram matrix is not square: a row has 3 entries, not 2$"),
    ],
)
def test_lattice_refuses_a_gram_that_is_not_square_and_symmetric(rows, message):
    with pytest.raises(ValueError, match=message):
        Lattice(tuple(tuple(qq(x) for x in row) for row in rows))

def test_discriminant_lifts_are_reduced_generators():
    for name in ("A1", "A2", "E6", "A2+A1", "A2+A2", "E6+A2", "L_dm"):
        lat = build_standard(name)
        disc = discriminant_group(lat)
        for i, d in enumerate(disc.invariant_factors):
            gen = lift(disc, tuple(1 if j == i else 0 for j in range(len(disc.invariant_factors))))
            assert all(0 <= x < 1 for x in gen)
            assert all(is_integer(y) for y in mat_vec(lat.gram, gen, qq(0)))
            orders = [k for k in range(1, d + 1) if all(is_integer(k * x) for x in gen)]
            assert orders[0] == d


def test_discriminant_group_of_a_skewed_e8_basis():
    # a unimodular change of basis of E8 whose Smith transforms grow to
    # millions of bits; the group must still come out trivial, quickly, and
    # the walk in its LLL-reduced basis must find the E8 theta series
    gram = [
        [-12, 2, 1, 0, -1, 0, -21, -3],
        [2, -16, -1, 9, 11, 7, 2, 0],
        [1, -1, -2, 1, 1, 0, 5, 0],
        [0, 9, 1, -6, -6, -4, -2, 0],
        [-1, 11, 1, -6, -8, -5, 0, 0],
        [0, 7, 0, -4, -5, -4, 2, 0],
        [-21, 2, 5, -2, 0, 2, -50, -6],
        [-3, 0, 0, 0, 0, 0, -6, -2],
    ]
    lat = Lattice(tuple(tuple(qq(x) for x in row) for row in gram))
    assert lat.det() == 1 and lat.signature() == (0, 8)
    assert discriminant_group(lat).invariant_factors == ()
    assert str(theta_series(lat, None, 3)) == "1 + 240*q + 2160*q^2"


def test_signature_with_a_zero_pivot():
    # e1 + e2 is isotropic here, so the congruence step must take e1 - e2
    lat = Lattice(((qq(0), qq(1)), (qq(1), qq(-2))))
    assert lat.signature() == (1, 1)


def test_census():
    assert classify_disc_elements(build_standard("L_dm")) == {
        "00": 1,
        "0": 4,
        "4/3": 2,
        "2/3": 2,
    }
    assert classify_disc_elements(build_standard("E8")) == {"00": 1}
    assert classify_disc_elements(build_standard("A2")) == {"00": 1, "4/3": 2}


# the published pairing table for the (Z/3)^2 discriminant form:
# (u type, v type) -> counts of b = 0, 1/3, 2/3
EXPECTED_TABLE = {
    ("00", "00"): (1, 0, 0),
    ("00", "0"): (4, 0, 0),
    ("00", "4/3"): (2, 0, 0),
    ("00", "2/3"): (2, 0, 0),
    ("0", "00"): (1, 0, 0),
    ("0", "0"): (2, 1, 1),
    ("0", "4/3"): (0, 1, 1),
    ("0", "2/3"): (0, 1, 1),
    ("4/3", "00"): (1, 0, 0),
    ("4/3", "0"): (0, 2, 2),
    ("4/3", "4/3"): (0, 1, 1),
    ("4/3", "2/3"): (2, 0, 0),
    ("2/3", "00"): (1, 0, 0),
    ("2/3", "0"): (0, 2, 2),
    ("2/3", "4/3"): (2, 0, 0),
    ("2/3", "2/3"): (0, 1, 1),
}


def test_pairing_census_matches_published_table():
    assert pairing_census(build_standard("L_dm")) == EXPECTED_TABLE


def test_pairing_census_rows_sum_to_type_counts():
    census = classify_disc_elements(build_standard("L_dm"))
    table = pairing_census(build_standard("L_dm"))
    for (_u, v), counts in table.items():
        assert sum(counts) == census[v]


def test_theta1_isometry():
    lat = build_standard("U(3)+U")
    report = analyze_isometry(lat, theta1_isometry_matrix())
    assert report.is_isometry
    assert report.order == 3
    assert report.fixed_rank == 0
    assert report.disc_action_trivial
    assert report.min_poly_check


def test_a2_rotation():
    a2 = build_standard("A2")
    g = ((0, -1), (1, -1))  # e1 -> e2, e2 -> -e1-e2 (columns are images)
    report = analyze_isometry(a2, g)
    assert report.is_isometry and report.order == 3 and report.fixed_rank == 0
    assert report.disc_action_trivial and report.min_poly_check


def test_identity_on_e8():
    e8 = build_standard("E8")
    ident = tuple(tuple(1 if i == j else 0 for j in range(8)) for i in range(8))
    report = analyze_isometry(e8, ident)
    assert report.order == 1 and report.fixed_rank == 8


def test_isometry_dimension_mismatch():
    with pytest.raises(ValueError):
        analyze_isometry(build_standard("A2"), ((1,),))


def _a2_dual_gen(block, total_blocks):
    # dual generator of one A2 block inside A2^total_blocks, lattice coords
    v = [qq(0)] * (2 * total_blocks)
    v[2 * block] = qq(-2, 3)
    v[2 * block + 1] = qq(-1, 3)
    return v


def _combine(cols, vecs):
    out = [qq(0)] * len(vecs[0])
    for c, v in zip(cols, vecs):
        for i in range(len(out)):
            out[i] += c * v[i]
    return out


def test_e8_from_a2_glue():
    a2x4 = build_standard("A2+A2+A2+A2")
    gens = [_a2_dual_gen(b, 4) for b in range(4)]
    glue = [
        _combine((1, 1, 1, 0), gens),
        _combine((0, 1, 2, 1), gens),
    ]
    big = overlattice(a2x4, glue)
    assert big.rank == 8
    assert big.det() == 1
    assert big.is_even()
    assert big.signature() == (0, 8)
    # 240 roots makes it the even unimodular negative definite rank-8 lattice
    assert count_coset_vectors(big, None, qq(-2)) == 240


def test_overlattice_trivial_glue():
    a2 = build_standard("A2")
    out = overlattice(a2, [])
    assert out.gram == a2.gram


def test_overlattice_rejects_anisotropic_glue():
    a2x4 = build_standard("A2+A2+A2+A2")
    gens = [_a2_dual_gen(b, 4) for b in range(4)]
    with pytest.raises(ValueError):
        overlattice(a2x4, [_combine((1, 0, 0, 0), gens)])


def test_overlattice_determinant_law_randomized():
    # criterion: |det M_H| * |H|^2 = |det M| on randomized glue
    rng = random.Random(2024)
    pieces = ["A2", "A2(-1)", "U(3)"]
    found = 0
    for _ in range(12):
        names = [rng.choice(pieces) for _ in range(rng.randint(2, 3))]
        lat = build_standard("+".join(names))
        disc = discriminant_group(lat)
        isotropic = [
            el
            for el in disc.elements()
            if el != disc.zero() and disc.q(el) == 0
        ]
        if not isotropic:
            continue
        el = rng.choice(isotropic)
        glue = [list(lift(disc, el))]
        bigger = overlattice(lat, glue)
        order = 3  # all our glue elements have order three
        assert abs(bigger.det()) * order**2 == abs(lat.det())
        found += 1
    assert found >= 4


def test_disc_form_isomorphism():
    ldm = build_standard("L_dm")
    other = build_standard("U+U+E8+E6+A2")
    assert other.signature() == (2, 18)
    assert disc_forms_isomorphic(ldm, other)
    assert not disc_forms_isomorphic(build_standard("E8"), build_standard("A2"))
    a2 = build_standard("A2")
    a2_pos = build_standard("A2(-1)")
    # q and -q on the order-3 group are NOT isomorphic (values 4/3 vs 2/3)
    assert not disc_forms_isomorphic(a2, a2_pos)
    assert not disc_forms_isomorphic(a2, a2, flip_sign=True)
    assert disc_forms_isomorphic(a2, a2_pos, flip_sign=True)


# discriminant forms of order 2 to 27, well within ISO_LIMIT; A2(-1) and E6
# carry the form of A2 with q negated, and E6+A2 carries the form of U(3).
# A2+A2+A2 and U(3)+A2 share their group (Z/3)^3 but not their form.
ISO_POOL = (
    "A1", "A1+A1", "A2", "A2(-1)", "E6", "A2+A2", "E6+A2", "U(3)", "A2+A2+A2", "U(3)+A2",
)


@st.composite
def skewed_pool_lattices(draw):
    """(a lattice of ISO_POOL, the same lattice on a random basis)."""
    lat = build_standard(draw(st.sampled_from(ISO_POOL)))
    return lat, skew(lat, draw(unimodular(lat.rank)))


@given(skewed_pool_lattices(), st.sampled_from(ISO_POOL), st.booleans())
def test_disc_form_isomorphism_is_a_basis_free_equivalence(case, other_name, flip_sign):
    lat, skewed = case
    other = build_standard(other_name)
    for m in (lat, skewed):
        assert disc_forms_isomorphic(m, m)
    assert disc_forms_isomorphic(lat, skewed) and disc_forms_isomorphic(skewed, lat)
    expected = disc_forms_isomorphic(lat, other, flip_sign)
    assert disc_forms_isomorphic(other, lat, flip_sign) == expected
    assert disc_forms_isomorphic(skewed, other, flip_sign) == expected
    assert disc_forms_isomorphic(other, skewed, flip_sign) == expected


def test_census_limits_name_themselves():
    e8_3 = build_standard("E8(3)")  # |A_M| = 3^8 = 6561
    with pytest.raises(ValueError, match=r"^\|A_M\| = 6561 exceeds ISO_LIMIT = 1000$"):
        disc_forms_isomorphic(e8_3, e8_3)
    big = build_standard("E8(3)+A2")  # |A_M| = 19683
    for census in (classify_disc_elements, pairing_census):
        with pytest.raises(ValueError, match=r"^\|A_M\| = 19683 exceeds CENSUS_LIMIT = 10000$"):
            census(big)


# every lattice named in this file with |A_M| <= ISO_LIMIT (the randomized
# glue test draws sums of A2, A2(-1) and U(3)), the odd lattice A1(3/2), whose
# q is read on the unreduced lifts, and A1+A1+A2 and A2(3), whose invariant
# factors (2, 6) and (3, 9) differ, so the exponent is not every factor and
# b_ij divides by d_i d_j with d_i != d_j; each is also checked on a skewed basis
FORM_POOL = (
    "A1", "A1+A1", "A2", "A2(-1)", "A2+A1", "A2+A2", "A2+A2+A2", "A2+A2+A2+A2",
    "A2+A2(-1)+U(3)", "E6", "E8", "E6+A2", "U(3)", "U(3)+U", "U(3)+A2", "L_dm",
    "U+U+E8+E6+A2", "II_2_26", "A1(3/2)", "A1+A1+A2", "A2(3)",
)


def check_int_forms(disc, partners):
    """q and b of the int table against <x, y> of the Fraction lifts: q on
    every element, b on every element against each of partners."""
    for e1 in disc.elements():
        v1 = lift(disc, e1)
        assert disc.q(e1) == mod_q(inner(disc.lattice.gram, v1, v1), qq(2))
        for e2 in partners:
            assert disc.b(e1, e2) == mod_q(inner(disc.lattice.gram, v1, lift(disc, e2)), qq(1))


def test_the_form_pool_is_within_iso_limit():
    assert all(discriminant_group(build_standard(name)).order <= ISO_LIMIT for name in FORM_POOL)
    assert not build_standard("A1(3/2)").is_even()
    assert discriminant_group(build_standard("A1+A1+A2")).invariant_factors == (2, 6)
    assert discriminant_group(build_standard("A2(3)")).invariant_factors == (3, 9)


@pytest.mark.parametrize("name", FORM_POOL)
@settings(max_examples=3)
@given(data=st.data())
def test_int_forms_match_the_fraction_lifts(name, data):
    # b on every pair up to order 27; against 9 drawn partners above that
    # (order 81, where all pairs take seconds)
    lat = build_standard(name)
    for m in (lat, skew(lat, data.draw(unimodular(lat.rank)))):
        disc = discriminant_group(m)
        elements = list(disc.elements())
        if len(elements) > 27:
            elements = data.draw(st.lists(st.sampled_from(elements), min_size=9, max_size=9))
        check_int_forms(disc, elements)


@pytest.mark.parametrize("name", FORM_POOL)
def test_discriminant_group_holds_only_ints(name):
    # the int columns, the form table and every centre are Python ints, and
    # each centre is the Fraction lift in lowest terms
    disc = discriminant_group(build_standard(name))
    for col, d in zip(disc.columns, disc.invariant_factors):
        assert all(type(c) is int and 0 <= c < d for c in col)
    assert all(type(x) is int for x in disc.q_table)
    assert all(type(x) is int for row in disc.b_table for x in row)
    for el in disc.elements():
        ints, m = disc.center(el)
        assert type(m) is int and all(type(x) is int for x in ints)
        assert math.gcd(m, *ints) == 1
        assert tuple(qq(x, m) for x in ints) == lift(disc, el)


@pytest.mark.parametrize("name", FORM_POOL)
@settings(max_examples=2)
@given(data=st.data())
def test_reduce_vector_matches_the_fraction_scan(name, data):
    # each element's lift moved by a drawn lattice vector, and drawn vectors
    # over the exponent, which need not lie in the dual lattice
    lat = build_standard(name)
    for m in (lat, skew(lat, data.draw(unimodular(lat.rank)))):
        disc = discriminant_group(m)
        shift = st.lists(st.integers(-3, 3), min_size=m.rank, max_size=m.rank)
        for el in disc.elements():
            v = [x + z for x, z in zip(lift(disc, el), data.draw(shift))]
            assert disc.reduce_vector(v) == coset_of(disc, v) == el
        n = disc.exponent
        for _ in range(3):
            v = [qq(t, n) for t in data.draw(st.lists(st.integers(0, n), min_size=m.rank, max_size=m.rank))]
            try:
                expected = coset_of(disc, v)
            except ValueError:
                with pytest.raises(ValueError, match="^vector does not lie in the dual lattice$"):
                    disc.reduce_vector(v)
            else:
                assert disc.reduce_vector(v) == expected


def test_overlattice_checks_its_glue_at_the_boundary():
    lat = build_standard("U(3)+U")
    for glue in ([qq(1, 3), 0], [qq(1, 3), 0, 0, 0, 0]):
        with pytest.raises(ValueError, match=f"^glue vector has {len(glue)} coordinates, not the rank 4$"):
            overlattice(lat, [glue])
    # G v = (0, 3/2, 0, 0) is not integral
    with pytest.raises(ValueError, match="^vector does not lie in the dual lattice$"):
        overlattice(lat, [[qq(1, 2), 0, 0, 0]])


def test_reduce_vector_refuses_a_vector_of_another_length():
    disc = discriminant_group(build_standard("A2+A2"))
    assert disc.reduce_vector([qq(1, 3), qq(2, 3), 0, 0]) == (1, 0)
    for v in ([qq(1, 3), qq(2, 3)], [qq(1, 3), qq(2, 3), 0, 0, 5]):
        with pytest.raises(ValueError, match=f"^vector has {len(v)} coordinates, not the rank 4$"):
            disc.reduce_vector(v)


def test_isometry_refuses_a_non_integer_matrix():
    a2 = build_standard("A2")
    for half in (qq(1, 2), 1 / 2):
        with pytest.raises(ValueError, match="^1/2 is not an integer$"):
            analyze_isometry(a2, ((half, 0), (0, 1)))


@pytest.mark.parametrize("name", FORM_POOL)
def test_minus_one_acts_trivially_exactly_on_two_elementary_groups(name):
    lat = build_standard(name)
    disc = discriminant_group(lat)
    minus_one = [[-1 if i == j else 0 for j in range(lat.rank)] for i in range(lat.rank)]
    report = analyze_isometry(lat, minus_one)
    assert report.is_isometry and report.fixed_rank == 0 and not report.min_poly_check
    assert report.order == (1 if lat.rank == 0 else 2)
    two_elementary = all(disc.add(el, el) == disc.zero() for el in disc.elements())
    assert report.disc_action_trivial == two_elementary
