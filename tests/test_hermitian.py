import pytest

from cyc_oracle import ref
from hermitian_oracle import herm_inner, ref_matrix, reflection, trace_gram
from moduliq import qq
from moduliq.hermitian import (
    basis_minus_one_vector,
    eisenstein_hermitian_lattice,
    trace_lattice,
    unitary_reflection,
    HermLattice,
)
from moduliq.scalars import CYC_ONE, CYC_ZERO, OMEGA, SQRT_M3, cyc


def test_gram_is_hermitian_and_scaled_integral():
    lat = eisenstein_hermitian_lattice()
    assert lat.rank == 10
    # every entry lies in (1/(1+2w)) Z[w]
    assert all((x * SQRT_M3).is_integral() for row in lat.gram for x in row)


@pytest.mark.parametrize(
    "gram, message",
    [
        # the first used to be taken: a non-symmetric trace form, signature (2, 0)
        (((cyc(2), OMEGA), (CYC_ZERO, cyc(2))), "^Gram matrix is not Hermitian$"),
        (((CYC_ONE, OMEGA),), "^Gram matrix is not square: a row has 2 entries, not 1$"),
        (((OMEGA,),), "^Gram matrix is not Hermitian$"),
    ],
)
def test_herm_lattice_refuses_a_gram_that_is_not_square_and_hermitian(gram, message):
    with pytest.raises(ValueError, match=message):
        HermLattice(gram)


def test_signature_1_9():
    assert eisenstein_hermitian_lattice().signature() == (1, 9)


def test_trace_form_is_even_unimodular_2_18():
    t = trace_lattice(eisenstein_hermitian_lattice())
    assert t.rank == 20
    assert t.is_even()
    assert abs(t.det()) == 1
    assert t.signature() == (2, 18)


def test_trace_of_rank_one():
    # Gram (1): the trace form on (v, w v) is the positive A2 form
    h = HermLattice(((CYC_ONE,),))
    t = trace_lattice(h)
    assert t.gram == ((qq(2), qq(-1)), (qq(-1), qq(2)))
    assert t.det() == 3


def test_reflection_fixes_complement_and_scales_line():
    lat = eisenstein_hermitian_lattice()
    ell = basis_minus_one_vector(lat)
    xi = -OMEGA
    rep = unitary_reflection(lat, ell, xi)
    n = lat.rank
    # image of ell is xi * ell
    image = [CYC_ZERO] * n
    for j in range(n):
        if not ell[j].is_zero():
            for i in range(n):
                image[i] = image[i] + rep.matrix[i][j] * ell[j]
    assert image == [xi * x for x in ell]
    # a vector orthogonal to ell is fixed
    k = next(i for i, x in enumerate(ell) if not x.is_zero())
    for j in range(n):
        col = tuple(CYC_ONE if i == j else CYC_ZERO for i in range(n))
        if herm_inner(lat.gram, col, ell).is_zero():
            assert all(
                rep.matrix[i][j] == (CYC_ONE if i == j else CYC_ZERO) for i in range(n)
            )


def test_reflection_orders_and_integrality():
    """The exact integrality pattern of the reflections at a (-1)-vector.

    With the scaled Gram, pairings against a primitive (-1)-vector fill
    (1/sqrt(-3)) Z[w], so the twist xi preserves the lattice exactly when
    sqrt(-3) divides 1 - xi: true for the order-3 twists w and w^2, false
    for -w (order 6), -w^2 and -1.  The same conclusion follows on the
    trace side, where the twist by -w negates the glue between the
    mirror's A2-plane and its orthogonal complement.
    """
    lat = eisenstein_hermitian_lattice()
    ell = basis_minus_one_vector(lat)
    expected = {
        ("w", OMEGA): (True, 3),
        ("w2", OMEGA * OMEGA): (True, 3),
        ("-w", -OMEGA): (False, 6),
        ("-w2", -(OMEGA * OMEGA)): (False, 6),
        ("-1", -CYC_ONE): (False, 2),
    }
    for (name, xi), (preserves, order) in expected.items():
        rep = unitary_reflection(lat, ell, xi)
        assert rep.preserves_form, name
        assert rep.preserves_lattice == preserves, name
        assert rep.order == order, name


def test_divisibility_criterion_matches():
    # (1 - xi)/sqrt(-3) is integral exactly for xi in {w, w^2}
    units = [OMEGA, OMEGA * OMEGA, -OMEGA, -(OMEGA * OMEGA), -CYC_ONE]
    integral = [((CYC_ONE - xi) / SQRT_M3).is_integral() for xi in units]
    assert integral == [True, True, False, False, False]


def test_reflection_rejects_bad_inputs():
    lat = eisenstein_hermitian_lattice()
    ell = basis_minus_one_vector(lat)
    with pytest.raises(ValueError):
        unitary_reflection(lat, ell, CYC_ONE)  # xi = 1 is not a twist
    with pytest.raises(ValueError):
        unitary_reflection(lat, ell, cyc(2))  # not a unit
    bad = tuple(CYC_ONE for _ in range(10))  # not a (-1)-vector
    with pytest.raises(ValueError):
        unitary_reflection(lat, bad, -OMEGA)


UNITS = (OMEGA, OMEGA * OMEGA, -OMEGA, -(OMEGA * OMEGA), -CYC_ONE)


def test_reflections_match_the_cycnum_oracle():
    lat = eisenstein_hermitian_lattice()
    w = OMEGA
    # a (-1)-vector with five nonzero coordinates, one of them sqrt(-3)
    spread = tuple(
        cyc(x) for x in (-1, CYC_ONE + 2 * w, 1, 1, 0, 0, w, 0, 0, 0)
    )
    for ell in (basis_minus_one_vector(lat), spread):
        assert herm_inner(lat.gram, ell, ell) == ref(-1)
        for xi in UNITS:
            rep = unitary_reflection(lat, ell, xi)
            got = (rep.preserves_lattice, rep.preserves_form, rep.order, ref_matrix(rep.matrix))
            assert got == reflection(lat.gram, ell, xi), (ell, xi)


def test_trace_lattice_matches_the_cycnum_oracle():
    for h in (eisenstein_hermitian_lattice(), HermLattice(((CYC_ONE,),))):
        assert trace_lattice(h).gram == trace_gram(h.gram)
