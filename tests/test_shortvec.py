import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box_oracle import box_norm_counts, norm_ladder
from field_oracle import coset_of, inner, lift
from test_linalg import unimodular
from moduliq import _linalg, qq, shortvec
from moduliq._linalg import mat_mul, mat_transpose
from moduliq._rational import is_integer, mod_q
from moduliq.lattices import Lattice, build_standard, discriminant_group
from moduliq.modforms import theta_series
from moduliq.scalars import cyc
from moduliq.shortvec import coset_norm_counts, coset_vectors, count_coset_vectors, root_data


def test_e6_coset_vectors_and_count():
    e6 = build_standard("E6")
    assert count_coset_vectors(e6, (1,), qq(-4, 3)) == 27
    assert len(coset_vectors(e6, (1,), qq(-4, 3))) == 27


def test_published_counts():
    e8 = build_standard("E8")
    e6 = build_standard("E6")
    a2 = build_standard("A2")
    assert count_coset_vectors(e8, None, qq(-2)) == 240
    assert count_coset_vectors(e6, (1,), qq(-4, 3)) == 27
    assert count_coset_vectors(e6, (2,), qq(-4, 3)) == 27
    assert count_coset_vectors(a2, (1,), qq(-2, 3)) == 3
    assert count_coset_vectors(a2, (2,), qq(-2, 3)) == 3


def test_norm_histogram():
    e6 = build_standard("E6")
    # the bound need not lie on the norm grid -4/3 + 2Z of the coset
    assert coset_norm_counts(e6, (1,), -6) == {qq(-4, 3): 27, qq(-10, 3): 216, qq(-16, 3): 459}
    assert coset_norm_counts(build_standard("A2"), None, -2) == {0: 1, -2: 6}
    assert coset_norm_counts(e6, (2,), 0) == {}
    assert coset_norm_counts(Lattice(()), None, -2) == {0: 1}  # rank 0: the zero vector
    with pytest.raises(ValueError):
        coset_norm_counts(e6, (1,), 1)
    with pytest.raises(ValueError):
        coset_norm_counts(build_standard("U"), None, -2)


def test_theta_series_is_one_enumeration(monkeypatch):
    walks = []
    walk = shortvec._walk
    monkeypatch.setattr(shortvec, "_walk", lambda *args: walks.append(args) or walk(*args))
    theta = theta_series(build_standard("E6"), (1,), 4)
    assert len(walks) == 1
    assert [theta.coeff(qq(k, 3)) for k in (2, 5, 8, 11)] == [cyc(n) for n in (27, 216, 459, 1080)]


def test_root_data():
    assert root_data(build_standard("A2")) == (6, 3)
    assert root_data(build_standard("E6")) == (72, 36)
    assert root_data(build_standard("E8")) == (240, 120)


def test_zero_norm():
    a2 = build_standard("A2")
    assert count_coset_vectors(a2, None, 0) == 1  # the zero vector


def test_parity_mismatch_rejected():
    with pytest.raises(ValueError):
        count_coset_vectors(build_standard("A2"), (1,), qq(-2))
    with pytest.raises(ValueError):
        count_coset_vectors(build_standard("A2"), None, qq(-1))


def test_indefinite_rejected():
    with pytest.raises(ValueError):
        count_coset_vectors(build_standard("U"), None, qq(-2))


def test_coset_negation_invariance():
    e6 = build_standard("E6")
    for k in range(1, 4):
        n = qq(-4, 3) - 2 * (k - 1)
        assert count_coset_vectors(e6, (1,), n) == count_coset_vectors(e6, (2,), n)


def test_vectors_are_sorted_and_exact():
    a2 = build_standard("A2")
    vecs = coset_vectors(a2, (1,), qq(-2, 3))
    assert vecs == sorted(vecs)
    for v in vecs:
        assert inner(a2.gram, v, v) == qq(-2, 3)


SMALL_LATTICES = [
    build_standard("A1"),
    build_standard("A2"),
    build_standard("A1+A1"),
    build_standard("A2+A1"),
    build_standard("A2+A2"),
    Lattice(((qq(-2), qq(1)), (qq(1), qq(-4)))),
    Lattice(
        (
            (qq(-4), qq(1), qq(0)),
            (qq(1), qq(-2), qq(1)),
            (qq(0), qq(1), qq(-6)),
        )
    ),
]


def test_bruteforce_oracle_equivalence():
    # ranks <= 4 and |norm| <= 6, against the independent box search
    rng = random.Random(99)
    for lat in SMALL_LATTICES:
        disc = discriminant_group(lat)
        cosets = list(disc.elements())
        for el in rng.sample(cosets, min(3, len(cosets))):
            norms = norm_ladder(disc.q(el) - 2, -6)
            box = box_norm_counts(lat, el, norms[-1])
            brute = {norm: box.get(norm, 0) for norm in norms}
            for norm in norms:
                assert count_coset_vectors(lat, el, norm) == brute[norm]
            # the one-pass theta series has the same coefficients
            theta = theta_series(lat, el, 1 - norms[-1] / 2)
            for n, cnt in brute.items():
                assert theta.coeff(-n / 2) == cyc(cnt)


# even negative definite forms whose discriminant groups have order divisible
# by 5, 7 or 11, so the coset lifts (and, after a shear, the pivots) carry
# denominators other than 2 and 3
DEFINITE_BASES = [
    [[-10]],
    [[-14]],
    [[-22]],
    [[-2, 1], [1, -4]],
    [[-2, 1], [1, -6]],
    [[-4, 1], [1, -4]],
    [[-2, 1], [1, -8]],
    [[-10, 3], [3, -2]],
    [[-2, 1, 0], [1, -2, 1], [0, 1, -4]],
]


@st.composite
def definite_lattices(draw):
    gram = [row[:] for row in draw(st.sampled_from(DEFINITE_BASES))]
    n = len(gram)
    # a few shears e_i -> e_i + s e_j skew a rank-2 basis; rank 3 stays as it
    # is, since the box search grows fast with the skew
    for _ in range(draw(st.integers(0, 3)) if n == 2 else 0):
        i = draw(st.integers(0, 1))
        s = draw(st.sampled_from((-1, 1)))
        for c in range(n):
            gram[i][c] += s * gram[1 - i][c]
        for r in range(n):
            gram[r][i] += s * gram[r][1 - i]
    return Lattice(tuple(tuple(qq(x) for x in row) for row in gram))


@settings(max_examples=10)
@given(definite_lattices())
def test_walk_against_box_search(lat):
    disc = discriminant_group(lat)
    assert any(disc.order % p == 0 for p in (5, 7, 11))
    for el in disc.elements():
        counts = coset_norm_counts(lat, el, -6)
        assert list(counts) == sorted(counts, reverse=True)
        # from the largest norm of the coset down to -6
        norms = norm_ladder(-mod_q(-disc.q(el), qq(2)), -6)
        box = box_norm_counts(lat, el, norms[-1])
        for norm in norms:
            assert count_coset_vectors(lat, el, norm) == box.get(norm, 0)
        assert counts == box


# ---------------------------------------------------------------------------
# the reduced, sign-folded walk on skewed bases


def skew(lat, u):
    """The lattice on the basis U e: Gram U G U^T."""
    gram = mat_mul(mat_mul(u, lat.gram, qq(0)), mat_transpose(u), qq(0))
    return Lattice(tuple(tuple(qq(x) for x in row) for row in gram))


def to_standard(y, u):
    """Coordinates on e of the vector with coordinates y on U e."""
    return tuple(sum(a * row[j] for a, row in zip(y, u)) for j in range(len(u)))


def matching_coset(lat, skewed, u, el):
    """The coset of lat holding the coset el of skewed."""
    return coset_of(discriminant_group(lat), to_standard(lift(discriminant_group(skewed), el), u))


def check_against_standard(lat, u, lowest, cosets=None):
    """Every walk of the skewed basis, coset by coset, equals the walk of the
    standard basis: the histogram, each single-norm count, and the vectors
    of the first nonzero shell mapped by U."""
    skewed = skew(lat, u)
    disc = discriminant_group(skewed)
    for el in cosets or disc.elements():
        std = matching_coset(lat, skewed, u, el)
        counts = coset_norm_counts(skewed, el, lowest)
        assert counts == coset_norm_counts(lat, std, lowest)
        for norm, cnt in counts.items():
            assert count_coset_vectors(skewed, el, norm) == cnt
        shell = max((norm for norm in counts if norm), default=None)
        if shell is not None:
            vecs = coset_vectors(skewed, el, shell)
            assert len(vecs) == counts[shell] and vecs == sorted(vecs)
            assert sorted(to_standard(v, u) for v in vecs) == coset_vectors(lat, std, shell)


@settings(max_examples=12)
@given(st.sampled_from(("E8", "E6", "A2", "E6+A2")).flatmap(
    lambda name: st.tuples(st.just(name), unimodular(build_standard(name).rank))
))
def test_skewed_root_lattices_against_the_standard_basis(case):
    name, u = case
    check_against_standard(build_standard(name), u, -4)


# even forms with an element of order 2 in A_M (of order 10, 14, 22, and
# times 3 with an A2): its coset is its own negative without being M, so the
# fold runs with no zero vector
SELF_OPPOSITE = [
    [[-10]],
    [[-14]],
    [[-22]],
    [[-2, 1, 0], [1, -2, 1], [0, 1, -4]],
    [[-10, 0, 0], [0, -2, 1], [0, 1, -2]],
    [[-14, 0, 0], [0, -2, 1], [0, 1, -2]],
    [[-22, 0, 0], [0, -2, 1], [0, 1, -2]],
]


@settings(max_examples=12)
@given(st.sampled_from(SELF_OPPOSITE).flatmap(
    lambda gram: st.tuples(st.just(gram), unimodular(len(gram), most=4))
))
def test_fold_on_self_opposite_cosets(case):
    gram, u = case
    lat = Lattice(tuple(tuple(qq(x) for x in row) for row in gram))
    disc = discriminant_group(lat)
    halves = [el for el in disc.elements() if el != disc.zero() and disc.add(el, el) == disc.zero()]
    assert halves
    for el in [disc.zero(), *halves]:
        counts = coset_norm_counts(lat, el, -8)
        assert counts == box_norm_counts(lat, el, -8)
        assert (counts.get(0) == 1) == (el == disc.zero())
    skewed = skew(lat, u)
    sk = discriminant_group(skewed)
    check_against_standard(
        lat, u, -8, [el for el in sk.elements() if sk.add(el, el) == sk.zero()]
    )


@pytest.mark.parametrize(
    "lat",
    SMALL_LATTICES
    + [Lattice(tuple(tuple(qq(x) for x in row) for row in gram)) for gram in SELF_OPPOSITE],
)
def test_coset_vectors_are_the_counted_vectors(lat):
    # each shell down to -6 of every coset: as many distinct vectors as the
    # count (checked against the box search above), each of that norm and in
    # that coset, and closed under negation when the coset is its own negative
    disc = discriminant_group(lat)
    for el in disc.elements():
        coset_lift = lift(disc, el)
        for norm in norm_ladder(-mod_q(-disc.q(el), qq(2)), -6):
            vecs = coset_vectors(lat, el, norm)
            assert len(set(vecs)) == len(vecs) == count_coset_vectors(lat, el, norm)
            for v in vecs:
                assert inner(lat.gram, v, v) == norm and all(is_integer(a - b) for a, b in zip(v, coset_lift))
            if disc.neg(el) == el:
                assert {tuple(-a for a in v) for v in vecs} == set(vecs)


# ---------------------------------------------------------------------------
# the walk plan: one LLL per discriminant group


def test_one_lll_per_discriminant_group(monkeypatch):
    calls = []
    lll = _linalg.lll
    monkeypatch.setattr(_linalg, "lll", lambda gram: calls.append(gram) or lll(gram))
    e6 = build_standard("E6")
    discriminant_group.cache_clear()
    for coset in ((0,), (1,), (2,)):
        theta_series(e6, coset, 3)
    assert count_coset_vectors(e6, (1,), qq(-4, 3)) == 27
    assert len(coset_vectors(e6, (2,), qq(-4, 3))) == 27
    assert len(calls) == 1
    # a new group after the cache is cleared builds its own plan
    discriminant_group.cache_clear()
    assert count_coset_vectors(e6, None, -2) == 72
    assert len(calls) == 2


def cold_and_warm_walks(lat, bounds):
    """Each walk of every coset of lat, once on a new group (cold: the walk
    builds the plan) and once on a group whose plan an earlier walk built."""
    discriminant_group.cache_clear()
    warm = discriminant_group(lat)
    shortvec._walk(warm, warm.center(warm.zero()), -2)
    for el in warm.elements():
        for bound in bounds(warm.q(el)):
            discriminant_group.cache_clear()
            cold = discriminant_group(lat)
            assert not hasattr(cold, "walk_plan")
            # the plan is not a field: the two groups are one value
            assert cold == warm and hash(cold) == hash(warm) and repr(cold) == repr(warm)
            cold_vectors, warm_vectors = [], []
            result = shortvec._walk(cold, cold.center(el), bound, cold_vectors)
            assert shortvec._walk(warm, warm.center(el), bound, warm_vectors) == result
            assert warm_vectors == cold_vectors
            yield result, cold_vectors


def test_warm_plan_walks_equal_cold_ones():
    # the shell q - 4 collects vectors; a bound with denominator 5 makes the
    # walk's q a proper multiple of the plan's q_L
    walks = list(cold_and_warm_walks(build_standard("E6+A2"), lambda q: (q - 4, q - qq(21, 5))))
    assert len(walks) == 2 * 9 and all(vectors for _, vectors in walks[::2])
    u = [[1 if j >= i else 0 for j in range(8)] for i in range(8)]
    walks = list(cold_and_warm_walks(skew(build_standard("E8"), u), lambda q: (qq(-4), qq(-11, 5))))
    ((scale, counts), vectors), _ = walks
    assert (counts[0], len(vectors)) == (2160, 2160)


def test_low_rank_walks_leave_the_plan_as_it_was():
    # ranks 0 and 1 pad the walk's D, U and C to two levels; the plan's tuples
    # keep the lattice's rank
    for lat, coset, norm in ((Lattice(()), None, 0), (build_standard("A1"), (1,), qq(-1, 2))):
        disc = discriminant_group(lat)
        runs = [(coset_norm_counts(lat, coset, norm - 4), coset_vectors(lat, coset, norm)) for _ in range(2)]
        assert runs[0] == runs[1] and runs[0][1]
        plan = disc.walk_plan
        assert len(plan[3]) == len(plan[4]) == lat.rank
        assert coset_norm_counts(lat, coset, norm - 4) == runs[0][0] and disc.walk_plan is plan
