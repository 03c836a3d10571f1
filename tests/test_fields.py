import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringgeom.fields import (GF, QQ, FieldSpec, FieldError, FiniteField,
                             parse_field, DEFAULT_POLYS, subfield_embedding)


ORDERS = [2, 3, 4, 5, 7, 8, 9]


@pytest.mark.parametrize("q", ORDERS)
def test_field_axioms_exhaustive(q):
    F = GF(q)
    elems = list(F.elements())
    assert len(elems) == q
    for a in elems:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
    for a, b in itertools.product(elems, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", ORDERS)
def test_frobenius_is_automorphism_fixing_prime_subfield(q):
    F = GF(q)
    fixed = []
    for a in F.elements():
        for b in F.elements():
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a),
                                                     F.frobenius(b))
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a),
                                                     F.frobenius(b))
        if F.frobenius(a) == a:
            fixed.append(a)
    assert len(fixed) == F.p


def test_f4_structure():
    F4 = GF(4)
    w = 2  # the generator
    assert F4.mul(w, w) == F4.add(w, F4.one)
    assert list(F4.elements()) == [0, 1, 2, 3]
    assert [F4.label(a) for a in F4.elements()] == ["0", "1", "w", "1+w"]


def test_f5_inverse():
    assert GF(5).inv(2) == 3


def test_f9_distinct():
    F9 = GF(9)
    assert len(set(F9.elements())) == 9


def test_enumerate_f2():
    assert list(GF(2).elements()) == [0, 1]


def test_enumerate_rationals_fails():
    with pytest.raises(FieldError):
        QQ().elements()


def test_rational_arithmetic_exact():
    Q = QQ()
    assert Q.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    rng = random.Random(0)
    for _ in range(10 ** 5):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert Q.sub(Q.add(a, b), b) == a


@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=500),
       st.fractions(min_value=-1000, max_value=1000, max_denominator=500))
@settings(max_examples=200)
def test_rational_field_ops_hypothesis(a, b):
    Q = QQ()
    assert Q.sub(Q.add(a, b), b) == a
    if b != 0:
        assert Q.mul(Q.div(a, b), b) == a


def test_reducible_polynomial_rejected():
    with pytest.raises(FieldError):
        FiniteField(FieldSpec("extension", 2, 2, (0, 0, 1)))  # x^2
    with pytest.raises(FieldError):
        FiniteField(FieldSpec("extension", 3, 2, (2, 0, 1)))  # x^2+2=(x+1)(x+2)


def test_default_polynomials_documented():
    assert DEFAULT_POLYS[(2, 2)] == (1, 1, 1)
    assert DEFAULT_POLYS[(2, 3)] == (1, 1, 0, 1)
    assert DEFAULT_POLYS[(3, 2)] == (1, 0, 1)


def test_parse_field():
    assert parse_field("F9").q == 9
    assert not parse_field("Q").is_finite
    with pytest.raises(FieldError):
        parse_field("G7")


def test_subfield_embedding_f4_in_f16():
    F4, F16 = GF(4), GF(16)
    emb = subfield_embedding(F4, F16)
    for a in F4.elements():
        for b in F4.elements():
            assert emb[F4.add(a, b)] == F16.add(emb[a], emb[b])
            assert emb[F4.mul(a, b)] == F16.mul(emb[a], emb[b])


def test_height_bound_guard():
    from ringgeom.fields import RationalField
    Q = RationalField(height_bound=10)
    with pytest.raises(FieldError):
        Q.mul(Fraction(9), Fraction(9))


def _scalar_rows(F, c, u, v):
    """The row operations entry by entry, from the scalar operations."""
    return (tuple(F.mul(c, a) for a in u),
            tuple(F.add(a, b) for a, b in zip(u, v)),
            tuple(F.sub(a, F.mul(c, b)) for a, b in zip(u, v)))


def _packed_rows(F, c, u, v):
    """The row operations on the packed rows of u and v, unpacked: c u,
    u + v as a `row_sum` and u - c v; c goes in as the storage code of
    its packed row (c,)."""
    code, pu, pv = F.pack((c,))[0], F.pack(u), F.pack(v)
    total = F.row_sum([F.row_multiple(1, pu), F.row_multiple(1, pv)], len(u))
    return tuple(map(F.unpack, (F.row_scale(code, pu), total,
                                F.row_sub_scaled(pu, code, pv))))


@pytest.mark.parametrize("q", ORDERS + [16, 25, 49])
def test_row_operations_match_scalar_operations(q):
    F = GF(q)
    rng = random.Random(q)
    for n in (0, 1, 2, 7):
        for _ in range(30):
            u, v = ([rng.randrange(q) for _ in range(n)] for _ in "uv")
            c = rng.randrange(q)
            assert F.unpack(F.pack(u)) == tuple(u)
            assert _packed_rows(F, c, u, v) == _scalar_rows(F, c, u, v)


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_characteristic_2_addition_is_xor_of_indices(q):
    F = GF(q)
    assert all(F.add(a, b) == a ^ b
               for a, b in itertools.product(F.elements(), repeat=2))


def test_rational_row_operations_match_and_keep_the_height_guard():
    from ringgeom.fields import RationalField
    Q = QQ()
    u = [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 7)]
    v = [Fraction(2), Fraction(1, 3), Fraction(4), Fraction(-1)]
    c = Fraction(-2, 5)
    assert (Q.row_scale(c, u), Q.row_add(u, v),
            Q.row_sub_scaled(u, c, v)) == _scalar_rows(Q, c, u, v)
    small = RationalField(height_bound=10)
    nine = (Fraction(9),)
    for op in (lambda: small.row_scale(Fraction(9), nine),
               lambda: small.row_add(nine, nine),
               lambda: small.row_sub_scaled(nine, Fraction(-9), nine)):
        with pytest.raises(FieldError):
            op()


@pytest.mark.parametrize("q, poly", [(131, None), (81, (2, 0, 0, 1, 1))])
def test_fields_whose_rows_do_not_fit_a_byte_are_refused(q, poly):
    # two storage codes must sum below 256: p <= 127, and F_81's
    # base-5 codes reach 312
    with pytest.raises(FieldError, match="does not fit byte rows") as err:
        GF(q, poly)
    assert "\n" not in str(err.value)
