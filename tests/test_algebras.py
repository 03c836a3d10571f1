import itertools
import random
from fractions import Fraction

import pytest

from ringgeom.fields import GF, QQ
from ringgeom import algebras as alg
from ringgeom.algebras import (cd_chain, cd_double, ground_algebra, classify,
                               radical_bases, truncated_series,
                               AlgebraError, find_isomorphism_to_cd,
                               parse_algebra, quadratic_field_algebra)

import quadric_reference as ref


def test_cd_zero_step_nilpotent():
    A = cd_chain(GF(3), [0], name="F3")
    t = A.basis(1)
    assert A.mul(t, t) == A.zero()


def test_cd_f5_norm_formula():
    F5 = GF(5)
    A = cd_chain(F5, [2], name="F5")
    # N((1,1)) = N(1) - 2 N(1) = -1 = 4, read off from (1,1) * conj(1,1)
    a = (F5.one, F5.one)
    assert A.norm(a) == 4
    for x in A.elements():
        assert A.norm(x) == F5.sub(F5.mul(x[0], x[0]),
                                   F5.mul(2, F5.mul(x[1], x[1])))


def test_cd_f3_minus1_is_field_of_order_9():
    A = cd_chain(GF(3), [GF(3).neg(1)], name="F3")
    assert A.size() == 9
    for a in A.elements():
        if a == A.zero():
            continue
        inv = A.inverse(a)
        assert A.mul(a, inv) == A.one()
    rep = classify(A)
    assert rep.division and rep.commutative and rep.associative


def test_tb_times_tb_vanishes(algebra_cd_f4_over_f2):
    A = algebra_cd_f4_over_f2
    B_dim = A.base_dim
    for b1 in itertools.product(A.field.elements(), repeat=B_dim):
        for b2 in itertools.product(A.field.elements(), repeat=B_dim):
            assert A.mul(A.t_times(b1), A.t_times(b2)) == A.zero()


def test_unit_conj_and_norm():
    A = cd_chain(GF(3), [0], name="F3")
    assert A.conj(A.one()) == A.one()
    assert A.norm(A.one()) == A.field.one


def test_quaternion_norm_and_multiplicativity():
    H = cd_chain(QQ(), [Fraction(-1), Fraction(-1)], name="Q")
    one = Fraction(1)
    assert H.norm((one, one, one, one)) == Fraction(4)
    rng = random.Random(0)
    for _ in range(1000):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(4))
        y = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(4))
        assert H.norm(H.mul(x, y)) == H.norm(x) * H.norm(y)


def test_radical_of_cd_b_zero_is_tb(algebra_cd_f3):
    rad_f, R = radical_bases(algebra_cd_f3)
    assert R == [(0, 1)]
    assert rad_f == R


def test_insep_radical_is_whole_algebra():
    A = parse_algebra("insep(F2;1,1)")
    rad_f, R = radical_bases(A)
    assert len(rad_f) == A.dim      # rad(f) = A
    rep = classify(A)
    assert rep.commutative and rep.associative and rep.quadratic


def test_quaternion_over_f3_nondegenerate():
    A = cd_chain(GF(3), [GF(3).neg(1), 1], name="F3")
    rad_f, R = radical_bases(A)
    assert R == []
    rep = classify(A)
    assert rep.associative and not rep.commutative and not rep.division
    assert "division" in rep.witnesses      # explicit isotropic vector


def test_cd_f2_zero_classification():
    A = cd_chain(GF(2), [0], name="F2")
    rep = classify(A)
    assert rep.commutative and rep.associative and rep.quadratic
    assert rep.radical == [(0, 1)]
    assert not rep.division


def test_octonions_alternative_not_associative():
    O = cd_chain(QQ(), [Fraction(-1)] * 3, name="Q")
    rep = classify(O, samples=200)
    assert rep.alternative and not rep.associative and rep.division
    assert not rep.sampled
    # one explicitly nonzero associator
    i, j, e4 = O.basis(1), O.basis(2), O.basis(4)
    assert alg.associator(O, i, j, e4) != O.zero()


def _alternative_by_pairs(A):
    # (aa)b = a(ab) and b(aa) = (ba)a over all pairs, on the full
    # multiplication table of element indices
    elems = A.elements()
    index = {a: n for n, a in enumerate(elems)}
    prod = [[index[A.mul(a, b)] for b in elems] for a in elems]
    for a, row in enumerate(prod):
        aa = row[a]
        for b, ab in enumerate(row):
            if prod[aa][b] != row[ab] or prod[b][aa] != prod[prod[b][a]][a]:
                return False
    return True


def _broken_table(A):
    # e_1 e_2 += e_3: a unital table that is no longer alternative
    table = [list(row) for row in A.table]
    table[1][2] = A.add(table[1][2], A.basis(3))
    return alg.Algebra(A.field, A.dim, tuple(tuple(r) for r in table),
                       A.involution, tag=A.tag + "'")


# every CD chain over F_q with |A| <= 81, plus one 256-element chain for
# q = 2 (non-associative) and q = 4; all within |A|^2 <= 300 000
_EXTRA_CHAINS = {2: [([1, 0, 1], "char2-unital")], 4: [([2, 3], "standard")]}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_is_alternative_matches_all_pairs(q):
    F = GF(q)
    variants = ("standard", "char2-unital") if F.p == 2 else ("standard",)
    chains = [(list(zetas), v) for v in variants for n in (1, 2)
              for zetas in itertools.product(F.elements(), repeat=n)
              if q ** (2 ** n) <= 81]
    algebras = []
    for zetas, variant in chains + _EXTRA_CHAINS.get(q, []):
        A = cd_chain(F, zetas, first_variant=variant, name="F%d" % q)
        assert A.size() ** 2 <= 300_000
        algebras.append(A)
        if A.dim >= 4:
            algebras.append(_broken_table(A))
    flags = []
    for A in algebras:
        flag, witness = alg.is_alternative(A)
        assert flag == _alternative_by_pairs(A), A.tag
        if not flag:
            a, b = witness
            assert alg.associator(A, a, a, b) != A.zero() or \
                alg.associator(A, b, a, a) != A.zero()
        flags.append(flag)
    assert (False in flags) == (q != 5)     # F5 chains here have dim 2


def _quadratic_at(A, a):
    # a^2 - T(a) a + N(a) = 0 with T(a) = a + conj(a), N(a) = a conj(a)
    # both scalar
    ac = A.conj(a)
    s, n = A.add(a, ac), A.mul(a, ac)
    if any(x != A.field.zero for x in s[1:] + n[1:]):
        return False
    return A.add(A.sub(A.mul(a, a), A.scale(s[0], a)),
                 A.scalar(n[0])) == A.zero()


def _quadratic_by_elements(A):
    return all(_quadratic_at(A, a) for a in A.elements())


def _division_by_elements(A):
    return all(a == A.zero() or A.norm(a) != A.field.zero
               for a in A.elements())


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_quadratic_and_division_match_all_elements(q):
    # every CD chain over F_q with |A| <= 81, each chain of dim >= 4 with
    # one broken table cell, and the non-quadratic B[t]/(t^3)
    F = GF(q)
    variants = ("standard", "char2-unital") if F.p == 2 else ("standard",)
    algebras = [truncated_series(ground_algebra(F, "F%d" % q), 3)]
    for v in variants:
        for n in (1, 2):
            for zetas in itertools.product(F.elements(), repeat=n):
                if q ** (2 ** n) > 81:
                    continue
                A = cd_chain(F, list(zetas), first_variant=v,
                             name="F%d" % q)
                algebras.append(A)
                if A.dim >= 4:
                    algebras.append(_broken_table(A))
    verdicts = []
    for A in algebras:
        quad, witness = alg.is_quadratic(A)
        assert quad == _quadratic_by_elements(A), A.tag
        if not quad:
            assert not _quadratic_at(A, witness)
            verdicts.append(None)
            continue
        div, exact, witness = alg._division_detail(A)
        assert exact and div == _division_by_elements(A), A.tag
        if not div:
            assert witness != A.zero() and A.norm(witness) == F.zero
        verdicts.append(div)
    assert {None, True, False} <= set(verdicts)


def test_classify_never_enumerates_elements(monkeypatch):
    def refuse(self):
        raise AssertionError("enumerated %s" % self.tag)

    monkeypatch.setattr(alg.Algebra, "elements", refuse)
    F3 = GF(3)
    rep = classify(cd_chain(F3, [F3.neg(1)] * 4, name="F3"))   # 3^16
    assert rep.quadratic and not rep.alternative and not rep.division
    assert not rep.sampled and "division" in rep.witnesses


@pytest.mark.parametrize("expr, rad_dim", [("CD(Q,-1,0)", 2),
                                           ("CD(Q,-1,-1,0)", 4),
                                           ("CD(Q,-1,-1,-1,0)", 8)])
def test_dual_algebras_over_q_are_exactly_not_division(expr, rad_dim):
    # the quaternions and octonions doubled with zeta = 0: a vector of
    # rad(f) has norm f(r, r)/2 = 0, so the verdict needs no sampling
    A = alg.parse_algebra(expr)
    rep = classify(A)
    assert rep.quadratic and not rep.division and not rep.nondegenerate
    assert not rep.sampled
    assert ref.split_decomposition(A, rep.radical) is not None
    assert len(rep.rad_f) == len(rep.radical) == rad_dim
    r = rep.witnesses["division"]
    assert r != A.zero() and A.norm(r) == 0


def test_division_over_q_samples_a_nondegenerate_indefinite_norm():
    # N = x0^2 - x1^2 has no radical and is not definite: the one case
    # still decided on sampled elements
    A = alg.parse_algebra("CD(Q,1)")
    div, exact, witness = alg._division_detail(A)
    assert not div and not exact and A.norm(witness) == 0


def test_is_alternative_rejects_sedenions():
    F3 = GF(3)
    for S in (cd_chain(QQ(), [Fraction(-1)] * 4, name="Q"),
              cd_chain(F3, [F3.neg(1)] * 4, name="F3")):
        flag, witness = alg.is_alternative(S)
        assert not flag
        a, b = witness
        assert alg.associator(S, a, a, b) != S.zero() or \
            alg.associator(S, b, a, a) != S.zero()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_cd_norm_doubling_formula_exhaustive(q):
    F = GF(q)
    base = ground_algebra(F, "F%d" % q)
    for zeta in list(F.elements())[:3]:
        A = cd_double(base, zeta)
        for a in A.elements():
            na = F.mul(a[0], a[0])
            nb = F.mul(a[1], a[1])
            assert A.norm(a) == F.sub(na, F.mul(zeta, nb))


def test_alternating_associator_on_alternative_algebras():
    A = cd_chain(GF(3), [GF(3).neg(1), 1], name="F3")
    elems = A.elements()
    rng = random.Random(0)
    for _ in range(300):
        a = elems[rng.randrange(len(elems))]
        b = elems[rng.randrange(len(elems))]
        assert alg.associator(A, a, a, b) == A.zero()
        assert alg.associator(A, a, b, b) == A.zero()
        assert alg.associator(A, a, b, a) == A.zero()


def test_inverse_formula():
    A = cd_chain(GF(5), [2], name="F5")
    F = A.field
    for a in A.elements():
        n = A.norm(a)
        if n == F.zero:
            continue
        inv = A.scale(F.inv(n), A.conj(a))
        assert A.mul(a, inv) == A.one()


def test_twisted_multiplication_rules(algebra_cd_f3):
    # A = B + tB with a(td) = t(conj(a) d), (tb)c = t(cb), (tb)(td) = 0
    A = algebra_cd_f3
    B_elems = list(itertools.product(A.field.elements(), repeat=A.base_dim))
    for a_b in B_elems:
        a = A.embed_b(a_b)
        for d_b in B_elems:
            td = A.t_times(d_b)
            lhs = A.mul(a, td)
            rhs = A.t_times(A.b_part(A.mul(A.conj(a), A.embed_b(d_b))))
            assert lhs == rhs
            tb = A.t_times(d_b)
            lhs = A.mul(tb, a)
            rhs = A.t_times(A.b_part(A.mul(a, A.embed_b(d_b))))
            assert lhs == rhs


def test_radical_dichotomy():
    for expr in ("CD(F2,0)", "CD(F3,0)", "CD(F3,-1)", "insep(F2;1,1)",
                 "CD(F3,-1,1)", "CDu(F2,1)"):
        A = parse_algebra(expr)
        rad_f, R = radical_bases(A)
        assert rad_f == R or len(rad_f) == A.dim, expr


def test_truncated_series_order2_is_cd0():
    for B in (ground_algebra(GF(2), "F2"), ground_algebra(GF(3), "F3"),
              ground_algebra(GF(4), "F4"),
              quadratic_field_algebra(GF(2))):
        S = truncated_series(B, 2)
        D = cd_double(B, B.field.zero)
        assert find_isomorphism_to_cd(S, D) is not None


def test_truncated_series_order3_t_squared_nonzero():
    B = ground_algebra(GF(4), "F4")
    S = truncated_series(B, 3)
    t = S.basis(1)
    assert S.mul(t, t) == S.basis(2)
    quad, _ = alg.is_quadratic(S)
    assert not quad


def test_truncated_series_order2_f2():
    S = truncated_series(ground_algebra(GF(2), "F2"), 2)
    assert S.size() == 4
    t = S.basis(1)
    assert S.mul(t, t) == S.zero()


def test_char2_unital_requires_char2():
    with pytest.raises(AlgebraError):
        cd_double(ground_algebra(GF(3), "F3"), 1, variant="char2-unital")


def test_parse_algebra_expressions():
    assert parse_algebra("CD(F3,-1,0)").dim == 4
    assert parse_algebra("CDu(F2,1)").dim == 2
    assert parse_algebra("F5").dim == 1
    A16 = parse_algebra("CDu(F4,w)")     # F16 over F4, w the generator
    assert A16.dim == 2 and alg.is_division(A16)
    with pytest.raises(AlgebraError):
        parse_algebra("CD(F3")


def test_quadratic_identity_exhaustive(algebra_cd_f3):
    A = algebra_cd_f3
    for a in A.elements():
        t = A.trace(a)
        n = A.norm(a)
        lhs = A.add(A.sub(A.mul(a, a), A.scale(t, a)), A.scalar(n))
        assert lhs == A.zero()
    assert A.trace(A.one()) == A.field.from_int(2)


# --------------------------------------------------------------------------
# element tables against the coordinate operations

TABLE_ALGEBRAS = ["CD(F2,0)", "CDu(F2,1,0)", "CD(F3,0)", "CD(F4,0)",
                  "CD(F5,0)", "CD(F3,-1,0)"]


def table_mismatches(A, T):
    """(table, i, j) for each entry of the element tables T that differs
    from the coordinate operation of A on the elements of ranks i and j
    (j is None for one-argument tables); ranks are positions in
    A.elements()."""
    z = A.field.zero
    elems = A.elements()
    rank = {a: i for i, a in enumerate(elems)}
    b_rank = {b: i for i, b in enumerate(
        itertools.product(A.field.elements(), repeat=A.base_dim))}

    def partial(op):
        """op, with None where the coordinate path refuses."""
        def value(a):
            try:
                return op(a)
            except AlgebraError:
                return None
        return value

    if A.radical_t:
        t_mul = lambda a: rank[A.t_times(A.b_part(a))]
        t_slot = lambda a: rank[A.embed_b(A.t_part(a))]
        t_multiple = lambda a: all(c == z for c in A.b_part(a))
    else:
        t_mul = t_slot = lambda a: rank[A.zero()]
        t_multiple = lambda a: a == A.zero()
    inverse = partial(lambda a: rank[A.inverse(a)])
    unary = {"elems": lambda a: a, "neg": lambda a: rank[A.neg(a)],
             "conj": lambda a: rank[A.conj(a)], "norm": partial(A.norm),
             "trace": partial(A.trace), "inverse": inverse,
             "b_part": lambda a: b_rank[A.b_part(a)], "t_mul": t_mul,
             "t_slot": t_slot, "t_multiple": t_multiple}
    binary = {"add": A.add, "sub": A.sub, "mul": A.mul}
    out = [(name, i, None) for name, op in unary.items()
           for i, a in enumerate(elems) if getattr(T, name)[i] != op(a)]
    out += [(name, i, j) for name, op in binary.items()
            for i, a in enumerate(elems) for j, b in enumerate(elems)
            if getattr(T, name)[i][j] != rank[op(a, b)]]
    if T.index != rank or T.one != rank[A.one()] or T.basis != [
            rank[A.basis(i)] for i in range(A.dim)]:
        out.append(("index", None, None))
    return out


@pytest.mark.parametrize("expr", TABLE_ALGEBRAS)
def test_element_tables_match_the_coordinate_operations(expr):
    A = parse_algebra(expr)
    assert len(A.tables.elems) == A.size()
    assert table_mismatches(A, A.tables) == []


def test_element_tables_stop_at_the_bound():
    # 7^4 = 2401 elements; the division algebra CD(F7,3) is not refused
    assert len(parse_algebra("CD(F7,3)").tables.elems) == 49
    with pytest.raises(AlgebraError, match="2401 elements"):
        parse_algebra("CD(F7,3,0)").tables
    with pytest.raises(AlgebraError, match="infinite field"):
        parse_algebra("CD(Q,-1,0)").tables


def _plant_wrong_product(monkeypatch, tag, a, b):
    """Element tables in which the product a*b is off by one in the
    tables of the algebra tagged `tag`; returns their class."""
    real = alg.ElementTables

    class Planted(real):
        def __init__(self, A):
            super().__init__(A)
            if A.tag == tag:
                i, j = self.index[a], self.index[b]
                self.mul[i][j] = self.add[self.mul[i][j]][self.one]

    monkeypatch.setattr(alg, "ElementTables", Planted)
    return Planted


def test_a_planted_table_error_is_caught(monkeypatch, capsys):
    # a and b are units, so only the affine points of the lines [a, 1, c]
    # move, and every point solved for is still a plane point
    from ringgeom import cli
    a, b = (1, 1), (1, 0)
    tables = _plant_wrong_product(monkeypatch, "CD(F3,0)", a, b)
    A = parse_algebra("CD(F3,0)")
    assert table_mismatches(A, tables(A)) == [
        ("mul", A.tables.index[a], A.tables.index[b])]
    assert cli.main(["plane", "--algebra", "CD(F3,0)", "--check",
                     "hjelmslev"]) == 1
    assert capsys.readouterr().err == ""
    report, status = cli.run(cli.RunConfig("plane", algebra="CD(F3,0)",
                                           checks=("hjelmslev",)))
    assert status == 1
    assert [c["name"] for c in report["checks"]
            if c["status"] == "fail"] == ["hj1", "hj2", "hj3", "hj4"]


def test_a_solution_off_the_plane_is_refused(monkeypatch, capsys):
    # t*t is 1 in the tables: the mid points that the lines [t a1, t, 1]
    # solve for leave tB, and the build says so in one line
    from ringgeom import cli
    _plant_wrong_product(monkeypatch, "CD(F3,0)", (0, 1), (0, 1))
    assert cli.main(["plane", "--algebra", "CD(F3,0)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ringgeom: PlaneError: solution ('P', ")
    assert err.count("\n") == 1
