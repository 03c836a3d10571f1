import pytest

from ringgeom.fields import GF
from ringgeom import algebras as alg
from ringgeom import projective as pj
from ringgeom import veronese as vr
from ringgeom import f2geom as f2

from projective_reference import complement


@pytest.fixture(scope="session")
def f2_field():
    return GF(2)


@pytest.fixture(scope="session")
def f3_field():
    return GF(3)


@pytest.fixture(scope="session")
def f4_field():
    return GF(4)


@pytest.fixture(scope="session")
def f5_field():
    return GF(5)


@pytest.fixture(scope="session")
def algebra_cd_f2(f2_field):
    return alg.cd_chain(f2_field, [f2_field.zero], name="F2")


@pytest.fixture(scope="session")
def algebra_cd_f3(f3_field):
    return alg.cd_chain(f3_field, [f3_field.zero], name="F3")


@pytest.fixture(scope="session")
def algebra_f4_over_f2(f2_field):
    return alg.cd_double(alg.ground_algebra(f2_field, "F2"), f2_field.one,
                         variant="char2-unital")


@pytest.fixture(scope="session")
def algebra_cd_f4_over_f2(algebra_f4_over_f2, f2_field):
    return alg.cd_double(algebra_f4_over_f2, f2_field.zero)


@pytest.fixture(scope="session")
def variety_f2(algebra_cd_f2):
    return vr.build_variety(algebra_cd_f2)


@pytest.fixture(scope="session")
def variety_f3(algebra_cd_f3):
    return vr.build_variety(algebra_cd_f3)


@pytest.fixture(scope="session")
def variety_cd_f4(f4_field):
    return vr.build_variety(alg.cd_chain(f4_field, [f4_field.zero],
                                         name="F4"))


@pytest.fixture(scope="session")
def variety_cd_f5(f5_field):
    return vr.build_variety(alg.cd_chain(f5_field, [f5_field.zero],
                                         name="F5"))


@pytest.fixture(scope="session")
def variety_f4big(algebra_cd_f4_over_f2):
    # V2(F2, CD(F4,0)) in PG(14, 2)
    return vr.build_variety(algebra_cd_f4_over_f2)


@pytest.fixture(scope="session")
def projection_f3(variety_f3):
    return vr.project_from_y(variety_f3)


@pytest.fixture(scope="session")
def projection_f2(variety_f2):
    return vr.project_from_y(variety_f2)


@pytest.fixture(scope="session")
def projection_f4big(variety_f4big):
    return vr.project_from_y(variety_f4big)


@pytest.fixture(scope="session")
def m10():
    return f2.build_m10()


@pytest.fixture(scope="session")
def m10_census(m10):
    return f2.census(m10)


@pytest.fixture(scope="session")
def counterexample(f3_field):
    return vr.build_h2_counterexample(f3_field)


@pytest.fixture(scope="session")
def counterexample_h2(counterexample):
    return vr.check_h2(counterexample)


@pytest.fixture(scope="session")
def counterexample_h3(counterexample):
    return vr.check_h3(counterexample, 6)


def _chi_member_off_pencil(variety, data, chi, pos):
    """chi with the member of the first conic's point `pos` replaced by a
    line that misses the vertex space Y, hence the conic's vertex: no
    line meets it and three lines of the pencil.  Returns that chi, the
    first conic that `_chi_cross_ratio` reads and the replaced point."""
    field = variety.field
    qpts = next(iter(data["quadrics"].values()))
    pts = sorted(qpts)
    conic = pj.conic_sections(field, pts, pj.span(field, pts))[0]
    broken = dict(chi)
    broken[conic[pos]] = pj.span(field, complement(data["y"]).rows[:2])
    return broken, conic, conic[pos]


@pytest.fixture(scope="session")
def chi_member_off_pencil():
    return _chi_member_off_pencil
