from fractions import Fraction

import pytest

from pincover import pin2
from pincover.pin2 import PIN_MINUS, PIN_PLUS, angle, canonical_lift, compose, is_periodic, \
    o2_inverse
from pincover.structures import (
    GAMMA,
    IDENTITY,
    PinStructureDescriptor,
    boundary_lift_table,
    descend,
    double_structure,
    enumerate_structures,
    lift_involution,
    moebius_descent,
    pullback,
)
from pincover.homology import GluingWord
from pincover.surface import FAMILY_ONLY, GENUS_LIMIT, SurfaceModel, build, cover_diagram, \
    orientation_double_cover
from test_pin2 import o2_matrix, project

F = Fraction
T2 = build("t2")
KINDS = (PIN_PLUS, PIN_MINUS)


def equivalence_lift(xi, eta):
    """Canonical Pin element path rho with project(rho) = twist_eta^{-1} twist_xi,
    plus whether rho is well defined (periodic under all deck shifts)."""
    if xi.surface.name != eta.surface.name or xi.kind != eta.kind:
        raise ValueError("structures live on different surfaces or kinds")
    target = compose(o2_inverse(eta.twist), xi.twist)
    rho = canonical_lift(target, xi.kind)
    ok = all(is_periodic(rho, 2, var) for var in xi.surface.periodic_vars)
    return rho, ok


def are_equivalent(xi, eta):
    """True iff an equivalence over the identity exists (lift periodicity holds)."""
    return equivalence_lift(xi, eta)[1]


def torus_structures(kind):
    return {xi.label: xi for xi in enumerate_structures(T2, kind)}


def klein_deck():
    return orientation_double_cover(build("k2")).deck


# ---------------------------------------------------------------------------
# enumeration and equivalence


def test_a_descriptor_needs_a_lift_domain():
    twist = pin2.rotation(angle())
    with pytest.raises(ValueError, match="no lift domain for k2"):
        PinStructureDescriptor(build("k2"), PIN_PLUS, twist, "xi0")


def test_enumerate_counts():
    assert len(enumerate_structures(T2, PIN_PLUS)) == 4
    assert len(enumerate_structures(build("cyl"), PIN_MINUS)) == 2
    assert len(enumerate_structures(build("s2"), PIN_MINUS)) == 1
    with pytest.raises(ValueError, match="use descend or obstructions"):
        enumerate_structures(build("sigma(2)"), PIN_PLUS)
    with pytest.raises(ValueError, match="use moebius_descent"):
        enumerate_structures(build("moebius"), PIN_PLUS)


@pytest.mark.parametrize("kind", KINDS)
def test_torus_structures_pairwise_inequivalent(kind):
    xs = enumerate_structures(T2, kind)
    for i, a in enumerate(xs):
        for j, b in enumerate(xs):
            assert are_equivalent(a, b) == (i == j)


@pytest.mark.parametrize("kind", KINDS)
def test_equivalence_is_equivalence_relation(kind):
    xs = enumerate_structures(T2, kind) + enumerate_structures(build("cyl"), kind)
    for a in xs:
        assert are_equivalent(a, a)
    cyl = enumerate_structures(build("cyl"), kind)
    # xi0 ~ xi1 on the cylinder: the ambiguity of even(-theta/2) disappears
    # once theta runs over [0, pi] only
    assert are_equivalent(cyl[0], cyl[1])
    assert are_equivalent(cyl[1], cyl[0])


# ---------------------------------------------------------------------------
# lifting the Klein deck involution: the square table

KLEIN_TABLE = {
    PIN_PLUS: {"xi0": 1, "xi1": -1, "xi2": 1, "xi3": -1},
    PIN_MINUS: {"xi0": -1, "xi1": 1, "xi2": -1, "xi3": 1},
}


@pytest.mark.parametrize("kind", KINDS)
def test_klein_deck_squares(kind):
    tau = klein_deck()
    for label, xi in torus_structures(kind).items():
        res = lift_involution(xi, tau)
        assert res.exists
        assert res.square == KLEIN_TABLE[kind][label]


def test_klein_deck_lift_values():
    tau = klein_deck()
    xs = torus_structures(PIN_MINUS)
    res0 = lift_involution(xs["xi0"], tau)
    assert res0.lift == pin2.e2(PIN_MINUS)
    res1 = lift_involution(xs["xi1"], tau)
    # R~_{-theta-pi} e2 R~_theta reduces to an odd element with angle -theta
    assert res1.lift.parity == "odd"
    assert res1.lift.angle.theta == -1


@pytest.mark.parametrize("kind", KINDS)
def test_lift_squares_invariant_under_gamma(kind):
    tau = klein_deck()
    for xi in torus_structures(kind).values():
        res = lift_involution(xi, tau)
        assert res.square in (1, -1)


def test_pullback_invariance_matches_lift_existence():
    tau = klein_deck()
    for kind in KINDS:
        for xi in torus_structures(kind).values():
            assert are_equivalent(xi, pullback(xi, tau)) == lift_involution(xi, tau).exists


# ---------------------------------------------------------------------------
# the sphere and descent to RP^2


@pytest.mark.parametrize("kind,square", [(PIN_MINUS, 1), (PIN_PLUS, -1)])
def test_sphere_deck_square(kind, square):
    s2 = build("s2")
    tau = orientation_double_cover(build("rp2")).deck
    (xi,) = enumerate_structures(s2, kind)
    res = lift_involution(xi, tau)
    assert res.exists
    assert res.square == square
    # the lift is the equatorial odd element +-(-sin t e1 + cos t e2)
    assert res.lift == pin2.odd(kind, angle(theta=1, const=F(1, 2)))


def test_descend_rp2():
    minus = descend(build("rp2"), PIN_MINUS)
    assert minus.count == 2 and minus.consistent
    assert minus.qualifying == ("xi_s2",)
    assert len(minus.as_dict()["structures"]) == 2
    plus = descend(build("rp2"), PIN_PLUS)
    assert plus.count == 0 and plus.consistent
    assert not plus.exists_downstairs


def test_descend_k2():
    plus = descend(build("k2"), PIN_PLUS)
    assert plus.qualifying == ("xi0", "xi2")
    assert plus.count == 4 and plus.torsor_count == 4 and plus.consistent
    minus = descend(build("k2"), PIN_MINUS)
    assert minus.qualifying == ("xi1", "xi3")
    assert minus.count == 4 and minus.consistent
    # the two quotient labels per qualifying structure form the Phi fiber
    assert minus.as_dict()["structures"] == ["xi1/P/dtau", "xi1/P/(dtau.gamma)",
                                             "xi3/P/dtau", "xi3/P/(dtau.gamma)"]


def test_descend_count_only_families():
    rep = descend(build("n(2,1)"), PIN_MINUS)
    assert rep.mode == "count-only"
    assert rep.count == 2 ** (2 * 2 + 1)
    rep_plus = descend(build("n(2,1)"), PIN_PLUS)
    assert rep_plus.count == 0  # chi odd: no pin+
    rep22 = descend(build("n(2,2)"), PIN_PLUS)
    assert rep22.count == 2 ** (2 * 2 + 2)


@pytest.mark.parametrize("k", [1, 2])
def test_family_descend_names_the_cover_by_the_classification(k):
    # N_h with h = 2g + k cross-caps is covered by Sigma_{h-1}
    for g in range(1, GENUS_LIMIT + 1):
        for kind in KINDS:
            rep = descend(build(f"n({g},{k})"), kind)
            assert (rep.mode, rep.cover) == ("count-only", f"sigma({2 * g + k - 1})")


@pytest.mark.parametrize("text, cover", [("x x", "s2"), ("a b a b'", "t2")])
def test_family_only_rp2_and_k2_keep_the_named_covers(text, cover):
    # genus 0 and 1 are the named models, not sigma(0) and sigma(1)
    base = SurfaceModel(f"hand-{cover}", FAMILY_ONLY, GluingWord.parse(text), False, 0)
    assert orientation_double_cover(base).total.name == cover
    for kind in KINDS:
        rep = descend(base, kind)
        assert (rep.mode, rep.cover) == ("count-only", cover)


def test_family_descend_builds_no_gluing_word(monkeypatch):
    bases = [build(name) for name in ("n(1,1)", "n(2,2)", "n(16,2)", f"n({GENUS_LIMIT},1)")]
    built = []
    init = GluingWord.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GluingWord, "__init__", counting)
    for base in bases:
        for kind in KINDS:
            descend(base, kind)
    assert built == []
    orientation_double_cover(bases[1])  # the counter does count a cover build
    assert len(built) == 1


def test_descend_rejects_orientable():
    with pytest.raises(ValueError):
        descend(build("t2"), PIN_PLUS)


@pytest.mark.parametrize("name", ["n(2,1)", "k2"])
def test_descend_rejects_an_unknown_kind(name):
    # the count-only path enumerates no structure, so nothing else would catch it
    with pytest.raises(ValueError, match="unknown kind 'spin'"):
        descend(build(name), "spin")


def test_lift_involution_rejects_an_involution_of_another_surface():
    # the RP^2 deck acts on S^2, not on the torus
    xi = torus_structures(PIN_PLUS)["xi0"]
    with pytest.raises(ValueError, match="rp2-deck acts on s2, not on t2"):
        lift_involution(xi, orientation_double_cover(build("rp2")).deck)


# ---------------------------------------------------------------------------
# moebius: tau4 squares and the full diagram report

TAU4_E1SQ = {PIN_PLUS: 1, PIN_MINUS: -1}  # e1^2 per kind


@pytest.mark.parametrize("kind", KINDS)
def test_tau4_squares(kind):
    diagram = cover_diagram(build("moebius"))
    xs = torus_structures(kind)
    e1sq = TAU4_E1SQ[kind]
    assert lift_involution(xs["xi0"], diagram.tau4).square == e1sq
    assert lift_involution(xs["xi1"], diagram.tau4).square == e1sq
    assert lift_involution(xs["xi2"], diagram.tau4).square == -e1sq
    assert lift_involution(xs["xi3"], diagram.tau4).square == -e1sq


def test_moebius_report():
    rep = moebius_descent(build("moebius"))
    assert rep.descending[PIN_PLUS] == ("xi0", "xi1")
    assert rep.descending[PIN_MINUS] == ("xi2", "xi3")
    for kind in KINDS:
        assert all(rep.tau3_lift_exists[kind].values())


# ---------------------------------------------------------------------------
# boundary lifts on the cylinder and the gluing classes


@pytest.mark.parametrize("kind", KINDS)
def test_boundary_lift_table_rows(kind):
    table = boundary_lift_table(kind)
    one = pin2.one(kind)
    e1 = pin2.e1(kind)
    e2 = pin2.e2(kind)
    e12 = pin2.even(kind, angle(const=F(1, 2)))
    rows = table.rows
    assert rows["xi0"][0][0] == one and rows["xi0"][1][0] == e12
    assert rows["xi1"][0][0] == one and rows["xi1"][1][0] == one
    assert rows["tau3*xi0"][0][0] == e1 and rows["tau3*xi0"][1][0] == e2
    assert rows["tau3*xi1"][0][0] == e1 and rows["tau3*xi1"][1][0] == e1
    # each row is a +- pair
    for row in rows.values():
        for pair in row:
            assert pair[1] == -pair[0]


@pytest.mark.parametrize("kind", KINDS)
def test_noncommutation_witness(kind):
    table = boundary_lift_table(kind)
    assert table.agree_at_zero
    assert table.negate_at_pi


@pytest.mark.parametrize("kind", KINDS)
def test_double_structure_classes(kind):
    cyl = {xi.label: xi for xi in enumerate_structures(build("cyl"), kind)}
    # identity gluing of xi1 induces xi0 on the torus, and vice versa
    res1 = double_structure(cyl["xi1"], (IDENTITY, IDENTITY))
    assert res1.label == "xi0" and res1.surface.name == "t2" and res1.kind == kind
    res0 = double_structure(cyl["xi0"], (IDENTITY, IDENTITY))
    assert res0.label == "xi1"
    # flipping both tags is an overall gamma: same class
    assert double_structure(cyl["xi1"], (GAMMA, GAMMA)).label == "xi0"
    assert double_structure(cyl["xi0"], (GAMMA, GAMMA)).label == "xi1"
    # flipping exactly one tag moves to the other class
    assert double_structure(cyl["xi1"], (IDENTITY, GAMMA)).label == "xi1"
    assert double_structure(cyl["xi0"], (GAMMA, IDENTITY)).label == "xi0"


@pytest.mark.parametrize("tags", [(), [], (IDENTITY,), (IDENTITY, "other")], ids=repr)
def test_double_structure_refuses_bad_tags(tags):
    # only None means the default identity gluing; an empty sequence is no gluing
    xi = enumerate_structures(build("cyl"), PIN_PLUS)[0]
    with pytest.raises(ValueError, match=r"two of identity\|gamma"):
        double_structure(xi, tags)
    assert double_structure(xi) == double_structure(xi, (IDENTITY, IDENTITY))


@pytest.mark.parametrize("kind", KINDS)
def test_canonical_glued_holonomy(kind):
    # the d-tilde-tau3 glued double of xi_a induces xi_a itself
    from pincover.structures import _deck_glued_holonomy

    assert _deck_glued_holonomy(0, kind) == 1
    assert _deck_glued_holonomy(1, kind) == -1


# ---------------------------------------------------------------------------
# cross-checks with the numeric Clifford model


@pytest.mark.parametrize("kind", KINDS)
def test_lift_projects_to_diagram_rhs(kind):
    import numpy as np

    from pincover.pin2 import at, compose, o2_inverse
    from pincover.structures import tau_coordinate_forms
    from pincover.surface import jacobian

    tau = klein_deck()
    th, ph = tau_coordinate_forms(tau)
    for xi in torus_structures(kind).values():
        res = lift_involution(xi, tau)
        rhs = compose(o2_inverse(at(xi.twist, th, ph)),
                      compose(jacobian(tau), xi.twist))
        for t0, p0 in ((0.3, 1.1), (2.0, 0.7)):
            assert np.allclose(o2_matrix(project(res.lift), t0, p0),
                               o2_matrix(rhs, t0, p0), atol=1e-9)


@pytest.mark.parametrize("kind", KINDS)
def test_double_structure_rejects_a_witness_that_disagrees_at_zero(kind, monkeypatch):
    from pincover import structures

    real = structures.boundary_lift_table
    monkeypatch.setattr(structures, "boundary_lift_table",
                        lambda k: real(k)._replace(tau3_rho=-real(k).rho))
    (xi0, _) = enumerate_structures(build("cyl"), kind)
    with pytest.raises(AssertionError, match="noncommutation witness failed"):
        double_structure(xi0)
