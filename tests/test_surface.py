import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pincover import pin2
from pincover.homology import homology_groups, orientation_double_cover_complex
from pincover.pin2 import angle
from pincover.structures import tau_coordinate_forms
from pincover.surface import (
    GENUS_LIMIT,
    Involution,
    Lattice,
    build,
    cover_diagram,
    double,
    family_cover_name,
    jacobian,
)
from test_kernel_references import _ref_is_orientable
from test_pin2 import J2

F = Fraction


def on_point(p, *kernels):
    """kernels[0](kernels[1](...(p))) at one rational point p, in units of pi.

    Each kernel runs on a one-point Lattice whose half period (pi) is twice the
    common denominator of the point's coordinates, so both coordinates are
    even and one halving stays exact; its image maps back to Fractions.
    """
    for kernel in reversed(kernels):
        x, y = F(p[0]), F(p[1])
        half = 2 * math.lcm(x.denominator, y.denominator)
        q = kernel(Lattice(np.array([(x * half).numerator], np.int64),
                           np.array([(y * half).numerator], np.int64), 2 * half))
        p = (F(int(q.x[0]), half), F(int(q.y[0]), half))
    return p


def same_point(model, p, q):
    return on_point(p, model.reduce) == on_point(q, model.reduce)


def test_build_klein_bottle():
    k2 = build("k2")
    assert not k2.orientable
    assert k2.boundary_components == 0
    assert [occ for occ in k2.word.word] == [("a", 1), ("b", 1), ("a", 1), ("b", -1)]
    # (x, 0) ~ (2pi - x, 2pi)
    assert same_point(k2, (F(1, 3), 0), (2 - F(1, 3), 2))
    assert same_point(k2, (0, F(1, 2)), (2, F(1, 2)))


def test_build_sphere_and_cylinder():
    s2 = build("s2")
    assert s2.model_kind == "two-disc"
    cyl = build("cyl")
    assert cyl.boundary_components == 2
    assert same_point(cyl, (0, F(1, 2)), (2, F(1, 2)))
    with pytest.raises(ValueError):
        on_point((0, 3), cyl.reduce)


def test_moebius_seam_flips_the_other_coordinate():
    moebius = build("moebius")
    # (0, y) ~ (2pi, 2pi - y), boundary points included
    assert on_point((2, 0), moebius.reduce) == (0, 2)
    assert on_point((-F(1, 2), F(1, 3)), moebius.reduce) == (F(3, 2), F(5, 3))
    assert same_point(moebius, (0, F(1, 3)), (2, 2 - F(1, 3)))


def side_point(side, s, period):
    """The point s lattice units along side 0..3 (bottom, right, top, left) of
    the square, walking its boundary counterclockwise from the origin."""
    return ((s, 0), (period, s), (period - s, period), (0, period - s))[side]


def glued_partner(model, side, s, period):
    """The point that the word glues to side_point(side, s, period): the same
    point of the letter, read on the opposite side, side + 2."""
    (_, first), (_, second) = model.word.word[side], model.word.word[side + 2]
    along = s if first == 1 else period - s  # in the letter's own direction
    return side_point(side + 2, along if second == 1 else period - along, period)


def reduce_one(model, point, period):
    q = model.reduce(Lattice(np.array([point[0]]), np.array([point[1]]), period))
    return int(q.x[0]), int(q.y[0])


SQUARES = ("t2", "k2", "cyl", "moebius")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SQUARES), st.integers(2, 32), st.data())
def test_each_square_glues_its_sides_as_its_word_says(name, period, data):
    model = build(name)
    word = model.word
    glued = [side for side in (0, 1) if word.word[side][0] not in word.boundary_letters]
    side = data.draw(st.sampled_from(glued), label="side")
    s = data.draw(st.integers(0, period), label="s")
    point, partner = side_point(side, s, period), glued_partner(model, side, s, period)
    assert reduce_one(model, point, period) == reduce_one(model, partner, period)
    interior = data.draw(st.tuples(st.integers(1, period - 1), st.integers(1, period - 1)),
                         label="interior")
    assert reduce_one(model, interior, period) == interior


def test_build_families():
    assert build("sigma(3)").euler_characteristic() == 2 - 6
    assert build("n(2,1)").euler_characteristic() == 2 - 4 - 1
    assert build("n(2,2)").euler_characteristic() == 2 - 4 - 2
    assert build("sigma(1)").name == "t2"
    assert build("n(0,2)").name == "k2"
    # a genus of 0, and a 0 that does not lead, still name families
    assert (build("sigma(0)").name, build("n(0,1)").name) == ("s2", "rp2")
    assert build("sigma(10)").genus == build("n(10,1)").genus == 10
    with pytest.raises(ValueError):
        build("mystery")
    with pytest.raises(ValueError):
        build("sigma(3,1)")


def test_family_genus_limit():
    assert build(f"n({GENUS_LIMIT},2)").genus == GENUS_LIMIT
    assert build(f"sigma({GENUS_LIMIT})").genus == GENUS_LIMIT
    # the cover of a surface at the limit is named although its genus is above it
    model = build(f"n({GENUS_LIMIT},2)")
    assert family_cover_name(model) == f"sigma({2 * GENUS_LIMIT + 1})"
    cover = orientation_double_cover_complex(model.word).total
    assert cover.euler_characteristic() == 2 - 2 * (2 * GENUS_LIMIT + 1)
    for name in (f"sigma({GENUS_LIMIT + 1})", f"n({GENUS_LIMIT + 1},1)", "n(10000000000,2)"):
        with pytest.raises(ValueError, match=f"at most {GENUS_LIMIT}"):
            build(name)


def grid_points(n=16):
    step = F(2, n)
    return [(i * step, j * step) for i in range(n) for j in range(n)]


def check_involution(tau, points):
    """tau is a deck involution at the points: it squares to the identity
    and fixes none of them."""
    for p in points:
        q = on_point(p, tau.domain.reduce)
        assert on_point(q, tau.apply, tau.apply) == q
        assert on_point(q, tau.apply) != q


def test_klein_deck_involution():
    tau = build("k2").deck
    assert tau.domain.name == "t2"
    assert on_point((F(1, 4), F(1, 3)), tau.apply) == (F(5, 4), 2 - F(1, 3))
    check_involution(tau, grid_points())
    # quotient sanity: tau-orbits map to single K^2 points under (x, y) -> folding
    assert jacobian(tau) == J2


def test_rp2_deck_involution():
    tau = build("rp2").deck
    assert tau.domain.name == "s2"
    assert (tau.matrix, tau.shift, tau.domain) == (((1, 0), (0, 1)), (1, 0), build("s2"))
    # on the equator: theta -> theta + pi
    assert on_point((F(1, 3), 0), tau.apply_raw) == (F(4, 3), 0)
    assert tau_coordinate_forms(tau) == (angle(theta=1, const=1), angle(phi=1))
    # the two-disc model has no square coordinates to reduce the image in
    with pytest.raises(ValueError, match="no square coordinates"):
        on_point((F(1, 3), 0), tau.apply)
    j = jacobian(tau)
    assert j == pin2.reflection(angle(theta=1, const=F(1, 2)))


def test_moebius_deck_involution():
    tau = build("moebius").deck
    assert tau.domain.name == "cyl"
    assert on_point((F(1, 4), F(1, 3)), tau.apply) == (F(5, 4), 2 - F(1, 3))
    check_involution(tau, [(x, y) for x, y in grid_points() if 0 <= y <= 2])


def test_family_cover_has_no_geometry():
    model = build("n(2,1)")
    assert family_cover_name(model) == "sigma(4)"
    assert model.deck is None


@pytest.mark.parametrize("k", [1, 2])
def test_family_cover_genus_from_euler_characteristic_matches_homology(k):
    """The cover is named sigma(1 - chi) from the base.  The mechanical cover
    complex is orientable, of Euler characteristic 2 chi, and its free H1 rank
    is twice that genus."""
    for g in [*range(1, 17), GENUS_LIMIT]:
        model = build(f"n({g},{k})")
        chi = model.euler_characteristic()
        total = orientation_double_cover_complex(model.word).total
        assert _ref_is_orientable(total.faces)
        assert total.euler_characteristic() == 2 * chi
        genus = homology_groups(total).h1[0] // 2
        assert family_cover_name(model) == f"sigma({1 - chi})"
        assert genus == 1 - chi == 2 * g + k - 1


def test_double_of_cylinder():
    d = double(build("cyl"))
    assert d.total.name == "t2"
    assert on_point((F(1, 3), F(1, 5)), d.tau.apply) == (2 - F(1, 3), F(1, 5))
    # tau3 fixes exactly the boundary image x in {0, pi}
    assert on_point((0, F(1, 5)), d.tau.apply) == (0, F(1, 5))
    assert on_point((1, F(1, 5)), d.tau.apply) == (1, F(1, 5))
    # euler characteristic additivity: chi(X^d) = 2 chi(X) - chi(boundary)
    assert d.total.euler_characteristic() == 2 * 0 - 0


def test_double_of_moebius():
    d = double(build("moebius"))
    assert d.total.name == "k2"
    assert on_point((F(1, 3), F(1, 5)), d.tau.apply) == ((F(1, 5) - F(1, 3)) % 2, F(1, 5))
    assert d.total.euler_characteristic() == 2 * 0 - 0
    # the embedding respects the moebius identifications
    p = on_point((0, F(1, 3)), d.embed)
    q = on_point((2, 2 - F(1, 3)), d.embed)
    assert p == q


def test_jacobian_of_shear_raises():
    d = double(build("moebius"))
    with pytest.raises(ValueError):
        jacobian(d.tau)


def test_cover_diagram_relations():
    diagram = cover_diagram(build("moebius"))
    results = diagram.check_relations(16)
    assert all(v is None for v in results.values()), results


def test_cover_diagram_involutions_come_from_the_records():
    moebius, cyl = build("moebius"), build("cyl")
    diagram = cover_diagram(moebius)
    for tau, record in ((diagram.tau1, moebius.deck),
                        (diagram.tau2, double(moebius).tau),
                        (diagram.tau3, double(cyl).tau)):
        assert (tau.matrix, tau.shift, tau.domain) == (record.matrix, record.shift, record.domain)


def test_cover_diagram_tau34_formula():
    diagram = cover_diagram(build("moebius"))
    # tau3(tau4(x, y)) = (x - pi, y + pi), no fixed points mod 2pi
    p = (F(1, 7), F(2, 7))
    assert on_point(p, diagram.tau34) == ((F(1, 7) - 1) % 2, (F(2, 7) + 1) % 2)


def test_diagram_jacobians():
    diagram = cover_diagram(build("moebius"))
    assert jacobian(diagram.tau4) == pin2.J1
    assert jacobian(diagram.tau3) == pin2.J1
    assert jacobian(diagram.tau1) == J2


def test_cover_diagram_prime_node():
    diagram = cover_diagram(build("moebius"))
    assert diagram.prime.orientable
    assert diagram.prime.boundary_components == 0
    # tau' is an involution covering X
    p = (F(3, 8), F(5, 8))
    assert on_point(p, diagram.pi_prime, diagram.tau_prime) == on_point(p, diagram.pi_prime)


# each relation of check_relations read at one point, one kernel at a time
# through on_point: True when it fails there
SCALAR_FAILS = {
    "pi1_pi3_eq_pi2_pi4": lambda d, p: on_point(p, d.pi1, d.pi3) != on_point(p, d.pi2, d.pi4),
    "tau3_tau4_commute": lambda d, p: (
        on_point(p, d.master.reduce, d.tau3.apply_raw, d.tau4.apply_raw)
        != on_point(p, d.master.reduce, d.tau4.apply_raw, d.tau3.apply_raw)),
    "tau4_restricts_to_tau1": lambda d, p: (
        on_point(p, d.master.reduce, d.tau4.apply_raw, d.tilde.double.embed, d.tilde.reduce)
        != on_point(p, d.tilde.double.embed, d.tau1.apply)),
    "pi4_restricts_to_pi1": lambda d, p: (
        on_point(p, d.pi4, d.tilde.double.embed, d.tilde.reduce)
        != on_point(p, d.base.double.embed, d.pi1)),
    "tau34_fixed_point_free": lambda d, p: on_point(p, d.tau34) == on_point(p, d.master.reduce),
    "tau2_involution": lambda d, p: (
        on_point(p, d.half_double.reduce, d.tau2.apply_raw, d.tau2.apply_raw, d.half_double.reduce)
        != on_point(p, d.half_double.reduce)),
    "tau_prime_involution": lambda d, p: (
        on_point(p, d.tau_prime, d.tau_prime, d.prime.reduce) != on_point(p, d.prime.reduce)),
    "pi_prime_compatible": lambda d, p: (
        on_point(p, d.pi_prime, d.pi34) != on_point(p, d.pi1, d.pi3)),
}


def test_mutated_tau4_is_caught_with_counterexamples():
    diagram = cover_diagram(build("moebius"))
    tau4 = Involution("tau4", ((-1, 0), (0, 1)), (0, 0), diagram.master)
    broken = diagram._replace(tau4=tau4)
    results = broken.check_relations(16)
    assert set(SCALAR_FAILS) == set(results)
    flagged = {name for name, p in results.items() if p is not None}
    assert flagged == {"pi1_pi3_eq_pi2_pi4", "tau34_fixed_point_free",
                       "tau4_restricts_to_tau1", "pi4_restricts_to_pi1"}
    for name in flagged:
        p = results[name]
        assert all(isinstance(c, Fraction) and (8 * c).denominator == 1 for c in p)  # grid step 1/8
        assert SCALAR_FAILS[name](broken, p), (name, p)


@pytest.mark.parametrize("n", [1, 7, 256])
def test_cover_diagram_relations_grid_sizes(n):
    results = cover_diagram(build("moebius")).check_relations(n)
    assert all(v is None for v in results.values()), results


@pytest.mark.parametrize("n", [0, -1])
def test_cover_diagram_rejects_empty_grid(n):
    with pytest.raises(ValueError):
        cover_diagram(build("moebius")).check_relations(n)


def test_odd_lattice_halving_raises():
    diagram = cover_diagram(build("moebius"))
    odd = Lattice(np.array([3], np.int64), np.array([3], np.int64), 8)
    for halving in (diagram.pi4_section, diagram.pi34_section,
                    double(build("cyl")).embed, double(build("moebius")).embed):
        with pytest.raises(ValueError, match="odd"):
            halving(odd)


@pytest.mark.parametrize("entry", [1.5, F(1, 2), "1"])
def test_involution_refuses_a_matrix_entry_that_is_not_an_integer(entry):
    with pytest.raises(ValueError, match="must be integers"):
        Involution("t", ((entry, 0), (0, 1)), (0, 0), build("t2"))


def test_involution_normalises_integral_entries_to_ints():
    tau = Involution("t", ((1.0, 0), (F(2, 2), -1)), (0, 1), build("t2"))
    assert tau.matrix == ((1, 0), (1, -1))
    assert all(type(e) is int for row in tau.matrix for e in row)


def test_a_shift_off_an_odd_period_lattice_is_refused():
    # at period 3, pi is 1.5 lattice units: a half-turn shift has no image on
    # the lattice, and a full turn is the identity
    i = np.arange(3)
    p = Lattice(*np.meshgrid(i, i, indexing="ij"), 3)
    half_turn = Involution("t", ((1, 0), (0, 1)), (1, 0), build("t2"))
    with pytest.raises(ValueError, match="not on the lattice of period 3"):
        half_turn.apply(p)
    full_turn = Involution("t", ((1, 0), (0, 1)), (0, 2), build("t2"))
    image = full_turn.apply(p)
    assert np.array_equal(image.x, p.x) and np.array_equal(image.y, p.y)
