from fractions import Fraction

import numpy as np
import pytest

from pincover import pin2
from pincover.homology import homology_groups, orientation_double_cover_complex
from pincover.pin2 import angle
from pincover.surface import (
    GENUS_LIMIT,
    Involution,
    Lattice,
    build,
    cover_diagram,
    double,
    jacobian,
    orientation_double_cover,
)

F = Fraction


def test_build_klein_bottle():
    k2 = build("k2")
    assert not k2.orientable
    assert k2.boundary_components == 0
    assert [occ for occ in k2.word.word] == [("a", 1), ("b", 1), ("a", 1), ("b", -1)]
    # (x, 0) ~ (2pi - x, 2pi)
    assert k2.same_point((F(1, 3), 0), (2 - F(1, 3), 2))
    assert k2.same_point((0, F(1, 2)), (2, F(1, 2)))


def test_build_sphere_and_cylinder():
    s2 = build("s2")
    assert s2.model_kind == "two-disc"
    cyl = build("cyl")
    assert cyl.boundary_components == 2
    assert cyl.same_point((0, F(1, 2)), (2, F(1, 2)))
    with pytest.raises(ValueError):
        cyl.reduce((0, 3))


def test_moebius_seam_flips_the_other_coordinate():
    moebius = build("moebius")
    # (0, y) ~ (2pi, 2pi - y), boundary points included
    assert moebius.reduce((2, 0)) == (0, 2)
    assert moebius.reduce((-F(1, 2), F(1, 3))) == (F(3, 2), F(5, 3))
    assert moebius.same_point((0, F(1, 3)), (2, 2 - F(1, 3)))


def test_build_families():
    assert build("sigma(3)").euler_characteristic() == 2 - 6
    assert build("n(2,1)").euler_characteristic() == 2 - 4 - 1
    assert build("n(2,2)").euler_characteristic() == 2 - 4 - 2
    assert build("sigma(1)").name == "t2"
    assert build("n(0,2)").name == "k2"
    with pytest.raises(ValueError):
        build("mystery")
    with pytest.raises(ValueError):
        build("sigma(3,1)")


def test_family_genus_limit():
    assert build(f"n({GENUS_LIMIT},2)").genus == GENUS_LIMIT
    assert build(f"sigma({GENUS_LIMIT})").genus == GENUS_LIMIT
    # the cover of a surface at the limit is named although its genus is above it
    cover = orientation_double_cover(build(f"n({GENUS_LIMIT},2)")).total
    assert (cover.name, cover.genus) == (f"sigma({2 * GENUS_LIMIT + 1})", 2 * GENUS_LIMIT + 1)
    for name in (f"sigma({GENUS_LIMIT + 1})", f"n({GENUS_LIMIT + 1},1)", "n(10000000000,2)"):
        with pytest.raises(ValueError, match=f"at most {GENUS_LIMIT}"):
            build(name)


def grid_points(n=16):
    step = F(2, n)
    return [(i * step, j * step) for i in range(n) for j in range(n)]


def check_involution(tau, points):
    for p in points:
        q = tau.domain.reduce(p)
        assert tau.apply(tau.apply(q)) == q
        if tau.fixed_point_free:
            assert tau.apply(q) != q


def test_klein_deck_involution():
    cover = orientation_double_cover(build("k2"))
    assert cover.total.name == "t2"
    tau = cover.deck
    assert tau.apply((F(1, 4), F(1, 3))) == (F(5, 4), 2 - F(1, 3))
    check_involution(tau, grid_points())
    # quotient sanity: tau-orbits map to single K^2 points under (x, y) -> folding
    assert jacobian(tau) == pin2.J2


def test_rp2_deck_involution():
    cover = orientation_double_cover(build("rp2"))
    assert cover.total.name == "s2"
    tau = cover.deck
    assert tau.is_equatorial
    # on the equator: theta -> theta + pi
    assert tau.apply((F(1, 3), 0)) == (F(4, 3), 0)
    j = jacobian(tau)
    assert j == pin2.reflection(angle(theta=1, const=F(1, 2)))


def test_moebius_deck_involution():
    cover = orientation_double_cover(build("moebius"))
    assert cover.total.name == "cyl"
    tau = cover.deck
    assert tau.apply((F(1, 4), F(1, 3))) == (F(5, 4), 2 - F(1, 3))
    check_involution(tau, [(x, y) for x, y in grid_points() if 0 <= y <= 2])


def test_family_cover_has_no_geometry():
    cover = orientation_double_cover(build("n(2,1)"))
    assert cover.total.name == "sigma(4)"
    assert not cover.has_geometry()


@pytest.mark.parametrize("k", [1, 2])
def test_family_cover_genus_from_euler_characteristic_matches_homology(k):
    """The cover is named by (2 - chi) / 2; its free H1 rank is twice that genus."""
    for g in range(1, 17):
        model = build(f"n({g},{k})")
        total = orientation_double_cover_complex(model.word).total
        genus = homology_groups(total).h1[0] // 2
        assert orientation_double_cover(model).total.name == f"sigma({genus})"
        assert genus == 2 * g + k - 1


def test_double_of_cylinder():
    d = double(build("cyl"))
    assert d.total.name == "t2"
    assert d.tau.apply((F(1, 3), F(1, 5))) == (2 - F(1, 3), F(1, 5))
    # tau3 fixes exactly the boundary image x in {0, pi}
    assert d.tau.apply((0, F(1, 5))) == (0, F(1, 5))
    assert d.tau.apply((1, F(1, 5))) == (1, F(1, 5))
    # euler characteristic additivity: chi(X^d) = 2 chi(X) - chi(boundary)
    assert d.total.euler_characteristic() == 2 * 0 - 0


def test_double_of_moebius():
    d = double(build("moebius"))
    assert d.total.name == "k2"
    assert d.tau.apply((F(1, 3), F(1, 5))) == ((F(1, 5) - F(1, 3)) % 2, F(1, 5))
    assert d.total.euler_characteristic() == 2 * 0 - 0
    # the embedding respects the moebius identifications
    p = d.embed((0, F(1, 3)))
    q = d.embed((2, 2 - F(1, 3)))
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
    for tau, record in ((diagram.tau1, orientation_double_cover(moebius).deck),
                        (diagram.tau2, double(moebius).tau),
                        (diagram.tau3, double(cyl).tau)):
        assert (tau.matrix, tau.shift, tau.domain) == (record.matrix, record.shift, record.domain)


def test_cover_diagram_tau34_formula():
    diagram = cover_diagram(build("moebius"))
    # tau3(tau4(x, y)) = (x - pi, y + pi), no fixed points mod 2pi
    p = (F(1, 7), F(2, 7))
    assert diagram.tau34(p) == ((F(1, 7) - 1) % 2, (F(2, 7) + 1) % 2)


def test_diagram_jacobians():
    diagram = cover_diagram(build("moebius"))
    assert jacobian(diagram.tau4) == pin2.J1
    assert jacobian(diagram.tau3) == pin2.J1
    assert jacobian(diagram.tau1) == pin2.J2


def test_cover_diagram_prime_node():
    diagram = cover_diagram(build("moebius"))
    assert diagram.prime.orientable
    assert diagram.prime.boundary_components == 0
    # tau' is an involution covering X
    p = (F(3, 8), F(5, 8))
    assert diagram.pi_prime(diagram.tau_prime(p)) == diagram.pi_prime(p)


# each relation of check_relations read at one point through the Fraction-point
# maps: True when it fails there
SCALAR_FAILS = {
    "pi1_pi3_eq_pi2_pi4": lambda d, p: d.pi1(d.pi3(p)) != d.pi2(d.pi4(p)),
    "tau3_tau4_commute": lambda d, p: (
        d.master.reduce(d.tau3.apply_raw(d.tau4.apply_raw(p)))
        != d.master.reduce(d.tau4.apply_raw(d.tau3.apply_raw(p)))),
    "tau4_restricts_to_tau1": lambda d, p: (
        d.master.reduce(d.tau4.apply_raw(d.tilde.double.embed(d.tilde.reduce(p))))
        != d.tilde.double.embed(d.tau1.apply(p))),
    "pi4_restricts_to_pi1": lambda d, p: (
        d.pi4(d.tilde.double.embed(d.tilde.reduce(p))) != d.base.double.embed(d.pi1(p))),
    "tau34_fixed_point_free": lambda d, p: d.tau34(p) == d.master.reduce(p),
    "tau2_involution": lambda d, p: (
        d.half_double.reduce(d.tau2.apply_raw(d.tau2.apply_raw(d.half_double.reduce(p))))
        != d.half_double.reduce(p)),
    "tau_prime_involution": lambda d, p: (
        d.tau_prime(d.tau_prime(d.prime.reduce(p))) != d.prime.reduce(p)),
    "pi_prime_compatible": lambda d, p: d.pi_prime(d.pi34(p)) != d.pi1(d.pi3(p)),
}


def test_mutated_tau4_is_caught_with_counterexamples():
    diagram = cover_diagram(build("moebius"))
    tau4 = Involution.affine("tau4", ((-1, 0), (0, 1)), (0, 0), diagram.master, True)
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


def test_point_too_large_for_the_lattice_raises():
    with pytest.raises(ValueError, match="too large"):
        build("t2").reduce((2 ** 60, 0))
