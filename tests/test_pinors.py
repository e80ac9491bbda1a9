import sys

import numpy as np
import pytest

from pincover import pin2
from pincover.acceptance import check_property_suites
from pincover.cli import main
from pincover.pin2 import PIN_MINUS, PIN_PLUS, angle, mul
from pincover.pinors import (
    GammaRep,
    PinorField,
    _deck_action,
    couple_split,
    invariance_residual,
    project_invariant,
)
from pincover.structures import enumerate_structures, lift_involution, tau_coordinate_forms
from pincover.surface import Involution, Lattice, build, cover_diagram, orientation_double_cover
from test_pin2 import minus_one

TOL = 1e-9
KINDS = (PIN_PLUS, PIN_MINUS)
N = 32


def rep(x, r):
    """Matrix of a canonical-form element: cos t + sin t g1 g2 or cos t g1 + sin t g2."""
    if x.kind != r.kind:
        raise ValueError("kind mismatch")
    t = x.angle.evaluate()
    if x.parity == pin2.EVEN:
        return np.cos(t) * np.eye(2) + np.sin(t) * (r.gamma1 @ r.gamma2)
    return np.cos(t) * r.gamma1 + np.sin(t) * r.gamma2


def constant_field(n, v):
    """The field with value v at every node of the n x n grid."""
    out = np.zeros((n, n, 2), dtype=complex)
    out[:, :] = np.asarray(v, dtype=complex)
    return PinorField(out)


def inner(a, b):
    """The Hermitian inner product of two fields, summed over the grid."""
    return complex((a.values.conj() * b.values).sum())


def klein_deck():
    return orientation_double_cover(build("k2")).deck


def klein_lift(xi):
    return lift_involution(xi, klein_deck())


def torus_structures(kind):
    return {xi.label: xi for xi in enumerate_structures(build("t2"), kind)}


def qualifying_pairs():
    """(xi, kind) pairs whose Klein deck lift squares to +1."""
    out = []
    tau = klein_deck()
    for kind in KINDS:
        for xi in torus_structures(kind).values():
            if lift_involution(xi, tau).square == 1:
                out.append((xi, kind))
    return out


# ---------------------------------------------------------------------------
# the representation


@pytest.mark.parametrize("kind", KINDS)
def test_gamma_relations(kind):
    r = GammaRep.standard(kind)
    sq = 1.0 if kind == PIN_PLUS else -1.0
    assert np.allclose(r.gamma1 @ r.gamma1, sq * np.eye(2), atol=TOL)
    assert np.allclose(r.gamma2 @ r.gamma2, sq * np.eye(2), atol=TOL)
    assert np.allclose(r.gamma1 @ r.gamma2 + r.gamma2 @ r.gamma1, 0, atol=TOL)
    assert np.allclose(r.omega @ r.omega, np.eye(2), atol=TOL)
    assert np.allclose(np.diag(np.diag(r.omega)), r.omega, atol=TOL)
    # omega anticommutes with the odd generators
    assert np.allclose(r.omega @ r.gamma1 + r.gamma1 @ r.omega, 0, atol=TOL)
    assert np.allclose(r.omega @ r.gamma2 + r.gamma2 @ r.omega, 0, atol=TOL)


@pytest.mark.parametrize("kind", KINDS)
def test_rep_basis_elements(kind):
    r = GammaRep.standard(kind)
    assert np.allclose(rep(pin2.one(kind), r), np.eye(2), atol=TOL)
    assert np.allclose(rep(pin2.e2(kind), r), r.gamma2, atol=TOL)
    assert np.allclose(rep(pin2.e1(kind), r), r.gamma1, atol=TOL)
    assert np.allclose(rep(minus_one(kind), r), -np.eye(2), atol=TOL)
    # omega commutes with even elements
    ev = rep(pin2.even(kind, angle(const=1, theta=0)), r)
    assert np.allclose(r.omega @ ev, ev @ r.omega, atol=TOL)


@pytest.mark.parametrize("kind", KINDS)
def test_rep_is_homomorphism_on_random_pairs(kind):
    from fractions import Fraction

    rng = np.random.default_rng(23)
    r = GammaRep.standard(kind)

    def rand_elt():
        b = Fraction(int(rng.integers(0, 16)), 8)
        parity = pin2.EVEN if rng.integers(2) else pin2.ODD
        return pin2.Pin2Element(kind, parity, pin2.AngleForm(0, 0, b))

    worst = 0.0
    for _ in range(500):
        x, y = rand_elt(), rand_elt()
        lhs = rep(mul(x, y), r)
        rhs = rep(x, r) @ rep(y, r)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < TOL


# ---------------------------------------------------------------------------
# invariance residuals and projectors


def test_constant_eigenvector_is_invariant():
    # xi0's Klein lift is e2; v a +1 eigenvector of gamma2 gives residual 0
    kind = PIN_PLUS
    r = GammaRep.standard(kind)
    vals, vecs = np.linalg.eig(r.gamma2)
    v = vecs[:, np.argmin(np.abs(vals - 1.0))]
    xi = torus_structures(kind)["xi0"]
    s = constant_field(N, v)
    assert invariance_residual(s, klein_lift(xi), 1) < TOL
    # flipped sign: maximal violation 2 ||v||
    assert invariance_residual(s, klein_lift(xi), -1) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("xi_kind", qualifying_pairs())
def test_projector_idempotent_and_invariant(xi_kind):
    xi, kind = xi_kind
    rng = np.random.default_rng(101)
    lift = klein_lift(xi)
    for sign in (1, -1):
        s = PinorField.random(N, rng)
        p = project_invariant(s, lift, sign)
        again = project_invariant(p, lift, sign)
        assert (p - again).max_norm() < TOL
        assert invariance_residual(p, lift, sign) < TOL


@pytest.mark.parametrize("xi_kind", qualifying_pairs())
def test_projectors_sum_to_identity_with_orthogonal_images(xi_kind):
    xi, kind = xi_kind
    rng = np.random.default_rng(7)
    lift = klein_lift(xi)
    s = PinorField.random(N, rng)
    p_plus = project_invariant(s, lift, 1)
    p_minus = project_invariant(s, lift, -1)
    assert (p_plus + p_minus - s).max_norm() < TOL
    total = inner(s, s).real
    split = inner(p_plus, p_plus).real + inner(p_minus, p_minus).real
    assert abs(total - split) < 1e-6 * max(1.0, total)


def test_projector_refuses_square_minus_one():
    xi = torus_structures(PIN_MINUS)["xi0"]  # Klein lift squares to -1 for pin-
    s = constant_field(N, [1.0, 0.0])
    with pytest.raises(ValueError):
        project_invariant(s, klein_lift(xi), 1)


@pytest.mark.parametrize("act", [invariance_residual, project_invariant, couple_split],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("sign", [0, 2])
def test_sign_must_be_plus_or_minus_one(act, sign):
    # a sign of 0 or 2 is no deck action; couple_split used to certify it anyway
    xi = torus_structures(PIN_PLUS)["xi0"]
    s = constant_field(N, [1.0, 0.0])
    with pytest.raises(ValueError, match="sign must be"):
        act(s, klein_lift(xi), sign)


def test_a_grid_under_the_sphere_deck_is_refused():
    # the rp2 deck is theta -> theta + pi on the equator chart; s2 has no
    # square for a grid to live on
    xi = enumerate_structures(build("s2"), PIN_MINUS)[0]
    lift = lift_involution(xi, orientation_double_cover(build("rp2")).deck)
    assert lift.exists
    s = constant_field(N, [1.0, 0.0])
    with pytest.raises(ValueError, match="s2 has no square coordinates"):
        invariance_residual(s, lift, 1)


@pytest.mark.parametrize("act", [invariance_residual, project_invariant, couple_split],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("kind", KINDS)
def test_an_even_lift_is_refused(act, kind):
    # a half turn of t2 keeps the orientation, so xi0's lift of it is even(0):
    # it exists and descends, and no deck or doubling involution lifts that way
    shift = Involution("t", ((1, 0), (0, 1)), (1, 0), build("t2"))
    lift = lift_involution(torus_structures(kind)["xi0"], shift)
    assert lift.descends and lift.lift.parity == pin2.EVEN
    with pytest.raises(ValueError, match="orientation-reversing involutions"):
        act(constant_field(N, [1.0, 0.0]), lift, 1)


def gamma_image(mv, r):
    """A Cl(2,0) or Cl(0,2) multivector as a 2x2 matrix: e1 -> gamma1, e2 -> gamma2."""
    basis = {0: np.eye(2), 0b01: r.gamma1, 0b10: r.gamma2, 0b11: r.gamma1 @ r.gamma2}
    return sum(c * basis[m] for m, c in mv.coefficients.items())


GRID_INVOLUTIONS = {"k2-deck": klein_deck(), "tau4": cover_diagram(build("moebius")).tau4}


@pytest.mark.parametrize("name", GRID_INVOLUTIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_deck_action_matches_pin2_evaluate_at_random_nodes(name, kind):
    # sign * rep(L(tau x)) s(tau x), with rep(L(tau x)) from the exact element's
    # multivector and tau x from the involution's own lattice map
    rng = np.random.default_rng(41)
    r = GammaRep.standard(kind)
    tau = GRID_INVOLUTIONS[name]
    for xi in torus_structures(kind).values():
        lift = lift_involution(xi, tau)
        moved_lift = pin2.at(lift.lift, *tau_coordinate_forms(tau))
        s = PinorField.random(N, rng)
        for sign in (1, -1):
            action = _deck_action(s, lift, sign).values
            for i, j in rng.integers(0, N, size=(5, 2)):
                image = tau.apply(Lattice(np.array(i), np.array(j), N))
                theta, phi = 2 * np.pi * i / N, 2 * np.pi * j / N
                m = gamma_image(pin2.evaluate(moved_lift, theta, phi), r)
                want = sign * m @ s.values[int(image.x), int(image.y)]
                assert np.abs(action[i, j] - want).max() < 1e-12


def test_couple_split_refuses_square_minus_one():
    xi = torus_structures(PIN_MINUS)["xi0"]
    s = constant_field(N, [1.0, 0.0])
    with pytest.raises(ValueError, match="squares to -1 for xi0"):
        couple_split(s, klein_lift(xi), 1)


def test_anti_invariant_input_projects_to_zero():
    xi = torus_structures(PIN_PLUS)["xi0"]
    rng = np.random.default_rng(3)
    lift = klein_lift(xi)
    s = PinorField.random(N, rng)
    inv = project_invariant(s, lift, 1)
    anti = project_invariant(inv, lift, -1)
    assert anti.max_norm() < TOL


# ---------------------------------------------------------------------------
# couples


@pytest.mark.parametrize("xi_kind", qualifying_pairs())
def test_couple_certificate(xi_kind):
    xi, kind = xi_kind
    rng = np.random.default_rng(11)
    lift = klein_lift(xi)
    s = project_invariant(PinorField.random(N, rng), lift, 1)
    couple = couple_split(s, lift, 1)
    assert couple.certificate_residual < TOL
    # chirality tags
    r = GammaRep.standard(kind)
    tagged_plus = np.einsum("ab,ijb->ija", r.omega, couple.plus.values)
    assert np.max(np.abs(tagged_plus - couple.plus.values)) < TOL
    tagged_minus = np.einsum("ab,ijb->ija", r.omega, couple.minus.values)
    assert np.max(np.abs(tagged_minus + couple.minus.values)) < TOL


def test_gamma_twisted_couple_certificate():
    xi = torus_structures(PIN_PLUS)["xi0"]
    rng = np.random.default_rng(13)
    lift = klein_lift(xi)
    s = project_invariant(PinorField.random(N, rng), lift, -1)
    couple = couple_split(s, lift, -1)
    assert couple.certificate_residual < TOL


def test_zero_field_splits_to_zero():
    xi = torus_structures(PIN_PLUS)["xi0"]
    z = constant_field(N, [0.0, 0.0])
    couple = couple_split(z, klein_lift(xi), 1)
    assert couple.plus.max_norm() == 0.0
    assert couple.minus.max_norm() == 0.0
    assert couple.certificate_residual == 0.0


@pytest.mark.parametrize("empty", [
    lambda: PinorField(np.zeros((0, 0, 2))),
    lambda: constant_field(0, [1.0, 0.0]),
    lambda: PinorField.random(0, np.random.default_rng(0)),
], ids=["array", "constant", "random"])
def test_empty_grid_is_refused(empty):
    # on a 0 x 0 grid every residual would read 0.0, even for the pin+ xi1
    # lift that squares to -1 under sign -1
    with pytest.raises(ValueError, match="N >= 1"):
        empty()


def test_orientation_choice_is_immaterial(monkeypatch):
    xi = torus_structures(PIN_PLUS)["xi0"]
    rng = np.random.default_rng(29)
    lift = klein_lift(xi)
    r = GammaRep.standard(PIN_PLUS)
    flipped = GammaRep(PIN_PLUS, r.gamma1, r.gamma2, -r.omega)
    s = project_invariant(PinorField.random(N, rng), lift, 1)
    c1 = couple_split(s, lift, 1)
    # the pinor layer reads the standard representation; hand it the flipped one
    monkeypatch.setattr(GammaRep, "standard", staticmethod(lambda kind: flipped))
    c2 = couple_split(s, lift, 1)
    # the opposite orientation swaps the chiral halves, equal as grid data
    assert np.array_equal(c1.plus.values, c2.minus.values)
    assert np.array_equal(c1.minus.values, c2.plus.values)
    assert c2.certificate_residual < TOL


# ---------------------------------------------------------------------------
# one lift solve per structure


@pytest.fixture
def lift_solves(monkeypatch):
    """The structures whose lift is solved, counted by rebinding lift_involution
    in every loaded pincover module; a module imported later would keep the
    counter, so the modules under test are imported at the top."""
    from pincover import structures

    original = structures.lift_involution
    solved = []

    def counted(xi, tau):
        solved.append(xi.label)
        return original(xi, tau)

    for name, module in list(sys.modules.items()):
        if name == "pincover" or name.startswith("pincover."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return solved


@pytest.mark.parametrize("kind", KINDS)
def test_pinors_check_solves_one_lift(lift_solves, kind, capsys):
    # xi0's Klein lift squares to +1 for pin+ and to -1 for pin-
    assert main(["pinors", "check", "t2", "--structure", "0", "--kind", kind,
                 "--format", "json"]) == 0
    assert lift_solves == ["xi0"]


def test_property_suites_solve_one_lift_per_structure(lift_solves):
    assert check_property_suites(0)[0]
    # descend(k2) solves the 4 lifts of each kind; the 2 qualifying ones are not solved again
    assert len(lift_solves) == 12


# ---------------------------------------------------------------------------
# one grid per lift


@pytest.fixture
def node_maps(monkeypatch):
    """The grid sizes _involution_node_map is called for, counted by wrapping
    it, with no (lift, grid) kept from an earlier test."""
    from pincover import pinors

    original = pinors._involution_node_map
    sizes = []

    def counted(tau, n):
        sizes.append(n)
        return original(tau, n)

    monkeypatch.setattr(pinors, "_involution_node_map", counted)
    pinors._deck_grid.cache_clear()
    yield sizes
    pinors._deck_grid.cache_clear()


@pytest.mark.parametrize("structure, kind", [("1", PIN_MINUS), ("0", PIN_PLUS), ("0", PIN_MINUS)])
def test_pinors_check_builds_one_grid(node_maps, structure, kind, capsys):
    # a descending lift acts four times (project, couple, residual, idempotency
    # gap), a lift that squares to -1 once; each reads the one grid
    assert main(["pinors", "check", "t2", "--structure", structure, "--kind", kind,
                 "--grid", "8", "--format", "json"]) == 0
    assert node_maps == [8]


def test_deck_grid_is_read_only_and_kept_for_the_last_lift_and_size(node_maps):
    from pincover.pinors import _deck_grid

    lifts = [klein_lift(xi) for xi in torus_structures(PIN_PLUS).values()][:2]
    rng = np.random.default_rng(5)
    fields = {n: PinorField.random(n, rng) for n in (4, 6)}
    for lift in lifts:
        for n, s in fields.items():
            cold = _deck_action(s, lift, 1).values
            warm = _deck_action(s, lift, 1).values  # reads the kept grid
            assert warm.tobytes() == cold.tobytes()
            for a in _deck_grid(lift, n):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = 0
    # one grid for each (lift, n) in turn
    assert node_maps == [4, 6, 4, 6]
