import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pincover import pin2
from pincover.clifford import geometric_product, orthogonal_matrix
from pincover.pin2 import (
    EVEN,
    KINDS,
    ODD,
    PIN_MINUS,
    PIN_PLUS,
    ZERO_ANGLE,
    AngleForm,
    Pin2Element,
    angle,
    canonical_sign,
    compose,
    e1,
    e2,
    evaluate,
    even,
    inverse,
    is_periodic,
    lift_o2,
    mul,
    odd,
    one,
    reflection,
    rotation,
    scalar_value,
)

HALF = Fraction(1, 2)
J2 = reflection(angle(const=HALF))  # (x, y) -> (x, -y)


def project(x):
    """The O(2) element covered by x under the twisted adjoint."""
    if x.parity == ODD:
        return reflection(x.angle)
    factor = 2 if x.kind == PIN_MINUS else -2
    return rotation(x.angle.scaled(factor))


def minus_one(kind):
    """-1 written as the even element at angle pi, apart from the negation."""
    return even(kind, angle(const=1))


def o2_matrix(g, theta0=0.0, phi0=0.0):
    """The 2x2 matrix of an O(2) path element at (theta0, phi0)."""
    t = g.angle.evaluate(theta0, phi0)
    if g.parity == pin2.ROTATION:
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    # negate the unit vector at angle t, fix its orthogonal line
    return np.array([[-math.cos(2 * t), -math.sin(2 * t)],
                     [-math.sin(2 * t), math.cos(2 * t)]])


def test_angle_form_normalizes_constant_mod_two():
    assert angle(const=Fraction(5, 2)) == angle(const=HALF)
    assert angle(theta=1, const=-1) == angle(theta=1, const=1)
    assert angle(theta=HALF) != angle(theta=-HALF)


def test_angle_substitution():
    # theta -> theta + pi, phi -> -phi
    a = angle(theta=-HALF, phi=2)
    image = a.substitute(angle(theta=1, const=1), angle(phi=-1))
    assert image == angle(theta=-HALF, phi=-2, const=-HALF)


def test_sign_absorption():
    x = odd(PIN_MINUS, angle(theta=1, const=HALF))
    assert -x == odd(PIN_MINUS, angle(theta=1, const=Fraction(3, 2)))
    assert -(-x) == x


def test_sphere_deck_square_pin_minus_is_identity():
    # odd(theta + 3pi/2) * odd(theta + pi/2) = even(0) = 1
    a = odd(PIN_MINUS, angle(theta=1, const=Fraction(3, 2)))
    b = odd(PIN_MINUS, angle(theta=1, const=HALF))
    assert mul(a, b) == one(PIN_MINUS)
    assert scalar_value(mul(a, b)) == 1


def test_sphere_deck_square_pin_plus_is_minus_one():
    a = odd(PIN_PLUS, angle(theta=1, const=Fraction(3, 2)))
    b = odd(PIN_PLUS, angle(theta=1, const=HALF))
    assert mul(a, b) == minus_one(PIN_PLUS)
    assert scalar_value(mul(a, b)) == -1


def test_even_inverse():
    for kind in (PIN_PLUS, PIN_MINUS):
        s = angle(theta=HALF, const=Fraction(1, 3))
        assert mul(even(kind, s), even(kind, -s)) == one(kind)


def test_unit_vector_squares():
    assert scalar_value(mul(e1(PIN_PLUS), e1(PIN_PLUS))) == 1
    assert scalar_value(mul(e1(PIN_MINUS), e1(PIN_MINUS))) == -1
    assert scalar_value(mul(e2(PIN_PLUS), e2(PIN_PLUS))) == 1
    assert scalar_value(mul(e2(PIN_MINUS), e2(PIN_MINUS))) == -1


def generators(kind):
    return [
        even(kind, angle(theta=HALF)),
        even(kind, angle(theta=-HALF)),
        even(kind, angle(phi=HALF)),
        even(kind, angle(phi=-HALF)),
        odd(kind, angle()),
        odd(kind, angle(const=HALF)),
        even(kind, angle(const=1)),
    ]


@pytest.mark.parametrize("kind", [PIN_PLUS, PIN_MINUS])
def test_group_laws_exact(kind):
    gens = generators(kind)
    for x in gens:
        assert mul(x, inverse(x)) == one(kind)
        assert mul(inverse(x), x) == one(kind)
        for y in gens:
            for z in gens:
                assert mul(mul(x, y), z) == mul(x, mul(y, z))


@pytest.mark.parametrize("kind", [PIN_PLUS, PIN_MINUS])
def test_project_is_two_to_one_homomorphism(kind):
    gens = generators(kind)
    for x in gens:
        for y in gens:
            assert project(mul(x, y)) == compose(project(x), project(y))
        plus, minus = lift_o2(project(x), kind)
        assert {plus, minus} == {canonical_sign(x), -canonical_sign(x)}
        assert minus == -plus


def test_project_rotation_lift():
    # R~_theta = even(theta/2) covers the rotation by theta (pin-)
    x = even(PIN_MINUS, angle(theta=HALF))
    assert project(x) == rotation(angle(theta=1))
    # +- lifts project equally
    assert project(-x) == project(x)


def test_project_e1_is_j1():
    for kind in (PIN_PLUS, PIN_MINUS):
        assert project(e1(kind)) == pin2.J1
        mat = o2_matrix(project(e1(kind)))
        assert np.allclose(mat, np.diag([-1.0, 1.0]))


def test_lift_rotation():
    got = lift_o2(rotation(angle(theta=1)), PIN_MINUS)
    assert got == (even(PIN_MINUS, angle(theta=HALF)),
                   even(PIN_MINUS, angle(theta=HALF, const=1)))


def test_lift_sphere_reflection():
    for kind in (PIN_PLUS, PIN_MINUS):
        got = lift_o2(reflection(angle(theta=1, const=HALF)), kind)
        assert got == (odd(kind, angle(theta=1, const=HALF)),
                       odd(kind, angle(theta=1, const=Fraction(3, 2))))


def test_lift_j2_is_plus_minus_e2():
    for kind in (PIN_PLUS, PIN_MINUS):
        got = lift_o2(J2, kind)
        assert got == (e2(kind), -e2(kind))


def test_evaluate_basis():
    for kind in (PIN_PLUS, PIN_MINUS):
        for t0 in (0.0, 1.3):
            u = evaluate(one(kind), t0)
            assert abs(u.coefficient(0) - 1.0) < 1e-12
            v = evaluate(e2(kind), t0)
            assert abs(v.coefficient(0b10) - 1.0) < 1e-12
            assert v.norm() == pytest.approx(1.0)


@pytest.mark.parametrize("kind", [PIN_PLUS, PIN_MINUS])
def test_evaluate_is_homomorphism_against_numeric_oracle(kind):
    rng = np.random.default_rng(5)
    gens = generators(kind)
    worst = 0.0
    for _ in range(1000):
        x = gens[rng.integers(len(gens))]
        y = gens[rng.integers(len(gens))]
        t0, p0 = rng.uniform(0, 2 * math.pi, size=2)
        lhs = evaluate(mul(x, y), t0, p0)
        rhs = geometric_product(evaluate(x, t0, p0), evaluate(y, t0, p0))
        worst = max(worst, (lhs - rhs).norm())
    assert worst < 1e-9


@pytest.mark.parametrize("kind", [PIN_PLUS, PIN_MINUS])
def test_project_consistent_with_twisted_adjoint(kind):
    rng = np.random.default_rng(17)
    for x in generators(kind):
        t0, p0 = rng.uniform(0, 2 * math.pi, size=2)
        numeric = orthogonal_matrix(evaluate(x, t0, p0))
        symbolic = o2_matrix(project(x), t0, p0)
        assert np.allclose(numeric, symbolic, atol=1e-9)


def test_is_periodic():
    # even(-theta/2) picks up -pi under theta -> theta + 2pi: not periodic
    assert not is_periodic(even(PIN_MINUS, angle(theta=-HALF)), 2)
    assert is_periodic(odd(PIN_MINUS, angle(const=HALF)), 2)
    assert is_periodic(even(PIN_MINUS, angle(theta=1)), 2)
    assert is_periodic(even(PIN_MINUS, angle(theta=-HALF, phi=1)), 2, var="phi")
    assert not is_periodic(even(PIN_MINUS, angle(phi=HALF)), 2, var="phi")


def test_kind_mismatch_raises():
    with pytest.raises(ValueError):
        mul(one(PIN_PLUS), one(PIN_MINUS))


def test_canonical_sign():
    x = even(PIN_MINUS, angle(theta=1, const=Fraction(7, 4)))
    assert canonical_sign(x) == -x
    y = even(PIN_MINUS, angle(theta=1, const=Fraction(3, 4)))
    assert canonical_sign(y) == y


# ---------------------------------------------------------------------------
# AngleForm: properties over random exact coefficients

coefficients = st.fractions(-6, 6, max_denominator=8)
forms = st.builds(AngleForm, coefficients, coefficients, coefficients)
points = st.floats(-7, 7, allow_nan=False)


def same_angle(x, y):
    """x and y are one angle up to a multiple of 2 pi, within the 1e-9 float tolerance."""
    return abs(math.remainder(x - y, 2 * math.pi)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(forms, forms, forms)
def test_angle_forms_are_an_abelian_group(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + ZERO_ANGLE == a and a + -a == ZERO_ANGLE
    assert a - b == a + -b and -(-a) == a
    assert (a - b) + b == a


@settings(max_examples=60, deadline=None)
@given(forms, forms, forms, coefficients, points, points)
def test_shifted_scaled_and_substitute_agree_with_evaluate(a, theta, phi, q, t, p):
    value = a.evaluate(t, p)
    assert same_angle(a.shifted(q).evaluate(t, p), value + float(q) * math.pi)
    assert same_angle(a.scaled(q).evaluate(t, p), float(q) * value)
    assert same_angle(a.substitute(theta, phi).evaluate(t, p),
                      a.evaluate(theta.evaluate(t, p), phi.evaluate(t, p)))
    assert same_angle((a + theta).evaluate(t, p), value + theta.evaluate(t, p))
    assert same_angle((-a).evaluate(t, p), -value)


@settings(max_examples=60, deadline=None)
@given(forms, points, points)
def test_evaluate_is_the_float_sum_bit_for_bit(a, t, p):
    want = float(a.theta) * t + float(a.phi) * p + float(a.const) * math.pi
    # the first call converts the coefficients, later calls reuse them
    assert a.evaluate(t, p) == want and a.evaluate(t, p) == want
    assert a.evaluate() == float(a.const) * math.pi
    grid = np.linspace(-7, 7, 5)
    assert np.array_equal(a.evaluate(grid, p),
                          float(a.theta) * grid + float(a.phi) * p + float(a.const) * math.pi)


# ---------------------------------------------------------------------------
# Pin2Element: the group laws on random elements, and mul against sympy

parities = st.sampled_from((EVEN, ODD))


def elements(kind):
    """Elements of one kind, of either parity, at random rational angle forms."""
    return st.builds(Pin2Element, st.just(kind), parities, forms)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(KINDS).flatmap(lambda kind: st.tuples(*[elements(kind)] * 3)))
def test_group_laws_on_random_elements(xyz):
    x, y, z = xyz
    unit = one(x.kind)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, inverse(x)) == unit == mul(inverse(x), x)
    assert mul(unit, x) == x == mul(x, unit)
    assert mul(-x, y) == -mul(x, y) == mul(x, -y)


THETA, PHI = sympy.symbols("theta phi", real=True)


def symbolic(x):
    """x as {blade: sympy coefficient}, blades 0b00 .. 0b11 for 1, e1, e2, e1e2."""
    a = x.angle
    t = sum(sympy.Rational(c.numerator, c.denominator) * v
            for c, v in ((a.theta, THETA), (a.phi, PHI), (a.const, sympy.pi)))
    if x.parity == EVEN:
        return {0b00: sympy.cos(t), 0b11: sympy.sin(t)}
    return {0b01: sympy.cos(t), 0b10: sympy.sin(t)}


def blade_product(a, b, square):
    """(sign, blade) with e_a e_b = sign e_blade, e1^2 = e2^2 = square: an e2 of
    a passes an e1 of b once, and each shared generator squares."""
    return (-1) ** (a >> 1 & b & 1) * square ** (a & b).bit_count(), a ^ b


# pi coefficients whose sums have cosines sympy writes in radicals
pi_coefficients = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KINDS), parities, parities, pi_coefficients, pi_coefficients)
def test_mul_is_the_trigonometric_product_in_the_clifford_plane(kind, px, py, b, c):
    """x at theta + b pi times y at phi + c pi, expanded in Cl(2,0) (pin+) or
    Cl(0,2) (pin-), is mul(x, y) in sympy's trigonometric expansion.  theta and
    phi stay free symbols, so mul's closed form holds at every pair of angles,
    and with them at any two angle forms."""
    square = 1 if kind == PIN_PLUS else -1
    x = Pin2Element(kind, px, angle(theta=1, const=b))
    y = Pin2Element(kind, py, angle(phi=1, const=c))
    want = dict.fromkeys(range(4), 0)
    for blade_x, cx in symbolic(x).items():
        for blade_y, cy in symbolic(y).items():
            sign, blade = blade_product(blade_x, blade_y, square)
            want[blade] += sign * cx * cy
    got = symbolic(mul(x, y))
    for blade, value in want.items():
        assert sympy.expand(sympy.expand_trig(value - got.get(blade, 0))) == 0, blade
