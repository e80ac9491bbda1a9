import math

import numpy as np
import pytest

from pincover.clifford import (
    Multivector,
    Signature,
    _sign_row,
    bilinear_form,
    fiber_group_tag,
    geometric_product,
    lift_orthogonal,
    orthogonal_matrix,
    twisted_adjoint,
)

TOL = 1e-9


def vector_part(mv):
    """The grade-1 coefficients of a multivector as an array."""
    out = np.zeros(mv.signature.n)
    for i in range(mv.signature.n):
        out[i] = mv.coefficients.get(1 << i, 0.0)
    return out


def is_pin_element(u, tol=TOL):
    """Check u maps vectors to vectors and u * reverse(u) = +-1."""
    value = u.value
    s = geometric_product(value, value.reverse())
    if not s.is_grade(0, tol) or abs(abs(s.scalar_part) - 1.0) > tol:
        return False
    try:
        m = orthogonal_matrix(value)
    except ValueError:
        return False
    return bool(np.allclose(m.T @ m, np.eye(value.signature.n), atol=math.sqrt(tol)))


def rotation2(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_multivector(rng, sig):
    masks = rng.integers(0, 1 << sig.n, size=4)
    return Multivector(sig, {int(m): float(c) for m, c in zip(masks, rng.normal(size=4))})


def test_square_of_e1_negative_signature():
    sig = Signature(0, 2)
    e1 = Multivector.basis_vector(sig, 0)
    assert (e1 * e1).approx_eq(Multivector.scalar(sig, -1.0))


def test_bivector_square_positive_signature():
    sig = Signature(2, 0)
    e1 = Multivector.basis_vector(sig, 0)
    e2 = Multivector.basis_vector(sig, 1)
    e12 = e1 * e2
    assert e12.coefficient(0b11) == 1.0
    assert (e12 * e12).approx_eq(Multivector.scalar(sig, -1.0))
    assert (e2 * e1).approx_eq(-e12)


def test_plus_minus_e1_has_order_four_in_negative_signature():
    # {+-1, +-e1} contains an order-4 element exactly when e1^2 = -1
    for n in range(1, 4):
        sig = Signature(0, n)
        e1 = Multivector.basis_vector(sig, 0)
        sq = e1 * e1
        assert sq.approx_eq(Multivector.scalar(sig, -1.0))
        fourth = sq * sq
        assert fourth.approx_eq(Multivector.scalar(sig, 1.0))


@pytest.mark.parametrize("n", range(1, 7))
def test_fiber_group_tags(n):
    assert fiber_group_tag(Signature(0, n)) == "Z4"
    assert fiber_group_tag(Signature(n, 0)) == "Z2xZ2"


@pytest.mark.parametrize("sig", [Signature(3, 0), Signature(0, 3)])
def test_reflection_action_of_e1(sig):
    e1 = Multivector.basis_vector(sig, 0)
    e2 = Multivector.basis_vector(sig, 1)
    assert twisted_adjoint(e1, e1).approx_eq(-e1)
    assert twisted_adjoint(e1, e2).approx_eq(e2)


def test_rotor_rotation_angle_matches_matrix_oracle():
    # u = cos(t/2) + sin(t/2) e1e2 acting on e1, against a 2x2 rotation matrix
    t = math.pi / 3
    for sig in (Signature(2, 0), Signature(0, 2)):
        u = Multivector(sig, {0: math.cos(t / 2), 0b11: math.sin(t / 2)})
        rotated = vector_part(twisted_adjoint(u, Multivector.basis_vector(sig, 0)))
        # the adjoint of the rotor rotates by t, with orientation fixed by e1^2
        expected = rotation2(t if sig.q == 2 else -t) @ np.array([1.0, 0.0])
        assert np.allclose(rotated, expected, atol=TOL)


def test_associativity_random():
    rng = np.random.default_rng(7)
    for sig in (Signature(3, 0), Signature(0, 3), Signature(0, 5)):
        for _ in range(200):
            a, b, c = (random_multivector(rng, sig) for _ in range(3))
            assert ((a * b) * c).approx_eq(a * (b * c), tol=1e-9 * 100)


def termwise_product(a, b):
    """The product with every blade sign recomputed from its definition, pair by pair."""
    sig = a.signature
    out = {}
    for ma, ca in a.coefficients.items():
        for mb, cb in b.coefficients.items():
            swaps = sum(1 for i in range(sig.n) for j in range(i) if ma >> i & 1 and mb >> j & 1)
            squares = math.prod(sig.metric(i) for i in range(sig.n) if (ma & mb) >> i & 1)
            sign = (-1) ** swaps * squares
            out[ma ^ mb] = out.get(ma ^ mb, 0.0) + sign * ca * cb
    return Multivector(sig, out)


@pytest.mark.parametrize("sig", [Signature(3, 0), Signature(0, 3), Signature(2, 3),
                                 Signature(6, 0), Signature(0, 6), Signature(5, 7)])
def test_memoized_product_is_bit_identical_to_termwise(sig):
    rng = np.random.default_rng(sig.n + sig.p)
    for _ in range(50):
        a, b = random_multivector(rng, sig), random_multivector(rng, sig)
        assert geometric_product(a, b).coefficients == termwise_product(a, b).coefficients


def _reorder_sign(a, b):
    """Sign from moving blade b's generators past blade a's into canonical order."""
    a >>= 1
    swaps = 0
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


def _blade_sign(sig, a, b):
    """Reordering sign of blades a, b, negated once per shared e_i with e_i^2 = -1."""
    sign = _reorder_sign(a, b)
    return -sign if ((a & b) >> sig.p).bit_count() & 1 else sign


def test_sign_rows_match_blade_sign_exhaustively():
    """Every sign row from the twist masks against the shift-loop reference
    _blade_sign, for every blade pair of every signature with n <= 8."""
    for n in range(9):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for a in range(1 << n):
                assert _sign_row(sig, a) == [_blade_sign(sig, a, b) for b in range(1 << n)], (
                    sig, a)


def test_vector_anticommutator_is_twice_bilinear_form():
    rng = np.random.default_rng(11)
    for sig in (Signature(4, 0), Signature(0, 4)):
        for _ in range(200):
            v = Multivector.from_vector(sig, rng.normal(size=sig.n))
            w = Multivector.from_vector(sig, rng.normal(size=sig.n))
            lhs = v * w + w * v
            rhs = Multivector.scalar(sig, 2.0 * bilinear_form(v, w))
            assert lhs.approx_eq(rhs, tol=TOL * 100)


def test_twisted_adjoint_preserves_metric():
    rng = np.random.default_rng(13)
    for sig in (Signature(3, 0), Signature(0, 3)):
        m = random_orthogonal(rng, sig.n)
        u, _ = lift_orthogonal(m, sig)
        for _ in range(50):
            v = Multivector.from_vector(sig, rng.normal(size=sig.n))
            w = Multivector.from_vector(sig, rng.normal(size=sig.n))
            lhs = bilinear_form(twisted_adjoint(u.value, v), twisted_adjoint(u.value, w))
            assert abs(lhs - bilinear_form(v, w)) < 1e-8


def test_lift_identity():
    for sig in (Signature(2, 0), Signature(0, 2)):
        u, v = lift_orthogonal(np.eye(2), sig)
        assert u.value.approx_eq(Multivector.scalar(sig, 1.0))
        assert v.value.approx_eq(Multivector.scalar(sig, -1.0))
        assert u.factor_count == 0


def test_lift_of_o0_is_plus_minus_one():
    sig = Signature(0, 0)
    u, v = lift_orthogonal(np.zeros((0, 0)), sig)
    assert u.value.approx_eq(Multivector.scalar(sig, 1.0))
    assert v.value.approx_eq(Multivector.scalar(sig, -1.0))
    assert (u.parity, u.factor_count) == ("even", 0)


def test_orthogonal_matrix_at_n0_is_float_like_every_n():
    for n in range(4):
        m = orthogonal_matrix(Multivector.scalar(Signature(n, 0), 1.0))
        assert m.dtype == np.float64 and np.array_equal(m, np.eye(n))


def test_lift_j1_is_plus_minus_e1():
    j1 = np.diag([-1.0, 1.0, 1.0])
    for sig in (Signature(3, 0), Signature(0, 3)):
        u, v = lift_orthogonal(j1, sig)
        e1 = Multivector.basis_vector(sig, 0)
        assert u.value.approx_eq(e1)
        assert v.value.approx_eq(-e1)
        assert u.parity == "odd"


def test_lift_quarter_turn_round_trip():
    m = rotation2(math.pi / 2)
    for sig in (Signature(2, 0), Signature(0, 2)):
        u, minus_u = lift_orthogonal(m, sig)
        assert np.allclose(orthogonal_matrix(u), m, atol=TOL)
        assert np.allclose(orthogonal_matrix(minus_u), m, atol=TOL)
        assert u.parity == "even"
        # the lift is +-(cos(pi/4) + sin(pi/4) e1e2) up to the bivector sign
        assert abs(abs(u.value.coefficient(0)) - math.cos(math.pi / 4)) < TOL
        assert abs(abs(u.value.coefficient(0b11)) - math.sin(math.pi / 4)) < TOL


def test_lift_round_trip_random():
    rng = np.random.default_rng(2024)
    cases = 0
    while cases < 100:
        n = int(rng.integers(1, 7))
        m = random_orthogonal(rng, n)
        for sig in (Signature(n, 0), Signature(0, n)):
            u, minus_u = lift_orthogonal(m, sig)
            assert np.allclose(orthogonal_matrix(u), m, atol=1e-8)
            assert minus_u.value.approx_eq(-u.value)
            assert is_pin_element(u)
        cases += 1


def test_orthogonal_matrix_is_bit_identical_to_twisted_adjoint_columns():
    rng = np.random.default_rng(31)
    versors = []
    for case in range(300):
        n = 1 + case % 6
        m = random_orthogonal(rng, n)
        versors += [(sig, lift_orthogonal(m, sig)[0]) for sig in (Signature(n, 0), Signature(0, n))]
    # mixed signatures, where a twist mask carries both the swap parity and
    # the negative-metric bit: products of 1 to p + q + 1 random vectors
    for p in range(1, 4):
        for q in range(1, 4):
            sig = Signature(p, q)
            for _ in range(12):
                u = Multivector.scalar(sig, 1.0)
                for _ in range(int(rng.integers(1, p + q + 2))):
                    u = u * Multivector.from_vector(sig, rng.normal(size=p + q))
                versors.append((sig, u))
    for sig, u in versors:
        cols = [vector_part(twisted_adjoint(u, Multivector.basis_vector(sig, i)))
                for i in range(sig.n)]
        assert np.array_equal(orthogonal_matrix(u), np.column_stack(cols))


def test_invertible_non_versor_fails_the_grade_check():
    # 1 + e123 has the inverse (1 - e123) / 2 but maps e1 to -e23
    sig = Signature(3, 0)
    u = Multivector(sig, {0: 1.0, 0b111: 1.0})
    assert u.inverse().approx_eq(Multivector(sig, {0: 0.5, 0b111: -0.5}))
    with pytest.raises(ValueError, match="did not preserve grade 1"):
        orthogonal_matrix(u)
    with pytest.raises(ValueError, match="did not preserve grade 1"):
        twisted_adjoint(u, Multivector.basis_vector(sig, 0))


def test_lift_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        lift_orthogonal(np.array([[1.0, 1.0], [0.0, 1.0]]), Signature(2, 0))


@pytest.mark.parametrize("diagonal", [(1 + 1e-6, 1.0), (1.0, -1 - 2e-6)])
def test_lift_rejects_a_diagonal_off_by_more_than_the_tolerance(diagonal):
    # within np.allclose's default rtol of 1e-5, but 1e-6 off in M^T M
    with pytest.raises(ValueError, match="not orthogonal within tolerance"):
        lift_orthogonal(np.diag(diagonal), Signature(2, 0))


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(-1, 0)
    with pytest.raises(ValueError):
        Signature(7, 6)


def test_inverse_of_versor():
    sig = Signature(0, 2)
    e1 = Multivector.basis_vector(sig, 0)
    assert geometric_product(e1, e1.inverse()).approx_eq(Multivector.scalar(sig, 1.0))
    zero = Multivector(sig, {})
    with pytest.raises(ValueError):
        zero.inverse()
