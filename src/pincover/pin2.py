"""Exact symbolic algebra of Pin+-(2)-valued paths in one or two angles.

Every element is in canonical form: even(t) = cos t + sin t e1e2 or
odd(t) = cos t e1 + sin t e2, where t = a*theta + c*phi + b*pi with rational
a, c, b.  Since even(t + pi) = -even(t) and odd(t + pi) = -odd(t), global
signs are absorbed into the angle, and equality reduces b mod 2.

The covering map onto O(2) is the one induced by the twisted adjoint in the
matching Clifford algebra: odd(t) covers the reflection negating the unit
vector at angle t for both kinds, while even(t) covers the rotation by 2t
for Pin- and by -2t for Pin+ (the bivector e1e2 conjugates with opposite
orientation in the two signatures).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .clifford import Multivector, Signature
from .records import Frozen

PIN_PLUS = "pin+"
PIN_MINUS = "pin-"
KINDS = (PIN_PLUS, PIN_MINUS)

EVEN = "even"
ODD = "odd"

ROTATION = "rotation"
REFLECTION = "reflection"


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class AngleForm(Frozen):
    """Affine angle a*theta + c*phi + b*pi with rational a, c, b.

    The constant (in units of pi) is stored mod 2 (a shift by 2*pi is the
    identity for both parities); theta and phi coefficients are compared exactly.
    The coefficients as floats are kept on the first evaluate, not as a field.
    """

    __slots__ = ("theta", "phi", "const", "_floats")
    _fields = ("theta", "phi", "const")

    def __init__(self, theta=Fraction(0), phi=Fraction(0), const=Fraction(0)):
        self._set(frac(theta), frac(phi), frac(const) % 2)
        object.__setattr__(self, "_floats", None)

    def __add__(self, other: "AngleForm") -> "AngleForm":
        return AngleForm(self.theta + other.theta, self.phi + other.phi,
                         self.const + other.const)

    def __sub__(self, other: "AngleForm") -> "AngleForm":
        return AngleForm(self.theta - other.theta, self.phi - other.phi,
                         self.const - other.const)

    def __neg__(self) -> "AngleForm":
        return AngleForm(-self.theta, -self.phi, -self.const)

    def shifted(self, half_turns) -> "AngleForm":
        """Add a rational multiple of pi."""
        return AngleForm(self.theta, self.phi, self.const + frac(half_turns))

    def scaled(self, factor) -> "AngleForm":
        f = frac(factor)
        return AngleForm(self.theta * f, self.phi * f, self.const * f)

    def substitute(self, theta: "AngleForm", phi: "AngleForm") -> "AngleForm":
        """Replace the coordinates by affine forms (e.g. compose with an involution)."""
        return AngleForm(
            self.theta * theta.theta + self.phi * phi.theta,
            self.theta * theta.phi + self.phi * phi.phi,
            self.const + self.theta * theta.const + self.phi * phi.const,
        )

    def is_constant(self) -> bool:
        return self.theta == 0 and self.phi == 0

    def evaluate(self, theta0: float = 0.0, phi0: float = 0.0) -> float:
        """Value in radians."""
        if self._floats is None:
            object.__setattr__(self, "_floats", tuple(map(float, self._values(self))))
        theta, phi, const = self._floats
        return theta * theta0 + phi * phi0 + const * math.pi

    def __str__(self):
        parts = []
        for coeff, name in ((self.theta, "θ"), (self.phi, "φ")):
            if coeff == 0:
                continue
            if coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}·{name}")
        if self.const != 0 or not parts:
            c = self.const
            parts.append("0" if c == 0 else ("π" if c == 1 else f"{c}·π"))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


ZERO_ANGLE = AngleForm()


def angle(theta=0, phi=0, const=0) -> AngleForm:
    return AngleForm(frac(theta), frac(phi), frac(const))


class Pin2Element(Frozen):
    """Canonical-form element even(t) or odd(t) of Pin+-(2), t an AngleForm."""

    __slots__ = ("kind", "parity", "angle")

    def __init__(self, kind: str, parity: str, angle: AngleForm):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if parity not in (EVEN, ODD):
            raise ValueError(f"unknown parity {parity!r}")
        self._set(kind, parity, angle)

    def __neg__(self) -> "Pin2Element":
        return Pin2Element(self.kind, self.parity, self.angle.shifted(1))

    def __str__(self):
        return f"{self.parity}({self.angle})"


def even(kind: str, a: AngleForm) -> Pin2Element:
    return Pin2Element(kind, EVEN, a)


def odd(kind: str, a: AngleForm) -> Pin2Element:
    return Pin2Element(kind, ODD, a)


def one(kind: str) -> Pin2Element:
    return even(kind, ZERO_ANGLE)


def e1(kind: str) -> Pin2Element:
    return odd(kind, ZERO_ANGLE)


def e2(kind: str) -> Pin2Element:
    return odd(kind, angle(const=Fraction(1, 2)))


def mul(x: Pin2Element, y: Pin2Element) -> Pin2Element:
    """Closed-form product; x acts after y (left multiplication on fibers)."""
    if x.kind != y.kind:
        raise ValueError("kind mismatch")
    k, s, t = x.kind, x.angle, y.angle
    if x.parity == EVEN and y.parity == EVEN:
        return even(k, s + t)
    if k == PIN_PLUS:
        if x.parity == EVEN:  # even(s) * odd(t)
            return odd(k, t - s)
        if y.parity == EVEN:  # odd(s) * even(t)
            return odd(k, s + t)
        return even(k, t - s)  # odd(s) * odd(t)
    if x.parity == EVEN:  # even(s) * odd(t)
        return odd(k, t + s)
    if y.parity == EVEN:  # odd(s) * even(t)
        return odd(k, s - t)
    return even(k, (s - t).shifted(1))  # odd(s) * odd(t)


def inverse(x: Pin2Element) -> Pin2Element:
    if x.parity == EVEN:
        return even(x.kind, -x.angle)
    if x.kind == PIN_PLUS:
        return odd(x.kind, x.angle)  # unit vectors square to +1
    return odd(x.kind, x.angle.shifted(1))  # to -1


def is_scalar(x: Pin2Element) -> bool:
    return x.parity == EVEN and x.angle.is_constant() and (x.angle.const % 1 == 0)


def scalar_value(x: Pin2Element) -> int:
    """+1 or -1 for elements equal to a scalar."""
    if not is_scalar(x):
        raise ValueError(f"{x} is not +-1")
    return 1 if x.angle.const % 2 == 0 else -1


class O2PathElement(Frozen):
    """Rotation by t, or the reflection negating the unit vector at angle t.

    As O(2) values, reflections with angles differing by pi coincide, so a
    reflection's constant is stored mod 1; a rotation's mod 2.
    """

    __slots__ = ("parity", "angle")

    def __init__(self, parity: str, angle: AngleForm):
        if parity not in (ROTATION, REFLECTION):
            raise ValueError(f"unknown parity {parity!r}")
        if parity == REFLECTION:
            angle = AngleForm(angle.theta, angle.phi, angle.const % 1)
        self._set(parity, angle)

    def __str__(self):
        return f"{self.parity}({self.angle})"


def rotation(a: AngleForm) -> O2PathElement:
    return O2PathElement(ROTATION, a)


def reflection(a: AngleForm) -> O2PathElement:
    return O2PathElement(REFLECTION, a)


J1 = reflection(ZERO_ANGLE)  # (x, y) -> (-x, y)


def compose(g: O2PathElement, h: O2PathElement) -> O2PathElement:
    """g after h, i.e. the matrix product g*h."""
    s, t = g.angle, h.angle
    if g.parity == ROTATION and h.parity == ROTATION:
        return rotation(s + t)
    if g.parity == ROTATION:
        return reflection(t + s.scaled(Fraction(1, 2)))
    if h.parity == ROTATION:
        return reflection(s - t.scaled(Fraction(1, 2)))
    return rotation((s - t).scaled(2))


def o2_inverse(g: O2PathElement) -> O2PathElement:
    if g.parity == ROTATION:
        return rotation(-g.angle)
    return g  # reflections are involutions


def at(x: Pin2Element | O2PathElement, theta: AngleForm, phi: AngleForm):
    """The path x with its coordinates replaced by affine forms, e.g. x(tau(theta, phi))."""
    return x._replace(angle=x.angle.substitute(theta, phi))


def lift_o2(g: O2PathElement, kind: str) -> tuple[Pin2Element, Pin2Element]:
    """The two preimages of g under the twisted adjoint, differing by an angle shift of pi."""
    if g.parity == REFLECTION:
        first = odd(kind, g.angle)
    else:
        factor = Fraction(1, 2) if kind == PIN_MINUS else Fraction(-1, 2)
        first = even(kind, g.angle.scaled(factor))
    return first, -first


def canonical_sign(x: Pin2Element) -> Pin2Element:
    """Representative with constant in [0, 1) (the other lift is angle + pi)."""
    if x.angle.const % 2 < 1:
        return x
    return -x


def canonical_lift(g: O2PathElement, kind: str) -> Pin2Element:
    """The preimage of g under the twisted adjoint whose constant lies in [0, 1)."""
    return canonical_sign(lift_o2(g, kind)[0])


def is_periodic(x: Pin2Element, shift, var: str = "theta") -> bool:
    """Does substituting var -> var + shift (shift in units of pi) fix x exactly?"""
    coeff = x.angle.theta if var == "theta" else x.angle.phi
    return (coeff * frac(shift)) % 2 == 0


_PLUS_PLANE, _MINUS_PLANE = Signature(2, 0), Signature(0, 2)


def evaluate(x: Pin2Element, theta0: float = 0.0, phi0: float = 0.0) -> Multivector:
    """Numeric multivector in Cl(2,0) (pin+) or Cl(0,2) (pin-)."""
    sig = _PLUS_PLANE if x.kind == PIN_PLUS else _MINUS_PLANE
    t = x.angle.evaluate(theta0, phi0)
    if x.parity == EVEN:
        return Multivector._trusted(sig, {0: math.cos(t), 0b11: math.sin(t)})
    return Multivector._trusted(sig, {0b01: math.cos(t), 0b10: math.sin(t)})
