"""Surface models: fundamental polygons, involutions, double covers, doubles.

Flat models live on the square [0, 2pi]^2.  Points are given in units of pi
as exact rationals, and every map is computed on an integer lattice: a
`Lattice` holds int64 coordinate arrays with an explicit period (the number
of lattice units in 2pi), so the identifications are exact modular
arithmetic over a whole grid at once.  The sphere is a two-disc clutching
model whose geometry is only ever queried on the equator.  Families beyond
the base cases (sigma_g, N_{g,1}, N_{g,2} with g >= 1) carry combinatorial
gluing words only.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from . import pin2
from .homology import GluingWord, PolygonComplex
from .pin2 import O2PathElement, angle, reflection
from .records import Frozen, Record

# annotations are strings (PEP 563); this keeps typing itself out of the import
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable

    import numpy as np

Point = tuple[Fraction, Fraction]  # units of pi

FLAT_SQUARE = "flat-square"
TWO_DISC = "two-disc"
FAMILY_ONLY = "family-only"


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Lattice(Frozen):
    """Points as int64 coordinate arrays; `period` lattice units make 2pi."""

    __slots__ = ("x", "y", "period")

    def __init__(self, x: np.ndarray, y: np.ndarray, period: int):
        self._set(x, y, period)

    def __iter__(self):  # x, y, period = lattice
        return iter((self.x, self.y, self.period))


def _halve(a: np.ndarray) -> np.ndarray:
    """Exact half of each coordinate; an odd one has no half on the lattice."""
    if (a % 2).any():
        raise ValueError("halving an odd lattice coordinate")
    return a // 2


def _units(c: Fraction, period: int) -> int:
    """A constant in units of pi as a whole number of lattice units."""
    v = c * (period // 2)
    if v.denominator != 1:
        raise ValueError(f"{c}pi is not on the lattice of period {period}")
    return v.numerator


# lifted coordinates stay below this, so the kernels' sums and doublings fit int64
_LIFT_LIMIT = 2 ** 56


def _exact(kernel):
    """Let a lattice kernel also take and return one point in units of pi.

    The point is lifted onto the lattice whose half period (pi) is twice the
    common denominator of its coordinates and of the owner's shifts (its
    `denominator`, if it has one).  No map halves a coordinate twice, so every
    halving is exact, and the image maps back to Fractions.
    """

    @functools.wraps(kernel)
    def on_point(self, p):
        if isinstance(p, Lattice):
            return kernel(self, p)
        import numpy as np

        x, y = frac(p[0]), frac(p[1])
        half = 2 * math.lcm(x.denominator, y.denominator, getattr(self, "denominator", 1))
        if max(abs(x), abs(y), 1) * half > _LIFT_LIMIT:
            raise ValueError(f"point {p} is too large for the int64 lattice")
        lifted = Lattice(np.array([(x * half).numerator], np.int64),
                         np.array([(y * half).numerator], np.int64), 2 * half)
        q = kernel(self, lifted)
        return (Fraction(int(q.x[0]), half), Fraction(int(q.y[0]), half))

    return on_point


# identification rules for the second coordinate wrap, per model
WRAP_NONE = "none"          # coordinate clamped to [0, 2] (boundary)
WRAP_STRAIGHT = "straight"  # v ~ v + 2
WRAP_FLIP_OTHER = "flip"    # (u, v) ~ (f(u), v + 2) with the other coordinate negated


class SurfaceModel(Frozen):
    """A surface's gluing word and coordinates; a geometric model's record also
    holds its deck involution, double, lift domain and structure twists."""

    __slots__ = ("name", "model_kind", "word", "orientable", "boundary_components", "x_wrap",
                 "y_wrap", "genus", "cross_caps", "deck", "double", "periodic_vars", "twists")

    def __init__(
        self,
        name: str,
        model_kind: str,
        word: GluingWord,
        orientable: bool,
        boundary_components: int,
        x_wrap: str = WRAP_STRAIGHT,
        y_wrap: str = WRAP_STRAIGHT,
        genus: int = 0,
        cross_caps: int = 0,
        # the geometry of a named model; family-only models have none
        deck: Involution | None = None,  # on the orientation double cover
        double: Double | None = None,    # the closed double of a model with boundary
        periodic_vars: tuple[str, ...] | None = None,  # period-2pi lift coordinates
        # label -> (a, b) of R_{a theta + b phi}
        twists: tuple[tuple[str, tuple[int, int]], ...] = (),
    ):
        self._set(name, model_kind, word, orientable, boundary_components, x_wrap, y_wrap,
                  genus, cross_caps, deck, double, periodic_vars, twists)

    @property
    def complex(self) -> PolygonComplex:
        return self.word.complex

    def euler_characteristic(self) -> int:
        return self.complex.euler_characteristic()

    @_exact
    def reduce(self, p: Lattice) -> Lattice:
        """Canonical representatives of points modulo the identifications."""
        import numpy as np

        if self.model_kind != FLAT_SQUARE:
            raise ValueError(f"{self.name} has no square coordinates")
        x, y, period = p
        if self.y_wrap == WRAP_STRAIGHT:
            y = y % period
        elif self.y_wrap == WRAP_FLIP_OTHER:
            x = np.where(y // period % 2 == 1, -x, x)
            y = y % period
        elif not ((0 <= y) & (y <= period)).all():
            raise ValueError(f"{self.name}: y out of range")
        if self.x_wrap == WRAP_STRAIGHT:
            x = x % period
        elif self.x_wrap == WRAP_FLIP_OTHER:
            flipped = period - y if self.y_wrap == WRAP_NONE else -y % period
            y = np.where(x // period % 2 == 1, flipped, y)
            x = x % period
        elif not ((0 <= x) & (x <= period)).all():
            raise ValueError(f"{self.name}: x out of range")
        # edge representatives: the wrapped coordinate's seam is taken at 0
        return Lattice(x, y, period)

    def same_point(self, p: Point, q: Point) -> bool:
        return self.reduce(p) == self.reduce(q)


class Involution(Frozen):
    """Affine map (x, y) -> M (x, y) + c on the square, or the sphere's equatorial one."""

    __slots__ = ("name", "matrix", "shift", "domain", "fixed_point_free")

    def __init__(
        self,
        name: str,
        matrix: tuple[tuple[int, int], tuple[int, int]] | None,  # None for equatorial
        shift: tuple[Fraction, Fraction] | None,                 # units of pi
        domain: SurfaceModel,
        fixed_point_free: bool,
    ):
        self._set(name, matrix, shift, domain, fixed_point_free)

    @classmethod
    def affine(cls, name, matrix, shift, domain, fixed_point_free):
        m = tuple(tuple(int(e) for e in row) for row in matrix)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if abs(det) != 1:
            raise ValueError("linear part must be unimodular")
        s = (frac(shift[0]), frac(shift[1]))
        return cls(name, m, s, domain, fixed_point_free)

    @classmethod
    def equatorial(cls, name, domain):
        """The sphere's antipodal map z -> -1/conj(z)."""
        return cls(name, None, None, domain, True)

    @property
    def is_equatorial(self) -> bool:
        return self.matrix is None

    @property
    def denominator(self) -> int:
        """Common denominator of the shift, in units of pi."""
        return 1 if self.shift is None else math.lcm(*(c.denominator for c in self.shift))

    @_exact
    def apply_raw(self, p: Lattice) -> Lattice:
        x, y, period = p
        if self.is_equatorial:
            # on the equator z = e^{i theta}: theta -> theta + pi
            return Lattice(x + period // 2, y, period)
        (a, b), (c, d) = self.matrix
        sx, sy = (_units(s, period) for s in self.shift)
        return Lattice(a * x + b * y + sx, c * x + d * y + sy, period)

    @_exact
    def apply(self, p: Lattice) -> Lattice:
        q = self.apply_raw(p)
        if self.is_equatorial:
            return Lattice(q.x % q.period, q.y, q.period)
        return self.domain.reduce(q)

    def orthogonal_part(self) -> tuple[tuple[int, int], tuple[int, int]]:
        m = self.matrix
        if m is None:
            raise ValueError("equatorial involution has no constant linear part")
        if (m[0][0] * m[0][1] + m[1][0] * m[1][1] != 0
                or m[0][0] ** 2 + m[1][0] ** 2 != 1
                or m[0][1] ** 2 + m[1][1] ** 2 != 1):
            raise ValueError(f"{self.name}: linear part is not orthogonal")
        return m


def jacobian(tau: Involution) -> O2PathElement:
    """Differential of tau as an O(2) path element.

    Flat involutions have a constant differential; the sphere's antipodal map
    is only modelled along the equator, where its differential at angle theta
    is the reflection fixing the line at angle theta.
    """
    if tau.is_equatorial:
        return reflection(angle(theta=1, const=Fraction(1, 2)))
    m = tau.orthogonal_part()
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det == 1:
        # rotation by a multiple of pi/2
        mapping = {(1, 0): 0, (0, 1): Fraction(1, 2), (-1, 0): 1, (0, -1): Fraction(3, 2)}
        return pin2.rotation(angle(const=mapping[(m[0][0], m[1][0])]))
    # reflection negating the unit vector at angle t: matrix [[-cos2t, -sin2t], [-sin2t, cos2t]]
    mapping = {(-1, 0): 0, (1, 0): Fraction(1, 2), (0, -1): Fraction(1, 4), (0, 1): Fraction(3, 4)}
    return reflection(angle(const=mapping[(m[0][0], m[1][0])]))


# ---------------------------------------------------------------------------
# doubles


def _theta_half(torus: SurfaceModel, p: Lattice) -> Lattice:
    """Cylinder square (u periodic, v in [0, 2pi]) onto {x in [0, pi]} in T^2: (v/2, u)."""
    u, v, period = p
    return torus.reduce(Lattice(_halve(v), u, period))


def _shear_half(klein: SurfaceModel, p: Lattice) -> Lattice:
    """Moebius square onto the region of K^2 between the fixed circles of tau2: (u/2 + v/2, u)."""
    u, v, period = p
    return klein.reduce(Lattice(_halve(u) + _halve(v), u, period))


class Double(Frozen):
    """Closed double of a surface with boundary, with the boundary-fixing
    involution and the lattice kernel that embeds the half in the total."""

    __slots__ = ("tau", "embedding")

    def __init__(self, tau: Involution, embedding: Callable[[SurfaceModel, Lattice], Lattice]):
        self._set(tau, embedding)

    @property
    def total(self) -> SurfaceModel:
        return self.tau.domain

    @_exact
    def embed(self, p: Lattice) -> Lattice:
        return self.embedding(self.total, p)


# ---------------------------------------------------------------------------
# the model zoo: one record per geometric model


def _geometric_models() -> dict[str, SurfaceModel]:
    s2 = SurfaceModel("s2", TWO_DISC, GluingWord.parse("a a'"), True, 0,
                      periodic_vars=("theta",),  # the equator coordinate
                      twists=(("xi_s2", (0, 0)),))
    t2 = SurfaceModel("t2", FLAT_SQUARE, GluingWord.parse("a b a' b'"), True, 0, genus=1,
                      periodic_vars=("theta", "phi"),
                      twists=(("xi0", (0, 0)), ("xi1", (1, 0)), ("xi2", (0, 1)), ("xi3", (1, 1))))
    rp2 = SurfaceModel("rp2", TWO_DISC, GluingWord.parse("x x"), False, 0, cross_caps=1,
                       deck=Involution.equatorial("rp2-deck", s2))
    # (0,y) ~ (2pi,y) and (x,0) ~ (2pi-x, 2pi): crossing y flips x
    k2 = SurfaceModel("k2", FLAT_SQUARE, GluingWord.parse("a b a b'"), False, 0,
                      y_wrap=WRAP_FLIP_OTHER, cross_caps=2,
                      deck=Involution.affine("k2-deck", ((1, 0), (0, -1)), (1, 0), t2, True))
    # theta runs over [0, pi] only, so the cylinder twists are the theta-only ones
    cyl = SurfaceModel("cyl", FLAT_SQUARE, GluingWord.parse("u a t' a'", boundary="u t"), True, 2,
                       y_wrap=WRAP_NONE,
                       double=Double(Involution.affine("cyl-double", ((-1, 0), (0, 1)), (0, 0),
                                                       t2, False), _theta_half),
                       periodic_vars=("phi",), twists=(("xi0", (0, 0)), ("xi1", (1, 0))))
    # (0,y) ~ (2pi, 2pi-y): crossing x flips y
    moebius = SurfaceModel(
        "moebius", FLAT_SQUARE, GluingWord.parse("u a t a", boundary="u t"), False, 1,
        x_wrap=WRAP_FLIP_OTHER, y_wrap=WRAP_NONE, cross_caps=1,
        deck=Involution.affine("moebius-deck", ((1, 0), (0, -1)), (1, 2), cyl, True),
        double=Double(Involution.affine("moebius-double", ((-1, 1), (0, 1)), (0, 0), k2, False),
                      _shear_half))
    return {m.name: m for m in (s2, rp2, t2, k2, cyl, moebius)}


MODELS = _geometric_models()


def _sigma_word(g: int) -> GluingWord:
    parts = []
    for i in range(1, g + 1):
        parts += [f"a{i}", f"b{i}", f"a{i}'", f"b{i}'"]
    return GluingWord.parse(" ".join(parts))


def _sigma(g: int, name: str) -> SurfaceModel:
    if g <= 1:
        return MODELS["s2" if g == 0 else "t2"]
    return SurfaceModel(name, FAMILY_ONLY, _sigma_word(g), True, 0, genus=g)


def _n_gk_word(g: int, k: int) -> GluingWord:
    parts = []
    for i in range(1, g + 1):
        parts += [f"a{i}", f"b{i}", f"a{i}'", f"b{i}'"]
    parts += ["x", "x"] if k == 1 else ["c", "d", "c", "d'"]
    return GluingWord.parse(" ".join(parts))


_NAME_RE = re.compile(r"^(?:sigma\((\d+)\)|n\((\d+),([12])\))$")

# The largest genus a family name may have.  Cold `pincover covermaps
# 'n(150,2)'` takes about 1.8 s on a 2-core host, most of it rendering the
# O(g^2) matrices (README, "Genus limit").
GENUS_LIMIT = 150


def build(name: str) -> SurfaceModel:
    """Surface by name: s2, rp2, t2, k2, cyl, moebius, sigma(g), n(g,1), n(g,2)."""
    key = name.strip().lower()
    if key in MODELS:
        return MODELS[key]
    m = _NAME_RE.match(key)
    if m is None:
        raise ValueError(f"unknown surface {name!r}")
    sigma_g, n_g, k = m.groups()
    g = int(n_g if sigma_g is None else sigma_g)
    if g > GENUS_LIMIT:
        raise ValueError(f"{name!r}: the genus is at most {GENUS_LIMIT}, got {g}")
    if sigma_g is not None:
        return _sigma(g, key)
    k = int(k)
    if g == 0:
        return MODELS["rp2" if k == 1 else "k2"]
    return SurfaceModel(key, FAMILY_ONLY, _n_gk_word(g, k), False, 0, genus=g, cross_caps=k)


SURFACE_NAMES = [*MODELS, "sigma(g)", "n(g,1)", "n(g,2)"]


# ---------------------------------------------------------------------------
# orientation double covers and doubles


class OrientationCover(Frozen):
    """A surface's orientation double cover, with the geometric deck involution
    when the model has one."""

    __slots__ = ("base", "total", "deck")

    def __init__(self, base: SurfaceModel, total: SurfaceModel, deck: Involution | None):
        self._set(base, total, deck)

    def has_geometry(self) -> bool:
        return self.deck is not None


def orientation_double_cover(x: SurfaceModel) -> OrientationCover:
    if x.orientable:
        raise ValueError(f"{x.name} is already orientable")
    if x.deck is None:
        # family-only: the combinatorial cover exists via homology machinery
        return OrientationCover(x, _family_cover_model(x), None)
    return OrientationCover(x, x.deck.domain, x.deck)


def _family_cover_model(x: SurfaceModel) -> SurfaceModel:
    """The closed orientable surface the mechanical cover complex builds,
    named by its genus (2 - chi) / 2, which may exceed GENUS_LIMIT."""
    from .homology import orientation_double_cover_complex

    total = orientation_double_cover_complex(x.word).total
    if not total.is_orientable():
        raise AssertionError(f"the orientation double cover of {x.name} is not orientable")
    genus = (2 - total.euler_characteristic()) // 2
    return _sigma(genus, f"sigma({genus})")


def double(x: SurfaceModel) -> Double:
    if x.boundary_components < 1:
        raise ValueError(f"{x.name} is closed")
    if x.double is None:
        raise ValueError(f"no double model for {x.name}")
    return x.double


# ---------------------------------------------------------------------------
# the five-space diagram for a non-orientable surface with boundary


class CoverDiagram(Record):
    """X = M^2, X~ = Cyl, X^d = K^2, X~^d = T^2, X' = T^2 with all maps exact.

    Everything is presented through the master torus: tau3 and tau4 generate a
    Klein four-group whose quotients are the five nodes.  The projections are
    explicit piecewise charts; relation failures raise (they would indicate an
    implementation bug, not a mathematical fact).
    """

    __slots__ = ("base", "tilde", "half_double", "master", "prime",
                 "tau1", "tau2", "tau3", "tau4")

    def __init__(
        self,
        base: SurfaceModel,         # X
        tilde: SurfaceModel,        # X~ (cyl)
        half_double: SurfaceModel,  # X^d (k2)
        master: SurfaceModel,       # X~^d (t2)
        prime: SurfaceModel,        # X' (t2)
        tau1: Involution,
        tau2: Involution,
        tau3: Involution,
        tau4: Involution,
    ):
        self._set(base, tilde, half_double, master, prime, tau1, tau2, tau3, tau4)

    @property
    def denominator(self) -> int:
        """Common denominator of the four involutions' shifts, in units of pi."""
        return math.lcm(*(t.denominator for t in (self.tau1, self.tau2, self.tau3, self.tau4)))

    @_exact
    def tau34(self, p: Lattice) -> Lattice:
        return self.master.reduce(self.tau3.apply_raw(self.tau4.apply_raw(p)))

    # -- projections ---------------------------------------------------------

    @_exact
    def pi3(self, p: Lattice) -> Lattice:
        """T^2 -> Cyl (fold x into [0, pi]); cylinder coords (u, v) = (y, 2x)."""
        import numpy as np

        x, y, period = self.master.reduce(p)
        x = np.where(x > period // 2, period - x, x)
        return self.tilde.reduce(Lattice(y, 2 * x, period))

    @_exact
    def pi1(self, p: Lattice) -> Lattice:
        """Cyl -> M^2, the quotient by tau1(u, v) = (u + pi, 2pi - v)."""
        import numpy as np

        u, v, period = self.tilde.reduce(p)
        first = u < period // 2
        return self.base.reduce(Lattice(np.where(first, 2 * u, 2 * u - period),
                                        np.where(first, v, period - v), period))

    @_exact
    def pi4(self, p: Lattice) -> Lattice:
        """T^2 -> K^2, the quotient by tau4; chart (x, y) -> (x + y, 2y) on y in [0, pi)."""
        import numpy as np

        q = self.master.reduce(p)
        r = self.master.reduce(self.tau4.apply_raw(q))
        upper = q.y >= q.period // 2
        x, y = np.where(upper, r.x, q.x), np.where(upper, r.y, q.y)
        return self.half_double.reduce(Lattice(x + y, 2 * y, q.period))

    @_exact
    def pi4_section(self, p: Lattice) -> Lattice:
        """A section of pi4 landing in the y in [0, pi) fundamental domain."""
        big_x, big_y, period = self.half_double.reduce(p)
        half_y = _halve(big_y)
        return self.master.reduce(Lattice(big_x - half_y, half_y, period))

    @_exact
    def pi2(self, p: Lattice) -> Lattice:
        """K^2 -> M^2, induced by pi1 after pi3 through any pi4 preimage."""
        return self.pi1(self.pi3(self.pi4_section(p)))

    @_exact
    def pi34(self, p: Lattice) -> Lattice:
        """T^2 -> X' = T^2 / tau34; chart (x, y) -> (2x, y - x)."""
        x, y, period = self.master.reduce(p)
        return self.prime.reduce(Lattice(2 * x, y - x, period))

    @_exact
    def pi34_section(self, p: Lattice) -> Lattice:
        xp, yp, period = self.prime.reduce(p)
        half_x = _halve(xp)
        return self.master.reduce(Lattice(half_x, yp + half_x, period))

    @_exact
    def tau_prime(self, p: Lattice) -> Lattice:
        """The involution on X' induced by tau3 (equivalently tau4)."""
        return self.pi34(self.tau3.apply(self.pi34_section(p)))

    @_exact
    def pi_prime(self, p: Lattice) -> Lattice:
        """X' -> X."""
        return self.pi1(self.pi3(self.pi34_section(p)))

    # -- relation checks ------------------------------------------------------

    def check_relations(self, n: int = 64) -> dict[str, Point | None]:
        """Verify the diagram identities exactly at the n x n grid points (2i/n, 2j/n)pi.

        Each relation maps to None when it holds at every grid point, and
        otherwise to its first counterexample in (i, j) order, in units of pi.
        """
        import numpy as np

        if n < 1:
            raise ValueError(f"the grid needs n >= 1, got {n}")
        # units of pi/(2n): the grid step 2pi/n is 4 units, so halvings stay exact
        period = 4 * n
        i, j = np.divmod(np.arange(n * n, dtype=np.int64), n)
        p = Lattice(4 * i, 4 * j, period)

        def differ(a: Lattice, b: Lattice) -> np.ndarray:
            return (a.x != b.x) | (a.y != b.y)

        base = self.pi1(self.pi3(p))
        tau34 = self.tau34(p)
        # the grid read as cylinder points (u, v), embedded in the master torus
        embedded = self.tilde.double.embed(self.tilde.reduce(p))
        k2 = self.half_double.reduce(p)
        prime = self.prime.reduce(p)
        failures = {
            "pi1_pi3_eq_pi2_pi4": differ(base, self.pi2(self.pi4(p))),
            "tau3_tau4_commute": differ(
                tau34, self.master.reduce(self.tau4.apply_raw(self.tau3.apply_raw(p)))),
            "tau4_restricts_to_tau1": differ(
                self.master.reduce(self.tau4.apply_raw(embedded)),
                self.tilde.double.embed(self.tau1.apply(p))),  # tau1 already reduces in X~
            # pi4 on the embedded cylinder equals pi1 into the copy of X in X^d
            "pi4_restricts_to_pi1": differ(self.pi4(embedded),
                                           self.base.double.embed(self.pi1(p))),
            "tau34_fixed_point_free": ~differ(tau34, self.master.reduce(p)),
            "tau2_involution": differ(
                self.half_double.reduce(self.tau2.apply_raw(self.tau2.apply_raw(k2))), k2),
            "tau_prime_involution": differ(self.tau_prime(self.tau_prime(prime)), prime),
            "pi_prime_compatible": differ(self.pi_prime(self.pi34(p)), base),
        }
        results = {}
        for name, bad in failures.items():
            k = int(bad.argmax())
            results[name] = ((Fraction(int(p.x[k]), 2 * n), Fraction(int(p.y[k]), 2 * n))
                             if bad[k] else None)
        return results


def cover_diagram(x: SurfaceModel) -> CoverDiagram:
    """The diagram of a model with both a deck and a double: tau1 is its deck,
    tau2 its double's involution, tau3 that of the double of its cover."""
    if x.deck is None or x.double is None:
        raise ValueError("the cover diagram is modelled for the moebius strip")
    tilde = x.deck.domain
    tilde_double = double(tilde)
    master = tilde_double.total
    tau4 = Involution.affine("tau4", ((-1, 0), (0, 1)), (1, 1), master, True)
    return CoverDiagram(x, tilde, x.double.total, master, build("t2"),
                        x.deck, x.double.tau, tilde_double.tau, tau4)
