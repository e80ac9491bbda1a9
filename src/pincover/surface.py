"""Surface models: fundamental polygons, involutions, double covers, doubles.

Flat models live on the square [0, 2pi]^2.  Every map takes and returns a
`Lattice`: int64 coordinate arrays with an explicit period (the number of
lattice units in 2pi), so the identifications are exact modular arithmetic
over a whole grid at once.  Every involution is affine, with its shift in
units of pi.  The sphere is a two-disc clutching model whose geometry is only
ever queried on the equator chart, where its deck is theta -> theta + pi;
it has no square coordinates to reduce.  Families beyond the base cases
(sigma_g, N_{g,1}, N_{g,2} with g >= 1) carry combinatorial gluing words only.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter

from . import pin2
from .homology import GluingWord, Occurrence, PolygonComplex
from .pin2 import O2PathElement, angle, frac, reflection
from .records import Frozen, Record

# annotations are strings (PEP 563); this keeps typing itself out of the import
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

Point = tuple[Fraction, Fraction]  # units of pi

FLAT_SQUARE = "flat-square"
TWO_DISC = "two-disc"
FAMILY_ONLY = "family-only"


class Lattice(Frozen):
    """Points as int64 coordinate arrays; `period` lattice units make 2pi."""

    __slots__ = ("x", "y", "period")

    def __iter__(self):  # x, y, period = lattice
        return iter((self.x, self.y, self.period))


def _halve(a: np.ndarray) -> np.ndarray:
    """Exact half of each coordinate; an odd one has no half on the lattice."""
    if (a % 2).any():
        raise ValueError("halving an odd lattice coordinate")
    return a // 2


def _units(c: Fraction, period: int) -> int:
    """A constant in units of pi as a whole number of lattice units (pi = period / 2)."""
    v = c * period / 2
    if v.denominator != 1:
        raise ValueError(f"{c}pi is not on the lattice of period {period}")
    return v.numerator


class SurfaceModel(Frozen):
    """A surface's gluing word and coordinates; a geometric model's record also
    holds its deck involution, double, lift domain and structure twists."""

    __slots__ = ("name", "model_kind", "word", "orientable", "boundary_components", "genus",
                 "cross_caps",
                 # the geometry of a named model; family-only models have none
                 "deck",           # on the orientation double cover
                 "double",         # the closed double of a model with boundary
                 "periodic_vars",  # period-2pi lift coordinates
                 # label -> (a, b) of R_{a theta + b phi}
                 "twists")
    _defaults = {"genus": 0, "cross_caps": 0, "deck": None, "double": None,
                 "periodic_vars": None, "twists": ()}

    @property
    def complex(self) -> PolygonComplex:
        return self.word.complex

    def euler_characteristic(self) -> int:
        return self.complex.euler_characteristic()

    def reduce(self, p: Lattice) -> Lattice:
        """Canonical representatives of points modulo the identifications.

        The word's four sides run bottom, right, top, left; sides i and i + 2
        are one seam, crossed by y for i = 0 and by x for i = 1.  A boundary
        seam clamps its coordinate to [0, 2pi]; opposite exponents wrap it
        straight, equal ones with the other coordinate flipped, and a wrapped
        coordinate's seam is taken at 0."""
        import numpy as np

        if self.model_kind != FLAT_SQUARE:
            raise ValueError(f"{self.name} has no square coordinates")
        x, y, period = p
        xy = [x, y]
        wrapped = []
        word = self.word.word
        for side, ((letter, first), (_, second)) in enumerate(zip(word, word[2:])):
            c = 1 - side  # the coordinate crossing the seam; xy[side] is the other one
            if letter in self.word.boundary_letters:
                if not ((0 <= xy[c]) & (xy[c] <= period)).all():
                    raise ValueError(f"{self.name}: {'xy'[c]} out of range")
                continue
            if first == second:
                xy[side] = np.where(xy[c] // period % 2 == 1, period - xy[side], xy[side])
            wrapped.append(c)
        for c in wrapped:
            xy[c] = xy[c] % period
        return Lattice(*xy, period)


class Involution(Frozen):
    """Affine map (x, y) -> M (x, y) + c on the domain's coordinates, M unimodular."""

    __slots__ = ("name", "matrix", "shift", "domain")  # shift in units of pi

    def __init__(self, name, matrix, shift, domain):
        m = tuple(tuple(int(e) for e in row) for row in matrix)
        if m != tuple(map(tuple, matrix)):
            raise ValueError(f"{name}: the matrix entries must be integers, got {matrix}")
        if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) != 1:
            raise ValueError("linear part must be unimodular")
        self._set(name, m, (frac(shift[0]), frac(shift[1])), domain)

    def apply_raw(self, p: Lattice) -> Lattice:
        x, y, period = p
        (a, b), (c, d) = self.matrix
        sx, sy = (_units(s, period) for s in self.shift)
        return Lattice(a * x + b * y + sx, c * x + d * y + sy, period)

    def apply(self, p: Lattice) -> Lattice:
        return self.domain.reduce(self.apply_raw(p))

    def orthogonal_part(self) -> tuple[tuple[int, int], tuple[int, int]]:
        m = self.matrix
        if (m[0][0] * m[0][1] + m[1][0] * m[1][1] != 0
                or m[0][0] ** 2 + m[1][0] ** 2 != 1
                or m[0][1] ** 2 + m[1][1] ** 2 != 1):
            raise ValueError(f"{self.name}: linear part is not orthogonal")
        return m


def jacobian(tau: Involution) -> O2PathElement:
    """Differential of tau as an O(2) path element.

    Flat involutions have a constant differential.  On the sphere the deck is
    theta -> theta + pi on the equator chart, and the antipodal map's
    differential at angle theta is the reflection fixing the line at angle theta.
    """
    if tau.domain.model_kind == TWO_DISC:
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

    @property
    def total(self) -> SurfaceModel:
        return self.tau.domain

    def embed(self, p: Lattice) -> Lattice:
        return self.embedding(self.total, p)


def double(x: SurfaceModel) -> Double:
    if x.boundary_components < 1:
        raise ValueError(f"{x.name} is closed")
    if x.double is None:
        raise ValueError(f"no double model for {x.name}")
    return x.double


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
                       deck=Involution("rp2-deck", ((1, 0), (0, 1)), (1, 0), s2))
    # (0,y) ~ (2pi,y) and (x,0) ~ (2pi-x, 2pi): crossing y flips x
    k2 = SurfaceModel("k2", FLAT_SQUARE, GluingWord.parse("a b a b'"), False, 0, cross_caps=2,
                      deck=Involution("k2-deck", ((1, 0), (0, -1)), (1, 0), t2))
    # theta runs over [0, pi] only, so the cylinder twists are the theta-only ones
    cyl = SurfaceModel("cyl", FLAT_SQUARE, GluingWord.parse("u a t' a'", boundary="u t"), True, 2,
                       double=Double(Involution("cyl-double", ((-1, 0), (0, 1)), (0, 0), t2),
                                     _theta_half),
                       periodic_vars=("phi",), twists=(("xi0", (0, 0)), ("xi1", (1, 0))))
    # (0,y) ~ (2pi, 2pi-y): crossing x flips y
    moebius = SurfaceModel(
        "moebius", FLAT_SQUARE, GluingWord.parse("u a t a", boundary="u t"), False, 1, cross_caps=1,
        deck=Involution("moebius-deck", ((1, 0), (0, -1)), (1, 2), cyl),
        double=Double(Involution("moebius-double", ((-1, 1), (0, 1)), (0, 0), k2), _shear_half))
    return {m.name: m for m in (s2, rp2, t2, k2, cyl, moebius)}


MODELS = _geometric_models()


def _family_word(g: int, tail: tuple[Occurrence, ...] = ()) -> GluingWord:
    """g handles a_i b_i a_i' b_i', then the tail's occurrences."""
    occs: list[Occurrence] = []
    for i in range(1, g + 1):
        a, b = f"a{i}", f"b{i}"
        occs += (a, 1), (b, 1), (a, -1), (b, -1)
    occs += tail
    return GluingWord(tuple(occs))


def _sigma_name(g: int) -> str:
    """The canonical name of the closed orientable model of genus g: the named
    models s2 and t2 at genus 0 and 1, the family's sigma(g) above."""
    return "s2" if g == 0 else "t2" if g == 1 else f"sigma({g})"


# ASCII digits, no leading zero: \d and int() also take other scripts' digits
# and int() leading zeros, so 'n(٣,1)' or 'n(03,1)' would be answered as n(3,1)
_NAME_RE = re.compile(r"^(?:sigma\((0|[1-9][0-9]*)\)|n\((0|[1-9][0-9]*),([12])\))$")

# The largest genus a family name may have.  Cold `pincover covermaps` is
# dearest at the limit, most of it rendering the O(g^2) matrices; the README's
# "Genus limit" section has the timings.
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
        if g <= 1:
            return MODELS[_sigma_name(g)]
        return SurfaceModel(key, FAMILY_ONLY, _family_word(g), True, 0, genus=g)
    k = int(k)
    if g == 0:
        return MODELS["rp2" if k == 1 else "k2"]
    tail = (("x", 1), ("x", 1)) if k == 1 else (("c", 1), ("d", 1), ("c", 1), ("d", -1))
    return SurfaceModel(key, FAMILY_ONLY, _family_word(g, tail), False, 0, genus=g, cross_caps=k)


SURFACE_NAMES = [*MODELS, "sigma(g)", "n(g,1)", "n(g,2)"]


def family_cover_name(x: SurfaceModel) -> str:
    """The name of the orientation double cover of a closed non-orientable
    model, with no cover model built: N_h is covered by Sigma_{h-1}, of Euler
    characteristic 2 chi, so of genus 1 - chi, which may exceed GENUS_LIMIT."""
    return _sigma_name(1 - x.euler_characteristic())


# ---------------------------------------------------------------------------
# the five-space diagram for a non-orientable surface with boundary


class CoverDiagram(Record):
    """X = M^2, X~ = Cyl, X^d = K^2, X~^d = T^2, X' = T^2 with all maps exact.

    Everything is presented through the master torus: tau3 and tau4 generate a
    Klein four-group whose quotients are the five nodes.  The projections are
    explicit piecewise charts; relation failures raise (they would indicate an
    implementation bug, not a mathematical fact).
    """

    __slots__ = ("base", "tau4")  # X, and tau4 on X~^d

    # read off X: tau1 is its deck, tau2 its double's involution and tau3 that
    # of the double of X~; the nodes X~, X^d and X~^d are their domains
    tau1 = property(attrgetter("base.deck"))
    tau2 = property(attrgetter("base.double.tau"))
    tau3 = property(attrgetter("base.deck.domain.double.tau"))
    tilde = property(attrgetter("base.deck.domain"))
    half_double = property(attrgetter("base.double.tau.domain"))
    master = property(attrgetter("base.deck.domain.double.tau.domain"))
    prime = property(lambda self: MODELS["t2"])  # X'

    def tau34(self, p: Lattice) -> Lattice:
        return self.master.reduce(self.tau3.apply_raw(self.tau4.apply_raw(p)))

    # -- projections ---------------------------------------------------------

    def pi3(self, p: Lattice) -> Lattice:
        """T^2 -> Cyl (fold x into [0, pi]); cylinder coords (u, v) = (y, 2x)."""
        import numpy as np

        x, y, period = self.master.reduce(p)
        x = np.where(x > period // 2, period - x, x)
        return self.tilde.reduce(Lattice(y, 2 * x, period))

    def pi1(self, p: Lattice) -> Lattice:
        """Cyl -> M^2, the quotient by tau1(u, v) = (u + pi, 2pi - v)."""
        import numpy as np

        u, v, period = self.tilde.reduce(p)
        first = u < period // 2
        return self.base.reduce(Lattice(np.where(first, 2 * u, 2 * u - period),
                                        np.where(first, v, period - v), period))

    def pi4(self, p: Lattice) -> Lattice:
        """T^2 -> K^2, the quotient by tau4; chart (x, y) -> (x + y, 2y) on y in [0, pi)."""
        import numpy as np

        q = self.master.reduce(p)
        r = self.master.reduce(self.tau4.apply_raw(q))
        upper = q.y >= q.period // 2
        x, y = np.where(upper, r.x, q.x), np.where(upper, r.y, q.y)
        return self.half_double.reduce(Lattice(x + y, 2 * y, q.period))

    def pi4_section(self, p: Lattice) -> Lattice:
        """A section of pi4 landing in the y in [0, pi) fundamental domain."""
        big_x, big_y, period = self.half_double.reduce(p)
        half_y = _halve(big_y)
        return self.master.reduce(Lattice(big_x - half_y, half_y, period))

    def pi2(self, p: Lattice) -> Lattice:
        """K^2 -> M^2, induced by pi1 after pi3 through any pi4 preimage."""
        return self.pi1(self.pi3(self.pi4_section(p)))

    def pi34(self, p: Lattice) -> Lattice:
        """T^2 -> X' = T^2 / tau34; chart (x, y) -> (2x, y - x)."""
        x, y, period = self.master.reduce(p)
        return self.prime.reduce(Lattice(2 * x, y - x, period))

    def pi34_section(self, p: Lattice) -> Lattice:
        xp, yp, period = self.prime.reduce(p)
        half_x = _halve(xp)
        return self.master.reduce(Lattice(half_x, yp + half_x, period))

    def tau_prime(self, p: Lattice) -> Lattice:
        """The involution on X' induced by tau3 (equivalently tau4)."""
        return self.pi34(self.tau3.apply(self.pi34_section(p)))

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
    """The diagram of a model with both a deck and a double, with tau4 on the
    double of its cover."""
    if x.deck is None or x.double is None:
        raise ValueError("the cover diagram is modelled for the moebius strip")
    master = double(x.deck.domain).total
    return CoverDiagram(x, Involution("tau4", ((-1, 0), (0, 1)), (1, 1), master))
