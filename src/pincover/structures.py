"""Pin structure descriptors, involution lifting, descent, and doubling.

A descriptor on a trivialized flat model is the O(2)-twist of its covering
map (rotations R_{a theta + b phi} for the four torus structures, their
restrictions for the cylinder, reflection-valued twists for pullbacks).  A
lift of an involution tau is an exact Pin(2)-valued solution L of

    project(L at x) = twist(tau x)^{-1} . jacobian(tau) . twist(x)

that is periodic under every deck shift of the model; its square
L(tau x) * L(x) is computed symbolically and is always exactly +1 or -1.
"""

from __future__ import annotations

from . import pin2
from .characteristic import obstructions
from .pin2 import (
    KINDS,
    O2PathElement,
    Pin2Element,
    ROTATION,
    angle,
    at,
    canonical_lift,
    compose,
    is_periodic,
    mul,
    o2_inverse,
    rotation,
    scalar_value,
)
from .records import Frozen
from .surface import (
    TWO_DISC,
    Involution,
    SurfaceModel,
    build,
    double,
    family_cover_name,
    jacobian,
)

IDENTITY = "identity"
GAMMA = "gamma"


class PinStructureDescriptor(Frozen):
    """A pin structure on a trivialized model, identified by its O(2) twist."""

    __slots__ = ("surface", "kind", "twist", "label")

    def __init__(self, surface: SurfaceModel, kind: str, twist: O2PathElement, label: str):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if surface.periodic_vars is None:
            raise ValueError(f"no lift domain for {surface.name}")
        self._set(surface, kind, twist, label)

    @property
    def twist_coefficients(self) -> tuple[int, int]:
        """(a, b) for rotation twists R_{a theta + b phi}."""
        if self.twist.parity != ROTATION:
            raise ValueError("twist is not a rotation")
        a, b = self.twist.angle.theta, self.twist.angle.phi
        return int(a), int(b)


def enumerate_structures(model: SurfaceModel, kind: str) -> list[PinStructureDescriptor]:
    """All pin structures of the given kind on a geometric model: the twists
    R_{a theta + b phi} its record lists.

    Torus: a, b in {0, 1}.  Cylinder: the theta-only twists restricted to
    theta in [0, pi].  Sphere: the unique structure (trivial halves glued
    along a lift of the equatorial clutching).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not model.twists:
        # descend and obstructions refuse a bounded base
        hint = "moebius_descent" if model.boundary_components else "descend or obstructions"
        raise ValueError(f"no explicit structures on {model.name}; use {hint}")
    if model.model_kind == TWO_DISC:
        # the clutching R_{-2 theta} lifts to a single-valued loop, so the two
        # trivial halves glue; H^1(S^2, Z2) = 0 leaves nothing else
        clutch = canonical_lift(rotation(angle(theta=-2)), kind)
        if not is_periodic(clutch, 2):
            raise AssertionError("sphere clutching lift must be single-valued")
    return [PinStructureDescriptor(model, kind, rotation(angle(theta=a, phi=b)), label)
            for label, (a, b) in model.twists]


def tau_coordinate_forms(tau: Involution):
    """(theta, phi) composed with tau, as affine angle forms."""
    m, c = tau.matrix, tau.shift
    return (
        angle(theta=m[0][0], phi=m[0][1], const=c[0]),
        angle(theta=m[1][0], phi=m[1][1], const=c[1]),
    )


def pullback(xi: PinStructureDescriptor, tau: Involution) -> PinStructureDescriptor:
    """tau^* xi: same total space, twist J^{-1} . twist(tau x)."""
    moved = at(xi.twist, *tau_coordinate_forms(tau))
    new_twist = compose(o2_inverse(jacobian(tau)), moved)
    return PinStructureDescriptor(xi.surface, xi.kind, new_twist, f"{tau.name}*{xi.label}")


class LiftResult(Frozen):
    """A solved lifting diagram of an involution for a structure: the lift and
    its square (+1 | -1) when it exists."""

    __slots__ = ("structure", "involution", "exists", "lift", "square", "detail")
    _defaults = {"detail": ""}

    @property
    def descends(self) -> bool:
        """The structure descends through the involution: the lift exists and
        squares to +1."""
        return self.exists and self.square == 1

    def as_dict(self):
        return {
            "exists": self.exists,
            "lift": str(self.lift) if self.lift is not None else None,
            "square": self.square,
            "detail": self.detail,
        }


def lift_involution(xi: PinStructureDescriptor, tau: Involution) -> LiftResult:
    """Solve the lifting diagram for d-tilde-tau and compute its exact square."""
    if tau.domain.name != xi.surface.name:
        raise ValueError(f"{tau.name} acts on {tau.domain.name}, not on {xi.surface.name}")
    th, ph = tau_coordinate_forms(tau)
    rhs = compose(o2_inverse(at(xi.twist, th, ph)), compose(jacobian(tau), xi.twist))
    lift = canonical_lift(rhs, xi.kind)
    if not all(is_periodic(lift, 2, var) for var in xi.surface.periodic_vars):
        return LiftResult(xi, tau, False, None, None,
                          "no single-valued lift: the candidate changes sign under a deck shift")
    square = scalar_value(mul(at(lift, th, ph), lift))
    other = -lift
    if scalar_value(mul(at(other, th, ph), other)) != square:
        raise AssertionError("the two lifts must square identically")
    return LiftResult(xi, tau, True, lift, square)


def _lift_table(tau: Involution, kind: str) -> dict[str, LiftResult]:
    """The lift of tau for each structure of the kind on its domain, by label."""
    return {xi.label: lift_involution(xi, tau) for xi in enumerate_structures(tau.domain, kind)}


# ---------------------------------------------------------------------------
# descent through the orientation double cover


class DescentReport(Frozen):
    __slots__ = ("base", "cover", "kind",
                 "mode",     # "geometric" | "count-only"
                 "squares",  # upstairs label -> square
                 "qualifying", "count", "torsor_count", "exists_downstairs",
                 "consistent")

    def as_dict(self):
        return {
            "base": self.base,
            "cover": self.cover,
            "kind": self.kind,
            "mode": self.mode,
            "squares": dict(sorted(self.squares.items())),
            "qualifying": list(self.qualifying),
            # each qualifying structure descends twice, by the lift and by its negative
            "structures": [f"{label}/{sheet}" for label in self.qualifying
                           for sheet in ("P/dtau", "P/(dtau.gamma)")],
            "count": self.count,
            "torsor_count": self.torsor_count,
            "exists": self.exists_downstairs,
            "consistent": self.consistent,
        }


def descend(base: SurfaceModel, kind: str) -> DescentReport:
    """Structures on a closed non-orientable base from invariant ones upstairs."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if base.orientable:
        raise ValueError(f"{base.name} is orientable; nothing to descend to")
    if base.boundary_components:
        raise ValueError("descent applies to closed bases; see moebius_descent")
    report = obstructions(base)
    exists, torsor = report.exists(kind), report.count(kind)
    if base.deck is None:
        # a family base has no geometric deck, and the report reads only the
        # cover's name, so no cover model is built
        return DescentReport(base.name, family_cover_name(base), kind, "count-only",
                             {}, (), torsor, torsor, exists, True)
    lifts = _lift_table(base.deck, kind)
    squares = {label: res.square for label, res in lifts.items() if res.exists}
    qualifying = tuple(label for label, res in lifts.items() if res.descends)
    count = 2 * len(qualifying)
    return DescentReport(base.name, base.deck.domain.name, kind, "geometric",
                         squares, qualifying, count, torsor, exists, count == torsor)


# ---------------------------------------------------------------------------
# boundary calculus on the cylinder inside the torus (theta in [0, pi])


def _torus_descriptor(a: int, b: int, kind: str) -> PinStructureDescriptor:
    twist = rotation(angle(theta=a, phi=b))
    return next(xi for xi in enumerate_structures(build("t2"), kind) if xi.twist == twist)


def _at_theta(x, theta_const):
    """x on the circle theta = theta_const * pi."""
    return at(x, angle(const=theta_const), angle(phi=1))


def embedded_boundary_frame(at_pi: bool) -> O2PathElement:
    """The adapted frame at a cylinder boundary circle: id at theta=0, -id at theta=pi."""
    return rotation(angle(const=1 if at_pi else 0))


def boundary_fiber(xi: PinStructureDescriptor, at_pi: bool) -> tuple[Pin2Element, Pin2Element]:
    """The two points of the pin fiber over the embedded boundary frame."""
    twist_at = _at_theta(xi.twist, 1 if at_pi else 0)
    target = compose(o2_inverse(twist_at), embedded_boundary_frame(at_pi))
    first = canonical_lift(target, xi.kind)
    return first, -first


class BoundaryLiftTable(Frozen):
    """Boundary fibers per structure, each row (at theta = 0, at theta = pi) of
    lift pairs, with the cylinder equivalence rho and its tau3 transport."""

    __slots__ = ("kind", "rows", "rho", "tau3_rho")

    def relative_sign(self, theta_const) -> int | None:
        """+1 or -1 when tau3_rho = +-rho on the circle theta = theta_const * pi, else None."""
        rho, tau3_rho = _at_theta(self.rho, theta_const), _at_theta(self.tau3_rho, theta_const)
        return 1 if rho == tau3_rho else -1 if rho == -tau3_rho else None

    @property
    def agree_at_zero(self) -> bool:
        return self.relative_sign(0) == 1

    @property
    def negate_at_pi(self) -> bool:
        return self.relative_sign(1) == -1


def boundary_lift_table(kind: str) -> BoundaryLiftTable:
    """The four boundary-lift rows at theta = 0, pi plus the noncommutation witness.

    rho is the cylinder equivalence xi0 -> xi1; tau3_rho the induced one between
    the tau3 pullbacks.  They agree at theta = 0 and differ by a sign at
    theta = pi, so no global sign choice makes the boundary square commute.
    """
    tau3 = double(build("cyl")).tau
    xi0 = _torus_descriptor(0, 0, kind)
    xi1 = _torus_descriptor(1, 0, kind)
    star0 = pullback(xi0, tau3)
    star1 = pullback(xi1, tau3)
    rows = {
        "xi0": (boundary_fiber(xi0, False), boundary_fiber(xi0, True)),
        "xi1": (boundary_fiber(xi1, False), boundary_fiber(xi1, True)),
        "tau3*xi0": (boundary_fiber(star0, False), boundary_fiber(star0, True)),
        "tau3*xi1": (boundary_fiber(star1, False), boundary_fiber(star1, True)),
    }
    rho = canonical_lift(compose(o2_inverse(xi1.twist), xi0.twist), kind)
    tau3_rho = canonical_lift(compose(o2_inverse(star1.twist), star0.twist), kind)
    return BoundaryLiftTable(kind, rows, rho, tau3_rho)


def _deck_glued_holonomy(a: int, kind: str) -> int:
    """theta-loop holonomy of the double of the cylinder twist R_{a theta},
    glued at both seams with the canonical boundary lift of tau3.

    Transport runs over the coordinate frame: across the marked half the fiber
    path lifts twist^{-1}; across the mirrored half it lifts twist^{-1} . j1 in
    the mirrored chart; the seams multiply by the tau3 lift.
    """
    tau3 = double(build("cyl")).tau
    xi = _torus_descriptor(a, 0, kind)
    res = lift_involution(xi, tau3)
    if not res.exists:
        raise AssertionError("tau3 lift must exist for theta twists")
    seam = res.lift  # constant odd element
    # copy 1: z1(theta) = lift of R_{-a theta}, continuous from 1
    z1 = canonical_lift(rotation(angle(theta=-a)), kind)
    z2_at_pi = mul(_at_theta(seam, 1), _at_theta(z1, 1))
    # copy 2 family: lift of R_{-a theta'} j1, canonical branch
    family = canonical_lift(compose(rotation(angle(theta=-a)), pin2.J1), kind)
    fam_at_pi = _at_theta(family, 1)
    if z2_at_pi == fam_at_pi:
        eps = 1
    elif z2_at_pi == -fam_at_pi:
        eps = -1
    else:
        raise AssertionError("seam landed outside the expected fiber")
    fam_at_zero = _at_theta(family, 0)
    z2_at_zero = fam_at_zero if eps == 1 else -fam_at_zero
    end = mul(pin2.inverse(_at_theta(seam, 0)), z2_at_zero)
    return scalar_value(end)


def double_structure(xi: PinStructureDescriptor,
                     tags: tuple[str, str] | None = None) -> PinStructureDescriptor:
    """Glue two copies of a cylinder structure along the boundary; the torus
    structure the glued double induces.

    tags give the gluing on the two boundary circles relative to the identity
    of the shared total space; an overall flip of both is an equivalence, so
    only the product matters.
    """
    if xi.surface.double is None or not xi.surface.orientable:
        raise ValueError("double_structure expects a cylinder structure")
    if tags is None:
        tags = (IDENTITY, IDENTITY)
    if len(tags) != 2 or any(t not in (IDENTITY, GAMMA) for t in tags):
        raise ValueError("tags must be two of identity|gamma")
    a, _ = xi.twist_coefficients
    hol = _deck_glued_holonomy(a, xi.kind)  # of the d-tilde-tau3 glued double
    # the identity gluing differs from the canonical one by a sign at the seam
    # theta = pi exactly when tau3 rho and rho differ there; at theta = 0 they agree
    witness = boundary_lift_table(xi.kind)
    signs = (witness.relative_sign(0), witness.relative_sign(1))
    if signs not in ((1, 1), (1, -1)):
        raise AssertionError(f"noncommutation witness failed: relative signs {signs}")
    flip = 1 if signs[1] == -1 else 0
    base_class = 0 if hol == 1 else 1     # class of the canonical-glued double
    tag_flip = 1 if tags.count(GAMMA) % 2 else 0
    result_index = (base_class + flip + tag_flip) % 2
    return _torus_descriptor(result_index, 0, xi.kind)


# ---------------------------------------------------------------------------
# the full moebius report


class MoebiusReport(Frozen):
    __slots__ = ("tau4_squares",  # kind -> label -> square
                 "tau3_lift_exists",
                 "descending")    # kind -> labels through the diagram

    def as_dict(self):
        return {
            "tau4_squares": self.tau4_squares,
            "tau3_lift_exists": self.tau3_lift_exists,
            "descending": {k: list(v) for k, v in self.descending.items()},
        }


def moebius_descent(x: SurfaceModel) -> MoebiusReport:
    """tau4 squares and tau3 compatibility for the four torus structures of
    the cover diagram of x, both kinds."""
    from .surface import cover_diagram

    diagram = cover_diagram(x)
    squares = {}
    exists = {}
    descending = {}
    for kind in KINDS:
        tau4, tau3 = _lift_table(diagram.tau4, kind), _lift_table(diagram.tau3, kind)
        squares[kind] = {label: res.square for label, res in tau4.items()}
        exists[kind] = {label: res.exists for label, res in tau3.items()}
        descending[kind] = tuple(label for label, res in tau4.items()
                                 if res.descends and tau3[label].exists)
    return MoebiusReport(squares, exists, descending)
