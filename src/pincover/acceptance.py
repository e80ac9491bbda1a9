"""The acceptance suite: every headline result as a named, seedable check.

Each criterion returns (passed, detail).  The CLI `verify` command and the
test suite both run this registry, so there is exactly one definition of what
"reproduced" means.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from . import pin2
from .characteristic import w1
from .clifford import (
    TOL,
    Multivector,
    Signature,
    _sandwich,
    bilinear_form,
    fiber_group_tag,
    geometric_product,
    lift_orthogonal,
    orthogonal_matrix,
)
from .homology import (
    h1_z2_basis,
    homology_groups,
    induced_maps,
    orientation_double_cover_complex,
    z2_maps,
)
from .pin2 import KINDS, PIN_MINUS, PIN_PLUS, angle, evaluate, mul
from .pinors import PinorField, couple_split, invariance_residual, project_invariant
from .records import Frozen
from .structures import (
    GAMMA,
    IDENTITY,
    boundary_lift_table,
    descend,
    double_structure,
    enumerate_structures,
    lift_involution,
    moebius_descent,
)
from .surface import build, cover_diagram

# annotations are strings (PEP 563); this keeps typing itself out of the import
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable


class CriterionResult(Frozen):
    """One criterion's outcome; seconds is its wall time, from time.perf_counter."""

    __slots__ = ("name", "passed", "detail", "seconds")


def _random_orthogonal(rng, n):
    import numpy as np

    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _random_multivector(rng, sig):
    masks = rng.integers(0, 1 << sig.n, size=4)
    return Multivector(sig, dict(zip(masks.tolist(), rng.normal(size=4).tolist())))


# --- criterion 1 -----------------------------------------------------------


def check_fiber_groups(seed: int) -> tuple[bool, str]:
    for n in range(1, 7):
        if fiber_group_tag(Signature(0, n)) != "Z4":
            return False, f"pin- fiber over {{1, j1}} at n={n} is not Z4"
        if fiber_group_tag(Signature(n, 0)) != "Z2xZ2":
            return False, f"pin+ fiber over {{1, j1}} at n={n} is not Z2xZ2"
    return True, "Z4 for pin-, Z2xZ2 for pin+, n = 1..6"


# --- criterion 2 -----------------------------------------------------------


def check_sphere_rp2(seed: int) -> tuple[bool, str]:
    minus = descend(build("rp2"), PIN_MINUS)
    plus = descend(build("rp2"), PIN_PLUS)
    squares = {PIN_PLUS: plus.squares, PIN_MINUS: minus.squares}
    if squares != {PIN_PLUS: {"xi_s2": -1}, PIN_MINUS: {"xi_s2": 1}}:
        return False, f"sphere squares {squares}"
    if minus.count != 2 or not minus.consistent:
        return False, f"rp2 pin- count {minus.count}"
    if plus.count != 0 or plus.exists_downstairs:
        return False, f"rp2 pin+ count {plus.count}"
    return True, "sphere squares (-1, +1); rp2 counts (pin+, pin-) = (0, 2)"


# --- criterion 3 -----------------------------------------------------------

_KLEIN_TABLE = {
    PIN_PLUS: {"xi0": 1, "xi1": -1, "xi2": 1, "xi3": -1},
    PIN_MINUS: {"xi0": -1, "xi1": 1, "xi2": -1, "xi3": 1},
}


def check_klein_table(seed: int) -> tuple[bool, str]:
    for kind in KINDS:
        rep = descend(build("k2"), kind)
        if rep.squares != _KLEIN_TABLE[kind]:
            return False, f"{kind}: squares {rep.squares}"
        if rep.count != 4 or rep.torsor_count != 4 or not rep.consistent:
            return False, f"k2 {kind} count {rep.count} vs torsor {rep.torsor_count}"
    return True, "squares (+1,-1,+1,-1 | -1,+1,-1,+1); both descent counts 4 = 2^2"


# --- criterion 4 -----------------------------------------------------------


def check_moebius_table(seed: int) -> tuple[bool, str]:
    rep = moebius_descent(build("moebius"))
    for kind in KINDS:
        e1sq = 1 if kind == PIN_PLUS else -1
        want = {"xi0": e1sq, "xi1": e1sq, "xi2": -e1sq, "xi3": -e1sq}
        if rep.tau4_squares[kind] != want:
            return False, f"{kind}: tau4 squares {rep.tau4_squares[kind]} != {want}"
    if rep.descending[PIN_PLUS] != ("xi0", "xi1") or rep.descending[PIN_MINUS] != ("xi2", "xi3"):
        return False, f"descending sets {rep.descending}"
    return True, "tau4 squares e1^2, e1^2, -e1^2 per kind; qualifying sets as expected"


# --- criterion 5 -----------------------------------------------------------


def check_boundary_lift_table(seed: int) -> tuple[bool, str]:
    for kind in KINDS:
        table = boundary_lift_table(kind)
        one = pin2.one(kind)
        e1 = pin2.e1(kind)
        e2 = pin2.e2(kind)
        e12 = pin2.even(kind, angle(const=Fraction(1, 2)))
        want = {
            "xi0": (one, e12),
            "xi1": (one, one),
            "tau3*xi0": (e1, e2),
            "tau3*xi1": (e1, e1),
        }
        for name, (at0, at_pi) in want.items():
            row = table.rows[name]
            if {row[0][0], row[0][1]} != {at0, -at0}:
                return False, f"{kind} {name} at theta=0: {row[0][0]}"
            if {row[1][0], row[1][1]} != {at_pi, -at_pi}:
                return False, f"{kind} {name} at theta=pi: {row[1][0]}"
        if not (table.agree_at_zero and table.negate_at_pi):
            return False, f"{kind}: noncommutation witness failed"
    return True, "rows (±1, ±e1e2), (±1, ±1), (±e1, ±e1²e2), (±e1, ±e1); witness certified"


# --- criterion 6 -----------------------------------------------------------


def check_cylinder_classes(seed: int) -> tuple[bool, str]:
    for kind in KINDS:
        cyl = {xi.label: xi for xi in enumerate_structures(build("cyl"), kind)}
        if double_structure(cyl["xi1"], (IDENTITY, IDENTITY)).label != "xi0":
            return False, f"{kind}: xi1 u_id xi1 does not induce xi0"
        if double_structure(cyl["xi0"], (IDENTITY, IDENTITY)).label != "xi1":
            return False, f"{kind}: xi0 u_id xi0 does not induce xi1"
        if double_structure(cyl["xi1"], (GAMMA, GAMMA)).label != "xi0":
            return False, f"{kind}: double tag flip is not an equivalence"
    return True, "xi1 u_id xi1 -> class xi0; xi0 u_id xi0 -> class xi1; overall flip trivial"


# --- criterion 7 -----------------------------------------------------------

def _family_names():
    names = ["s2", "rp2", "t2", "k2"]
    names += [f"sigma({g})" for g in range(2, 5)]
    names += [f"n({g},1)" for g in range(1, 5)]
    names += [f"n({g},2)" for g in range(1, 5)]
    return names


def check_homology(seed: int) -> tuple[bool, str]:
    for name in _family_names():
        model = build(name)
        h1 = homology_groups(model.complex).h1
        if model.orientable:
            want = (2 * model.genus, ())
        else:
            want = (2 * model.genus + (model.cross_caps - 1), (2,))
        if h1 != want:
            return False, f"H1({name}) = {h1}, expected {want}"
    # the T^2 -> K^2 push-forward in canonical bases
    maps = induced_maps(orientation_double_cover_complex(build("k2").word))
    if maps.base_orders != [0, 2]:
        return False, f"unexpected H1(K2) coordinates {maps.base_orders}"
    cols = sorted(
        ((abs(maps.push_z[0][j]), maps.push_z[1][j] % 2) for j in range(2)),
        reverse=True,
    )
    if cols != [(2, 0), (0, 1)]:
        return False, f"pi_* columns {cols} != [(2,0), (0,1)]"
    # Ker pi^* = {0, w1} for every non-orientable family
    for name in _family_names():
        model = build(name)
        if model.orientable:
            continue
        cover = orientation_double_cover_complex(model.word)
        maps = z2_maps(cover)
        basis, _ = h1_z2_basis(cover.base)
        klass = w1(model)
        bits = sum(klass(g) << j for j, g in enumerate(cover.base.edges))
        w1_coords = sum(((row & bits).bit_count() % 2) << i for i, row in enumerate(basis))
        if maps.kernel_pull.rows != (w1_coords,):
            return False, f"Ker pi^* != {{0, w1}} for {name}"
    return True, "H1 matches for all families; pi_* = [[2,0],[0,1]]; Ker pi^* = {0, w1}"


# --- criterion 8 -----------------------------------------------------------


def check_splitting(seed: int) -> tuple[bool, str]:
    for name in _family_names():
        model = build(name)
        if model.orientable:
            continue
        maps = z2_maps(orientation_double_cover_complex(model.word))
        # N_h is covered by the genus h - 1 surface; with dim Ker pi^* = 1
        # (criterion 7) that fixes dim coker pi^* = k and the index 2 of Im pi_*
        h = 2 * model.genus + model.cross_caps
        got = (maps.splitting_k, maps.b1_mod2_base, maps.b1_mod2_total)
        if got != (h - 1, h, 2 * (h - 1)):
            return False, f"{name}: (k, b1(2) base, b1(2) cover) = {got} for h = {h}"
    return True, ("k = b1(2)(cover) - b1(2)(base) + 1, dim coker pi^* = k, and the"
                  " image of pi_* has index 2, for all families")


# --- criterion 9 -----------------------------------------------------------


def check_cover_diagram(seed: int) -> tuple[bool, str]:
    diagram = cover_diagram(build("moebius"))
    results = diagram.check_relations(64)
    failed = [f"{k} at ({p[0]}, {p[1]})pi" for k, p in sorted(results.items()) if p is not None]
    if failed:
        return False, f"failed relations: {', '.join(failed)}"
    if not diagram.prime.orientable or diagram.prime.boundary_components:
        return False, "X' is not closed orientable"
    return True, "all relations hold exactly on the 64x64 grid; tau34 fixed point free"


# --- criterion 10 ----------------------------------------------------------


def check_property_suites(seed: int) -> tuple[bool, str]:
    import numpy as np

    rng = np.random.default_rng(seed)
    worst = {}

    dev = 0.0
    for sig in (Signature(3, 0), Signature(0, 3)):
        for _ in range(200):
            a, b, c = (_random_multivector(rng, sig) for _ in range(3))
            diff = ((a * b) * c) - (a * (b * c))
            dev = max(dev, diff.norm())
    worst["associativity"] = dev
    if dev > 100 * TOL:
        return False, f"associativity deviation {dev:.2e}"

    dev = 0.0
    for sig in (Signature(3, 0), Signature(0, 3)):
        for _ in range(100):
            u, _ = lift_orthogonal(_random_orthogonal(rng, sig.n), sig)
            v = Multivector.from_vector(sig, rng.normal(size=sig.n))
            w = Multivector.from_vector(sig, rng.normal(size=sig.n))
            # twisted_adjoint(u, .) on v and w, with alpha(u) and u^-1 computed once
            alpha_u, u_inv = u.value.grade_involution(), u.value.inverse()
            lhs = bilinear_form(_sandwich(alpha_u, v, u_inv), _sandwich(alpha_u, w, u_inv))
            dev = max(dev, abs(lhs - bilinear_form(v, w)))
    worst["metric"] = dev
    if dev > 100 * TOL:
        return False, f"metric preservation deviation {dev:.2e}"

    dev = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = _random_orthogonal(rng, n)
        for sig in (Signature(n, 0), Signature(0, n)):
            u, _ = lift_orthogonal(m, sig)
            dev = max(dev, float(np.abs(orthogonal_matrix(u) - m).max()))
    worst["lift_round_trip"] = dev
    if dev > 10 * TOL:
        return False, f"lift round-trip deviation {dev:.2e}"

    dev = 0.0
    for kind in KINDS:
        gens = [
            pin2.even(kind, angle(theta=Fraction(1, 2))),
            pin2.even(kind, angle(phi=Fraction(-1, 2))),
            pin2.odd(kind, angle()),
            pin2.odd(kind, angle(const=Fraction(1, 2))),
            pin2.even(kind, angle(const=1)),
        ]
        products = [[mul(x, y) for y in gens] for x in gens]  # exact: built once per kind
        for _ in range(500):
            i = rng.integers(len(gens))
            j = rng.integers(len(gens))
            t0, p0 = rng.uniform(0, 2 * math.pi, size=2)
            diff = evaluate(products[i][j], t0, p0) - geometric_product(
                evaluate(gens[i], t0, p0), evaluate(gens[j], t0, p0))
            dev = max(dev, diff.norm())
    worst["evaluate_hom"] = dev
    if dev > TOL:
        return False, f"evaluate homomorphism deviation {dev:.2e}"

    tau = build("k2").deck
    dev = 0.0
    cert = 0.0
    for kind in KINDS:
        structures = {xi.label: xi for xi in enumerate_structures(build("t2"), kind)}
        for label in descend(build("k2"), kind).qualifying:
            lift = lift_involution(structures[label], tau)
            for sign in (1, -1):
                s = PinorField.random(32, rng)
                p = project_invariant(s, lift, sign)
                again = project_invariant(p, lift, sign)
                dev = max(dev, (p - again).max_norm(),
                          invariance_residual(p, lift, sign))
            inv = project_invariant(PinorField.random(32, rng), lift, 1)
            cert = max(cert, couple_split(inv, lift, 1).certificate_residual)
    worst["projector"] = dev
    worst["couple"] = cert
    if dev > TOL or cert > TOL:
        return False, f"projector {dev:.2e} / couple {cert:.2e}"

    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    return True, f"max deviations: {detail}"


CRITERIA: list[tuple[str, Callable[[int], tuple[bool, str]]]] = [
    ("1 fiber groups pin+- over {1, j1}", check_fiber_groups),
    ("2 sphere squares and rp2 descent", check_sphere_rp2),
    ("3 klein-bottle square table and counts", check_klein_table),
    ("4 moebius tau4 square table", check_moebius_table),
    ("5 cylinder boundary-lift table", check_boundary_lift_table),
    ("6 cylinder doubling classes", check_cylinder_classes),
    ("7 homology and induced maps", check_homology),
    ("8 splitting bookkeeping", check_splitting),
    ("9 cover-diagram relations", check_cover_diagram),
    ("10 property suites", check_property_suites),
]


def run_all(seed: int = 0) -> list[CriterionResult]:
    # loaded before the first clock starts, so no criterion's time holds its import
    import numpy  # noqa: F401

    results = []
    for name, fn in CRITERIA:
        start = time.perf_counter()
        try:
            passed, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            from traceback import extract_tb

            file, line, function, _ = extract_tb(exc.__traceback__)[-1]  # the innermost frame
            passed, detail = False, f"error: {exc!r} at {file}:{line} in {function}"
        results.append(CriterionResult(name, passed, detail, time.perf_counter() - start))
    return results
