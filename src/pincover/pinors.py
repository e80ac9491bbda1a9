"""Gamma-matrix representation of Pin+-(2) and discretized pinor fields.

Pinors live on an N x N grid over the square with nodes at rational multiples
of pi, so every flat involution maps nodes to nodes exactly.  The
representation acts on C^2; the chirality operator is the normalized volume
element, which anticommutes with the odd generators, so orientation-reversing
lifts swap the chiral halves - the content of the invariant-couple calculus.
"""

from __future__ import annotations

import functools

from .pin2 import EVEN, PIN_MINUS, PIN_PLUS, Pin2Element, at
from .records import Frozen
from .structures import LiftResult, tau_coordinate_forms
from .surface import Involution, Lattice

# annotations are strings (PEP 563); this keeps typing itself out of the import
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np


@functools.cache
def _pauli():
    """sigma_x and sigma_y, built on first use."""
    import numpy as np

    return (np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex))


class GammaRep(Frozen):
    """2x2 gamma matrices with gamma_i^2 = +-I per kind and the chirality operator."""

    __slots__ = ("kind", "gamma1", "gamma2", "omega")

    @classmethod
    def standard(cls, kind: str) -> "GammaRep":
        sigma_x, sigma_y = _pauli()
        if kind == PIN_MINUS:
            g1, g2 = 1j * sigma_x, 1j * sigma_y
        elif kind == PIN_PLUS:
            g1, g2 = sigma_x, sigma_y
        else:
            raise ValueError(f"unknown kind {kind!r}")
        # (g1 g2)^2 = -I for both kinds, so -i g1 g2 squares to I
        return cls(kind, g1, g2, -1j * (g1 @ g2))

    @property
    def bivector(self) -> np.ndarray:
        return self.gamma1 @ self.gamma2


def _rep_at(x: Pin2Element, r: GammaRep, t: np.ndarray) -> np.ndarray:
    """Representation with the angle evaluated to t (array-valued allowed)."""
    import numpy as np

    c, s = np.cos(t), np.sin(t)
    if x.parity == EVEN:
        a, b = np.eye(2, dtype=complex), r.bivector
    else:
        a, b = r.gamma1, r.gamma2
    return c[..., None, None] * a + s[..., None, None] * b


# The largest grid `pincover pinors check` takes.  A cold `--grid 1024` run
# takes about 1.4 s and 400 MiB on a 2-core host, about 350 B a node, so
# memory, not time, sets the limit (README, "Grid limit").
GRID_LIMIT = 1024


class PinorField(Frozen):
    """C^2-valued field on the N x N grid over the square (nodes j * 2pi / N);
    values has shape (N, N, 2)."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        import numpy as np

        v = np.asarray(values, dtype=complex)
        if v.ndim != 3 or v.shape[0] != v.shape[1] or v.shape[2] != 2 or v.shape[0] < 1:
            raise ValueError("field values must have shape (N, N, 2) with N >= 1")
        self._set(v)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @classmethod
    def constant(cls, n: int, v) -> "PinorField":
        import numpy as np

        out = np.zeros((n, n, 2), dtype=complex)
        out[:, :] = np.asarray(v, dtype=complex)
        return cls(out)

    @classmethod
    def random(cls, n: int, rng) -> "PinorField":
        return cls(rng.normal(size=(n, n, 2)) + 1j * rng.normal(size=(n, n, 2)))

    def __add__(self, other: "PinorField") -> "PinorField":
        return PinorField(self.values + other.values)

    def __sub__(self, other: "PinorField") -> "PinorField":
        return PinorField(self.values - other.values)

    def scale(self, c) -> "PinorField":
        return PinorField(c * self.values)

    def max_norm(self) -> float:
        import numpy as np

        return float(np.max(np.linalg.norm(self.values, axis=-1)))

    def inner(self, other: "PinorField") -> complex:
        return complex((self.values.conj() * other.values).sum())


def _grid_angles(n: int) -> np.ndarray:
    import numpy as np

    return 2.0 * np.pi * np.arange(n) / n


def _involution_node_map(tau: Involution, n: int):
    """Node permutation (arrays of indices) realizing tau on the grid."""
    import numpy as np

    c = tau.shift
    if (c[0] * n) % 2 != 0 or (c[1] * n) % 2 != 0:
        raise ValueError("grid is not invariant under tau; use an even size")
    i = np.arange(n)
    # node (i, j) is the lattice point (i, j) of period n: 2pi/n per unit
    image = tau.apply(Lattice(*np.meshgrid(i, i, indexing="ij"), n))
    return image.x, image.y


def _deck_action(s: PinorField, lift: LiftResult, sign: int, r: GammaRep,
                 needs: str = "") -> PinorField:
    """sign * (d-tilde-tau action on sections)(x) = sign * rep(L(tau x)) s(tau x),
    for the involution tau and the lift L that lift solved.

    A missing lift is refused; so is a lift that does not descend (it squares
    to -1) when needs names what requires descent.
    """
    import numpy as np

    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    xi, tau = lift.structure, lift.involution
    if not lift.exists:
        raise ValueError(f"no lift of {tau.name} for {xi.label} ({xi.kind})")
    if needs and not lift.descends:
        raise ValueError(f"{needs}: the lift squares to -1 for {xi.label} ({xi.kind})")
    n = s.size
    lift_at_tau = at(lift.lift, *tau_coordinate_forms(tau))
    angles = _grid_angles(n)
    tt, pp = np.meshgrid(angles, angles, indexing="ij")
    mats = _rep_at(lift_at_tau, r, lift_at_tau.angle.evaluate(tt, pp))
    ti, tj = _involution_node_map(tau, n)
    pulled = s.values[ti, tj]
    return PinorField(np.einsum("ijab,ijb->ija", mats, pulled)).scale(sign)


def invariance_residual(s: PinorField, lift: LiftResult, sign: int,
                        r: GammaRep | None = None) -> float:
    """max_x || s(x) - sign * rep(L(tau x)) s(tau x) ||."""
    r = r or GammaRep.standard(lift.structure.kind)
    return (s - _deck_action(s, lift, sign, r)).max_norm()


def project_invariant(s: PinorField, lift: LiftResult, sign: int,
                      r: GammaRep | None = None) -> PinorField:
    """Average with the deck action: s -> (s + sign * action(s)) / 2.

    Requires the lift to square to +1, otherwise the average is not idempotent
    (which is exactly why square -1 structures do not descend).
    """
    r = r or GammaRep.standard(lift.structure.kind)
    return (s + _deck_action(s, lift, sign, r, "no invariant projector")).scale(0.5)


class SpinorCouple(Frozen):
    """Chiral halves (s+, s-) with the couple certificate residual."""

    __slots__ = ("plus", "minus", "certificate_residual")


def couple_split(s: PinorField, lift: LiftResult, sign: int = 1,
                 r: GammaRep | None = None) -> SpinorCouple:
    """Split an invariant pinor into the chirality couple and certify the relation
    s-(x) = sign * rep(L(tau x)) s+(tau x)."""
    import numpy as np

    r = r or GammaRep.standard(lift.structure.kind)
    plus = PinorField(np.einsum("ab,ijb->ija", (np.eye(2) + r.omega) / 2, s.values))
    minus = PinorField(np.einsum("ab,ijb->ija", (np.eye(2) - r.omega) / 2, s.values))
    moved = _deck_action(plus, lift, sign, r, "no couple splitting")
    return SpinorCouple(plus, minus, (minus - moved).max_norm())
