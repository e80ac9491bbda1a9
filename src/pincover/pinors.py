"""Gamma-matrix representation of Pin+-(2) and discretized pinor fields.

Pinors live on an N x N grid over the square with nodes at rational multiples
of pi, so every flat involution maps nodes to nodes exactly.  The
representation acts on C^2; the chirality operator is the normalized volume
element, which anticommutes with the odd generators, so orientation-reversing
lifts swap the chiral halves - the content of the invariant-couple calculus.
"""

from __future__ import annotations

import functools

from .pin2 import EVEN, PIN_MINUS, PIN_PLUS, at
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


# The largest grid `pincover pinors check` takes.  A cold `--grid 1024` run
# takes about 1.2 s and 316 MiB on a 2-core host, about 316 B a node, so
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


def _deck_action(s: PinorField, lift: LiftResult, sign: int, needs: str = "") -> PinorField:
    """sign * (d-tilde-tau action on sections)(x) = sign * rep(L(tau x)) s(tau x),
    for the involution tau and the lift L that lift solved.

    A missing or even lift is refused; so is a lift that does not descend (it
    squares to -1) when needs names what requires descent.  The lift is odd,
    so rep(L(tau x)) = cos t gamma1 + sin t gamma2 with t its angle at x.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    xi, tau = lift.structure, lift.involution
    if not lift.exists:
        raise ValueError(f"no lift of {tau.name} for {xi.label} ({xi.kind})")
    if lift.lift.parity == EVEN:
        raise ValueError(f"the lift of {tau.name} for {xi.label} ({xi.kind}) is even: the pinor "
                         "layer acts by orientation-reversing involutions")
    if needs and not lift.descends:
        raise ValueError(f"{needs}: the lift squares to -1 for {xi.label} ({xi.kind})")
    r = GammaRep.standard(xi.kind)
    node, cos_t, sin_t = _deck_grid(lift, s.size)
    pulled = s.values.reshape(-1, 2)[node]  # s(tau x) at each node x
    # cos t * (pulled gamma1^T) + sin t * (pulled gamma2^T), in place, so that
    # at most three grid-sized arrays are alive at once
    moved = pulled @ r.gamma1.T
    moved *= cos_t
    turned = pulled @ r.gamma2.T
    del pulled
    turned *= sin_t
    moved += turned
    return PinorField(moved).scale(sign)


@functools.lru_cache(maxsize=1)
def _deck_grid(lift: LiftResult, n: int):
    """The node map of the lift's involution on the n x n grid, as the flat
    index of tau x at each node x, and cos t and sin t (shape (n, n, 1)) for
    the lift's angle t at each node, all read-only.

    One `pinors check` acts with one lift on one grid four times, and
    criterion 10 eight times a lift, so the last (lift, n) is kept.
    """
    import numpy as np

    tau = lift.involution
    angles = 2.0 * np.pi * np.arange(n) / n
    t = at(lift.lift, *tau_coordinate_forms(tau)).angle.evaluate(angles[:, None], angles[None, :])
    ti, tj = _involution_node_map(tau, n)
    grid = ti * n + tj, np.cos(t)[..., None], np.sin(t)[..., None]
    for a in grid:
        a.setflags(write=False)
    return grid


def invariance_residual(s: PinorField, lift: LiftResult, sign: int) -> float:
    """max_x || s(x) - sign * rep(L(tau x)) s(tau x) ||."""
    return (s - _deck_action(s, lift, sign)).max_norm()


def project_invariant(s: PinorField, lift: LiftResult, sign: int) -> PinorField:
    """Average with the deck action: s -> (s + sign * action(s)) / 2.

    Requires the lift to square to +1, otherwise the average is not idempotent
    (which is exactly why square -1 structures do not descend).
    """
    return (s + _deck_action(s, lift, sign, "no invariant projector")).scale(0.5)


class SpinorCouple(Frozen):
    """Chiral halves (s+, s-) with the couple certificate residual."""

    __slots__ = ("plus", "minus", "certificate_residual")


def couple_split(s: PinorField, lift: LiftResult, sign: int = 1) -> SpinorCouple:
    """Split an invariant pinor into the chirality couple and certify the relation
    s-(x) = sign * rep(L(tau x)) s+(tau x)."""
    import numpy as np

    r = GammaRep.standard(lift.structure.kind)
    plus = PinorField(s.values @ ((np.eye(2) + r.omega) / 2).T)
    minus = PinorField(s.values @ ((np.eye(2) - r.omega) / 2).T)
    moved = _deck_action(plus, lift, sign, "no couple splitting")
    return SpinorCouple(plus, minus, (minus - moved).max_norm())
