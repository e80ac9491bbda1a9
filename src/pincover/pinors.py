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
from .structures import PinStructureDescriptor, lift_involution, tau_coordinate_forms
from .surface import Involution

# annotations are strings (PEP 563); this keeps typing itself out of the import
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

TOL = 1e-9


@functools.cache
def _pauli():
    """sigma_x and sigma_y, built on first use."""
    import numpy as np

    return (np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex))


class GammaRep(Frozen):
    """2x2 gamma matrices with gamma_i^2 = +-I per kind and the chirality operator."""

    __slots__ = ("kind", "gamma1", "gamma2", "omega")

    def __init__(self, kind: str, gamma1: np.ndarray, gamma2: np.ndarray, omega: np.ndarray):
        self._set(kind, gamma1, gamma2, omega)

    @classmethod
    def standard(cls, kind: str) -> "GammaRep":
        import numpy as np

        sigma_x, sigma_y = _pauli()
        if kind == PIN_MINUS:
            g1, g2 = 1j * sigma_x, 1j * sigma_y
        elif kind == PIN_PLUS:
            g1, g2 = sigma_x, sigma_y
        else:
            raise ValueError(f"unknown kind {kind!r}")
        omega = -1j * (g1 @ g2)
        if not np.allclose(omega @ omega, np.eye(2), atol=TOL):
            omega = 1j * (g1 @ g2)
        return cls(kind, g1, g2, omega)

    @property
    def bivector(self) -> np.ndarray:
        return self.gamma1 @ self.gamma2


def rep(x: Pin2Element, r: GammaRep) -> np.ndarray:
    """Matrix of a canonical-form element: cos t + sin t g1 g2 or cos t g1 + sin t g2."""
    import numpy as np

    if x.kind != r.kind:
        raise ValueError("kind mismatch")
    t = x.angle.evaluate()
    return _rep_at(x, r, np.array(t))


def _rep_at(x: Pin2Element, r: GammaRep, t: np.ndarray) -> np.ndarray:
    """Representation with the angle evaluated to t (array-valued allowed)."""
    import numpy as np

    c, s = np.cos(t), np.sin(t)
    if x.parity == EVEN:
        a, b = np.eye(2, dtype=complex), r.bivector
    else:
        a, b = r.gamma1, r.gamma2
    return c[..., None, None] * a + s[..., None, None] * b


class PinorField(Frozen):
    """C^2-valued field on the N x N grid over the square (nodes j * 2pi / N);
    values has shape (N, N, 2)."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        import numpy as np

        v = np.asarray(values, dtype=complex)
        if v.ndim != 3 or v.shape[0] != v.shape[1] or v.shape[2] != 2:
            raise ValueError("field values must have shape (N, N, 2)")
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

        return float(np.max(np.linalg.norm(self.values, axis=-1))) if self.values.size else 0.0

    def inner(self, other: "PinorField") -> complex:
        return complex((self.values.conj() * other.values).sum())


def _grid_angles(n: int) -> np.ndarray:
    import numpy as np

    return 2.0 * np.pi * np.arange(n) / n


def _involution_node_map(tau: Involution, n: int):
    """Node permutation (arrays of indices) realizing tau on the grid."""
    import numpy as np

    if tau.is_equatorial:
        raise ValueError("pinor grids need a flat involution")
    m, c = tau.matrix, tau.shift
    if (c[0] * n) % 2 != 0 or (c[1] * n) % 2 != 0:
        raise ValueError("grid is not invariant under tau; use an even size")
    i = np.arange(n)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    # coordinates in units of 2pi/n; shift is in units of pi = n/2 steps
    si = int(c[0] * n / 2)
    sj = int(c[1] * n / 2)
    new_i = (m[0][0] * ii + m[0][1] * jj + si) % n
    new_j = (m[1][0] * ii + m[1][1] * jj + sj) % n
    return new_i, new_j


def _lift_matrices(xi: PinStructureDescriptor, tau: Involution, r: GammaRep, n: int):
    """rep(L(tau x)) at every grid node, where L is the involution lift."""
    import numpy as np

    res = lift_involution(xi, tau)
    if not res.exists:
        raise ValueError(f"no lift of {tau.name} for {xi.label} ({xi.kind})")
    lift_at_tau = at(res.lift, *tau_coordinate_forms(tau))
    angles = _grid_angles(n)
    tt, pp = np.meshgrid(angles, angles, indexing="ij")
    a = lift_at_tau.angle
    t = float(a.theta) * tt + float(a.phi) * pp + float(a.const) * np.pi
    return _rep_at(lift_at_tau, r, t), res


def _deck_action(s: PinorField, xi: PinStructureDescriptor, tau: Involution,
                 r: GammaRep):
    """(d-tilde-tau action on sections)(x) = rep(L(tau x)) s(tau x)."""
    import numpy as np

    n = s.size
    mats, res = _lift_matrices(xi, tau, r, n)
    ti, tj = _involution_node_map(tau, n)
    pulled = s.values[ti, tj]
    moved = np.einsum("ijab,ijb->ija", mats, pulled)
    return PinorField(moved), res


def invariance_residual(s: PinorField, xi: PinStructureDescriptor, tau: Involution,
                        sign: int, r: GammaRep | None = None) -> float:
    """max_x || s(x) - sign * rep(L(tau x)) s(tau x) ||."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    r = r or GammaRep.standard(xi.kind)
    moved, _ = _deck_action(s, xi, tau, r)
    return (s - moved.scale(sign)).max_norm()


def project_invariant(s: PinorField, xi: PinStructureDescriptor, tau: Involution,
                      sign: int, r: GammaRep | None = None) -> PinorField:
    """Average with the deck action: s -> (s + sign * action(s)) / 2.

    Requires the lift to square to +1, otherwise the average is not idempotent
    (which is exactly why square -1 structures do not descend).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    r = r or GammaRep.standard(xi.kind)
    moved, res = _deck_action(s, xi, tau, r)
    if res.square != 1:
        raise ValueError(
            f"no invariant projector: the lift squares to -1 for {xi.label} ({xi.kind})")
    return (s + moved.scale(sign)).scale(0.5)


class SpinorCouple(Frozen):
    """Chiral halves (s+, s-) with the couple certificate residual."""

    __slots__ = ("plus", "minus", "certificate_residual")

    def __init__(self, plus: PinorField, minus: PinorField, certificate_residual: float):
        self._set(plus, minus, certificate_residual)


def couple_split(s: PinorField, xi: PinStructureDescriptor, tau: Involution,
                 sign: int = 1, r: GammaRep | None = None) -> SpinorCouple:
    """Split an invariant pinor into the chirality couple and certify the relation
    s-(x) = sign * rep(L(tau x)) s+(tau x)."""
    import numpy as np

    r = r or GammaRep.standard(xi.kind)
    n = s.size
    plus = PinorField(np.einsum("ab,ijb->ija", (np.eye(2) + r.omega) / 2, s.values))
    minus = PinorField(np.einsum("ab,ijb->ija", (np.eye(2) - r.omega) / 2, s.values))
    moved, res = _deck_action(plus, xi, tau, r)
    if res.square != 1:
        raise ValueError("couple splitting needs a lift squaring to +1")
    residual = (minus - moved.scale(sign)).max_norm()
    return SpinorCouple(plus, minus, residual)
