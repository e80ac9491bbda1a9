"""Numeric real Clifford algebras Cl(p, q) with Pin group elements.

Multivectors are stored as sparse maps from blade bitmask to coefficient
(bit i set means the basis vector e_{i+1} is present).  The product follows
the convention v*w + w*v = 2<v, w> with e_i^2 = +1 for i <= p and -1
otherwise.  The covering map onto O(n) is the twisted adjoint
u -> (v -> alpha(u) v u^-1), which sends +-e1 to the reflection j1 in both
signatures.
"""

from __future__ import annotations

import functools
import math

from .records import Frozen

# annotations are strings (PEP 563); this keeps typing itself out of the import
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

TOL = 1e-9


class Signature(Frozen):
    """Number of basis vectors squaring to +1 (p) and to -1 (q)."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0:
            raise ValueError("signature counts must be non-negative")
        if p + q > 12:
            raise ValueError("p + q must be at most 12")
        self._set(p, q)

    @property
    def n(self) -> int:
        return self.p + self.q

    def metric(self, i: int) -> int:
        """Square of e_{i+1}."""
        if not 0 <= i < self.n:
            raise ValueError(f"basis index {i} out of range for n={self.n}")
        return 1 if i < self.p else -1


class Multivector:
    """Element of Cl(p, q); immutable sparse blade/coefficient map."""

    __slots__ = ("signature", "coefficients")

    def __init__(self, signature: Signature, coefficients: dict[int, float]):
        limit = 1 << signature.n
        coeffs = {}
        for mask, c in coefficients.items():
            if not 0 <= mask < limit:
                raise ValueError(f"blade mask {mask} out of range")
            if c != 0.0:
                coeffs[mask] = float(c)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def _trusted(cls, signature: Signature, coefficients: dict[int, float]) -> "Multivector":
        """The algebra's own float results: zeros dropped, masks and types unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "coefficients",
                           {m: c for m, c in coefficients.items() if c != 0.0})
        return self

    def __setattr__(self, *args):
        raise AttributeError("Multivector is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, sig: Signature, value: float) -> "Multivector":
        return cls(sig, {0: value})

    @classmethod
    def basis_vector(cls, sig: Signature, i: int) -> "Multivector":
        if not 0 <= i < sig.n:
            raise ValueError(f"basis index {i} out of range")
        return cls(sig, {1 << i: 1.0})

    @classmethod
    def from_vector(cls, sig: Signature, v) -> "Multivector":
        import numpy as np

        v = np.asarray(v, dtype=float)
        if v.shape != (sig.n,):
            raise ValueError("vector length must equal n")
        return cls(sig, {1 << i: v[i] for i in range(sig.n)})

    # -- structure ---------------------------------------------------------

    def coefficient(self, mask: int) -> float:
        return self.coefficients.get(mask, 0.0)

    def grade_part(self, k: int) -> "Multivector":
        return Multivector._trusted(
            self.signature,
            {m: c for m, c in self.coefficients.items() if m.bit_count() == k},
        )

    @property
    def scalar_part(self) -> float:
        return self.coefficients.get(0, 0.0)

    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.coefficients.values()))

    def is_grade(self, k: int, tol: float = TOL) -> bool:
        return all(c == 0 or m.bit_count() == k or abs(c) <= tol
                   for m, c in self.coefficients.items())

    # -- linear operations --------------------------------------------------

    def _check_same(self, other: "Multivector"):
        if self.signature != other.signature:
            raise ValueError("signature mismatch")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_same(other)
        out = dict(self.coefficients)
        for m, c in other.coefficients.items():
            out[m] = out.get(m, 0.0) + c
        return Multivector._trusted(self.signature, out)

    def __sub__(self, other: "Multivector") -> "Multivector":
        """self + (-1.0) * other, bit for bit: x - c is x + (-c) in IEEE arithmetic."""
        self._check_same(other)
        out = dict(self.coefficients)
        for m, c in other.coefficients.items():
            out[m] = out.get(m, 0.0) - c
        return Multivector._trusted(self.signature, out)

    def __rmul__(self, scalar: float) -> "Multivector":
        scalar = float(scalar)
        return Multivector._trusted(
            self.signature, {m: scalar * c for m, c in self.coefficients.items()}
        )

    def __neg__(self) -> "Multivector":
        return (-1.0) * self

    # -- involutions ---------------------------------------------------------

    def grade_involution(self) -> "Multivector":
        return Multivector._trusted(
            self.signature,
            {m: (-c if m.bit_count() & 1 else c) for m, c in self.coefficients.items()},
        )

    def reverse(self) -> "Multivector":
        out = {}
        for m, c in self.coefficients.items():
            k = m.bit_count()
            out[m] = -c if (k * (k - 1) // 2) & 1 else c
        return Multivector._trusted(self.signature, out)

    # -- geometric product ----------------------------------------------------

    def __mul__(self, other: "Multivector") -> "Multivector":
        return geometric_product(self, other)

    def inverse(self) -> "Multivector":
        """Inverse of a versor (product of invertible vectors)."""
        rev = self.reverse()
        s = geometric_product(self, rev)
        scale = s.scalar_part
        if abs(scale) < TOL or not s.is_grade(0):
            raise ValueError("element is not an invertible versor")
        return (1.0 / scale) * rev

    def approx_eq(self, other: "Multivector", tol: float = TOL) -> bool:
        self._check_same(other)
        masks = set(self.coefficients) | set(other.coefficients)
        return all(
            abs(self.coefficients.get(m, 0.0) - other.coefficients.get(m, 0.0)) <= tol
            for m in masks
        )

    def __repr__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for m, c in sorted(self.coefficients.items()):
            if m == 0:
                parts.append(f"{c:g}")
            else:
                blade = "e" + "".join(str(i + 1) for i in range(12) if m >> i & 1)
                parts.append(f"{c:g}*{blade}")
        return " + ".join(parts)


@functools.cache
def _sign_rows(sig: Signature) -> list[list[int] | None]:
    """Per left blade a, the row of signs s with e_a e_b = s e_(a xor b), built on first use."""
    return [None] * (1 << sig.n)


@functools.cache
def _twist_masks(sig: Signature) -> list[int]:
    """t[b] with e_a e_b = -e_(a xor b) iff a & t[b] has an odd bit count.

    Bit i of t[b] is the parity of b's bits below i (the swaps e_i makes
    passing b's generators) xor bit i of b when e_i^2 = -1.  Adding b's lowest
    bit l to the rest of b flips the parity above l, hence the recurrence.
    """
    full = (1 << sig.n) - 1
    negative = full ^ ((1 << sig.p) - 1)
    t = [0] * (1 << sig.n)
    for b in range(1, 1 << sig.n):
        low = b & -b
        t[b] = t[b & (b - 1)] ^ (full & -(low << 1)) ^ (low & negative)
    return t


def _sign_row(sig: Signature, a: int) -> list[int]:
    """The sign s of e_a e_b = s e_(a xor b) for every blade b, from the twist masks."""
    return [-1 if (a & t).bit_count() & 1 else 1 for t in _twist_masks(sig)]


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Clifford product with e_i e_j = -e_j e_i (i != j) and e_i^2 = metric."""
    sig = a.signature
    if sig is not b.signature:
        a._check_same(b)
    rows = _sign_rows(sig)
    b_items = list(b.coefficients.items())
    out: dict[int, float] = {}
    for ma, ca in a.coefficients.items():
        row = rows[ma]
        if row is None:
            row = rows[ma] = _sign_row(sig, ma)
        for mb, cb in b_items:
            mask = ma ^ mb
            out[mask] = out.get(mask, 0.0) + row[mb] * ca * cb
    return Multivector._trusted(sig, out)


def bilinear_form(v: Multivector, w: Multivector) -> float:
    """<v, w> in the signature metric, for grade-1 arguments."""
    v._check_same(w)
    sig = v.signature
    return sum(
        sig.metric(i) * v.coefficient(1 << i) * w.coefficient(1 << i)
        for i in range(sig.n)
    )


class PinElement(Frozen):
    """Product of unit vectors, with the parity ("even" | "odd") and length of a
    witnessing factorization."""

    __slots__ = ("value", "parity", "factor_count")

    def __neg__(self) -> "PinElement":
        return PinElement(-self.value, self.parity, self.factor_count)


def _sandwich(alpha_u: Multivector, v: Multivector, u_inv: Multivector) -> Multivector:
    """alpha(u) v u^-1 from a precomputed alpha(u) and u^-1, checked to be grade 1."""
    if not v.is_grade(1):
        raise ValueError("twisted adjoint acts on grade-1 elements")
    result = geometric_product(geometric_product(alpha_u, v), u_inv)
    if not result.is_grade(1, tol=1e-7 * max(1.0, result.norm())):
        raise ValueError("twisted adjoint did not preserve grade 1; u is not a versor")
    return result.grade_part(1)


def twisted_adjoint(u: Multivector | PinElement, v: Multivector) -> Multivector:
    """alpha(u) v u^-1; maps grade-1 vectors to grade-1 vectors orthogonally.

    _sandwich is the map's one definition.  Criterion 10 calls it with alpha(u)
    and u^-1 computed once per u, which gives the same floats in the same
    order, and orthogonal_matrix(u) gives the map's columns.
    """
    if isinstance(u, PinElement):
        u = u.value
    return _sandwich(u.grade_involution(), v, u.inverse())


def orthogonal_matrix(u: Multivector | PinElement) -> np.ndarray:
    """The twisted adjoint's matrix: column i is _sandwich's (alpha(u) e_i) u^-1.

    The terms of alpha(u) e_i, in alpha(u)'s order, times those of u^-1, with
    geometric_product's signs, are summed by one np.bincount over (column,
    blade) in its loop order: every entry is _sandwich's float, and only the
    grade check's norm is summed in another order (the masks').
    """
    import numpy as np

    value = u.value if isinstance(u, PinElement) else u
    n, size = value.signature.n, 1 << value.signature.n
    alpha_u, u_inv = value.grade_involution(), value.inverse()
    twist = np.array(_twist_masks(value.signature))
    sign = np.array([-1.0 if m.bit_count() & 1 else 1.0 for m in range(size)])
    e = 1 << np.arange(n)  # e_i, one per column
    left, right = np.array(list(alpha_u.coefficients)), np.array(list(u_inv.coefficients))
    # row i is alpha(u) e_i: blades a ^ e_i tagged with i << n, coefficients sign(a, e_i) c
    blades = ((left ^ e[:, None]) | (np.arange(n)[:, None] << n))[:, :, None]
    coeffs = sign[left & twist[e][:, None]] * np.array(list(alpha_u.coefficients.values()))
    weights = (sign[blades & twist[right]] * coeffs[:, :, None]
               * np.array(list(u_inv.coefficients.values())))
    cols = np.bincount((blades ^ right).ravel(), weights.ravel(), n * size).reshape(n, size)
    out = cols.T[e]  # entry (j, i) is column i's e_j
    tol = 1e-7 * np.maximum(1.0, np.sqrt(np.add.reduce(cols * cols, axis=1)))
    cols[:, e] = 0.0
    if not (np.abs(cols) <= tol[:, None]).all():
        raise ValueError("twisted adjoint did not preserve grade 1; u is not a versor")
    return out


def _canonical_sign(u: Multivector) -> int:
    """+1 if the lowest bitmask among top-grade blades has positive coefficient."""
    top = max((m.bit_count() for m, c in u.coefficients.items() if abs(c) > TOL),
              default=0)
    for m, c in sorted(u.coefficients.items()):
        if m.bit_count() == top and abs(c) > TOL:
            return 1 if c > 0 else -1
    return 1


def lift_orthogonal(M, sig: Signature) -> tuple[PinElement, PinElement]:
    """The two Pin lifts (u, -u) of an orthogonal matrix M, via reflection factorization.

    Each step reflects away the column deviating most from the identity (ties:
    lowest index), so the factorization is deterministic.
    """
    import numpy as np

    if sig.p != 0 and sig.q != 0:
        raise ValueError("lift_orthogonal expects signature (n, 0) or (0, n)")
    M = np.asarray(M, dtype=float)
    n = sig.n
    if M.shape != (n, n):
        raise ValueError("matrix size must match the signature")
    eye = np.eye(n)
    if not (np.abs(M.T @ M - eye) <= TOL).all():
        raise ValueError("matrix is not orthogonal within tolerance")

    work = M.copy()
    u = Multivector.scalar(sig, 1.0)
    factors = 0
    for _ in range(n + 1):
        d = work - eye
        deviations = np.sqrt(np.add.reduce(d * d, axis=0))  # np.linalg.norm(d, axis=0)
        k = int(np.argmax(deviations))  # lowest index wins exact ties
        if deviations[k] <= 1e-12:
            break
        v = work[:, k] - eye[:, k]
        v = v / np.linalg.norm(v)
        work = (eye - 2.0 * (v[:, None] * v[None, :])) @ work  # np.outer(v, v)
        u = geometric_product(
            u, Multivector._trusted(sig, {1 << i: c for i, c in enumerate(v.tolist())}))
        factors += 1
    else:
        raise ValueError("reflection factorization failed to terminate")

    if _canonical_sign(u) < 0:
        u = -u
    parity = "even" if factors % 2 == 0 else "odd"
    first = PinElement(u, parity, factors)
    return first, -first


def fiber_group_tag(sig: Signature) -> str:
    """Classify the group {+-1, +-e1} over {1, j1}: "Z4" or "Z2xZ2"."""
    if sig.n < 1:
        raise ValueError("need n >= 1")
    one = Multivector.scalar(sig, 1.0)
    e1 = Multivector.basis_vector(sig, 0)
    elements = [one, -one, e1, -e1]

    def index_of(x: Multivector) -> int:
        for i, y in enumerate(elements):
            if x.approx_eq(y):
                return i
        raise ValueError("fiber is not closed under multiplication")

    table = [[index_of(geometric_product(x, y)) for y in elements] for x in elements]
    # the group is Z4 iff some element has order 4
    for i in range(4):
        j = table[i][i]
        if table[j][j] != 0:
            raise ValueError("unexpected fiber group")
        if j == 1:  # x^2 = -1, so x has order 4
            return "Z4"
    return "Z2xZ2"
