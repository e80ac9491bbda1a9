"""The per-op kernels against verbatim copies of their first versions.

``PolygonComplex`` (edge listing, corner union, vertex numbering, and the
edge ends, the face sums and the packed face rows of its one corner pass),
``orientation_double_cover_complex``, ``gf2_row_reduce``, ``solve_rows``,
``smith_normal_form`` (its sparse factors, written out dense, against the
dense replay of the same steps; and the invariant factors alone),
``homology_groups`` (from the factors of d2's transpose), ``H1Basis``,
``b1_mod2`` (from the GF(2) ranks, against the universal-coefficient count
and ``h1_z2_basis``'s basis), ``GluingWord``'s checks and one-sided letters,
``chord_gram_matrix``, the pinor grid's node map and deck action, the
report walk behind table and csv, the Clifford oracle
(``geometric_product``, the ``Multivector`` operations,
``lift_orthogonal``, ``orthogonal_matrix``) and ``pin2.evaluate`` are
compared output for output with their earlier
versions, kept here verbatim as ``_Ref*``/``_ref_*``: on random multi-face
gluing words with boundary letters, on the orientation double covers of
every family up to g = 16, on random packed rows, on relabelled family
words, on the flat involutions of the pinor grids and the odd lifts of
them, on random nested reports, on random sparse multivectors and random
orthogonal matrices.  A multivector matches when its items match in value,
type and order.  The rank of d1 is checked as V - c against the Smith and
the GF(2) eliminations, and ``_cycle_basis``'s replay against the V columns
of d1's Smith form and the GF(2) nullspace of d1, on the inputs above and on
face-shuffled triangulated T² and K² grids.
"""

import functools
import math
import operator
import random
from itertools import compress, repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pincover import acceptance, clifford, homology, pin2
from pincover.acceptance import check_property_suites
from pincover.characteristic import chord_gram_matrix
from pincover.clifford import (
    Multivector,
    PinElement,
    Signature,
    _canonical_sign,
    _twist_masks,
    geometric_product,
    lift_orthogonal,
    orthogonal_matrix,
)
from pincover.homology import (
    GluingWord,
    GradedGroups,
    H1Basis,
    PolygonComplex,
    _invariant_factors,
    b1_mod2,
    gf2_row_reduce,
    h1_z2_basis,
    homology_groups,
    induced_maps,
    nullspace_rows,
    orientation_double_cover_complex,
    smith_normal_form,
    solve_rows,
)
from pincover.pin2 import EVEN, KINDS, ODD, PIN_PLUS, Pin2Element, angle, at, evaluate
from pincover.pinors import GammaRep, PinorField, _deck_action, _involution_node_map
from pincover.reporting import Report, _convert, _flatten
from pincover.structures import enumerate_structures, lift_involution, tau_coordinate_forms
from pincover.surface import FAMILY_ONLY, SurfaceModel, build, cover_diagram, double, \
    orientation_double_cover
from test_clifford import vector_part
from test_pinned_answers import canonical_word, relabel

# ---------------------------------------------------------------------------
# verbatim references


class _RefPolygonComplex:
    def __init__(self, faces, boundary_letters=frozenset(), edges=None):
        if not edges:
            edges = []
            for face in faces:
                for name, _ in face:
                    if name not in edges:
                        edges.append(name)
        self.faces, self.boundary_letters, self.edges = faces, boundary_letters, edges
        self._build()

    def _build(self):
        # corners: (face index, position); edge ends unioned through gluings
        parent: dict[tuple, tuple] = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            parent[find(x)] = find(y)

        ends: dict[str, list[tuple]] = {}
        for fi, face in enumerate(self.faces):
            k = len(face)
            for pos, (name, exp) in enumerate(face):
                tail = (fi, pos) if exp == 1 else (fi, (pos + 1) % k)
                head = (fi, (pos + 1) % k) if exp == 1 else (fi, pos)
                ends.setdefault(name, []).append((tail, head))
        for name, occs in ends.items():
            if len(occs) == 2:
                union(occs[0][0], occs[1][0])
                union(occs[0][1], occs[1][1])

        roots: list[tuple] = []
        index: dict[tuple, int] = {}
        for fi, face in enumerate(self.faces):
            for pos in range(len(face)):
                r = find((fi, pos))
                if r not in index:
                    index[r] = len(roots)
                    roots.append(r)
        self.vertex_count = len(roots)
        self.edge_index = {name: i for i, name in enumerate(self.edges)}
        self.edge_ends = {
            name: (index[find(occs[0][0])], index[find(occs[0][1])])
            for name, occs in ends.items()
        }

    # d1 and d2 as they were before the corner pass recorded the face sums

    def d1(self) -> list[list[int]]:
        """Vertices x edges boundary matrix."""
        m = zeros(self.vertex_count, len(self.edges))
        for name, (t, h) in self.edge_ends.items():
            j = self.edge_index[name]
            m[h][j] += 1
            m[t][j] -= 1
        return m

    def d2(self) -> list[list[int]]:
        """Edges x faces boundary matrix (sum of exponents)."""
        m = zeros(len(self.edges), len(self.faces))
        idx = self.edge_index
        for fj, face in enumerate(self.faces):
            for name, exp in face:
                m[idx[name]][fj] += exp
        return m


def _ref_packed_boundaries(cx) -> tuple[list[int], list[int]]:
    """d1 by vertices and d2 by faces (its transpose), mod 2, packed by edge
    straight from the cells: a loop's two ends, and an edge met twice on one
    face, XOR the same bit twice and cancel."""
    idx = cx.edge_index
    d1 = [0] * cx.vertex_count
    for name, (t, h) in cx.edge_ends.items():
        d1[t] ^= 1 << idx[name]
        d1[h] ^= 1 << idx[name]
    d2 = []
    for face in cx.faces:
        row = 0
        for name, _ in face:
            row ^= 1 << idx[name]
        d2.append(row)
    return d1, d2


def _ref_factor_homology_groups(cx) -> GradedGroups:
    """H0, H1 and H2 from the Smith invariant factors of d1 and d2.

    With r1 = rank d1 and d_1 .. d_r2 the nonzero factors of d2: C1 / im d2 is
    H1 (+) im d1, and im d1 lies in the free C0, so H1 = Z^(E - r1 - r2) (+)
    the Z/d_i with d_i > 1, H0 = Z^(V - r1) and H2 = Z^(F - r2).
    """
    d1, d2 = cx.d1(), cx.d2()
    if any(any(row) for row in mat_mul(d1, d2)):
        raise ValueError("d1 * d2 != 0")
    r1 = len(_invariant_factors(*sparse_rows(d1)))
    factors = _invariant_factors(*sparse_rows(d2))
    r2 = len(factors)
    return GradedGroups((cx.vertex_count - r1, ()),
                        (len(cx.edges) - r1 - r2, tuple(f for f in factors if f > 1)),
                        (len(cx.faces) - r2, ()))


def _ref_is_orientable(faces):
    flip: dict[int, int] = {}
    occ: dict[str, list[tuple[int, int]]] = {}
    for fi, face in enumerate(faces):
        for name, exp in face:
            occ.setdefault(name, []).append((fi, exp))
    # union-find with parity on the face flip states
    parent = {fi: fi for fi in range(len(faces))}
    parity = {fi: 0 for fi in range(len(faces))}

    def find(x):
        if parent[x] == x:
            return x, 0
        root, par = find(parent[x])
        parent[x] = root
        parity[x] ^= par
        return root, parity[x]

    for name, occs in occ.items():
        if len(occs) != 2:
            continue
        (fa, ea), (fb, eb) = occs
        need = 1 if ea == eb else 0  # flips must differ iff exponents agree
        ra, pa = find(fa)
        rb, pb = find(fb)
        if ra == rb:
            if pa ^ pb != need:
                return False
        else:
            parent[ra] = rb
            parity[ra] = pa ^ pb ^ need
    return True


def _ref_exponents(word):
    """letter -> its exponents in word order: the word's first exponent pass."""
    exponents: dict[str, list[int]] = {}
    for name, exp in word.word:
        exponents.setdefault(name, []).append(exp)
    return exponents


def _ref_same_exponent(word, letter):
    exps = _ref_exponents(word).get(letter, ())
    return len(exps) == 2 and exps[0] == exps[1]


def _ref_gluing_word(word, boundary_letters):
    """GluingWord's first constructor, in three passes: (letters, one_sided) of
    an accepted word; a refused word raises its ValueError."""
    exponents: dict[str, list[int]] = {}  # letter -> its exponents, in word order
    for name, exp in word:
        if exp not in (1, -1):
            raise ValueError("exponents must be +-1")
        exponents.setdefault(name, []).append(exp)
    one_sided = 0
    for i, (name, exps) in enumerate(exponents.items()):
        expected = 1 if name in boundary_letters else 2
        if len(exps) != expected:
            raise ValueError(f"letter {name} occurs {len(exps)} times, expected {expected}")
        if expected == 2 and exps[0] == exps[1]:
            one_sided |= 1 << i
    absent = sorted(boundary_letters - exponents.keys())
    if absent:
        raise ValueError(f"boundary letter {', '.join(absent)} does not occur in the word")
    return list(exponents), one_sided


def _ref_orientation_double_cover(word):
    """(faces, boundary, edge_map, deck) of the cover."""
    eps = {g: 1 if _ref_same_exponent(word, g) else 0 for g in word.letters}

    def lifted_face(sheet: int):
        seen: dict[str, int] = {}
        out = []
        for name, exp in word.word:
            first = name not in seen
            if first:
                seen[name] = 1
                copy = sheet
            else:
                copy = sheet ^ eps[name]
            out.append((f"{name}^{copy}", exp))
        return tuple(out)

    faces = [lifted_face(0), lifted_face(1)]
    boundary = frozenset(f"{g}^{s}" for g in word.boundary_letters for s in (0, 1))
    edge_map = {f"{g}^{s}": g for g in word.letters for s in (0, 1)}
    deck = {f"{g}^{s}": f"{g}^{1 - s}" for g in word.letters for s in (0, 1)}
    return faces, boundary, edge_map, deck


def _ref_gf2_row_reduce(a):
    rows: dict[int, int] = {}  # pivot bit -> reduced row
    for vec in a:
        for bit, row in rows.items():
            if vec & bit:
                vec ^= row
        if vec:
            low = vec & -vec
            for bit, row in rows.items():
                if row & low:
                    rows[bit] = row ^ vec
            rows[low] = vec
    bits = sorted(rows)
    return [rows[b] for b in bits], [b.bit_length() - 1 for b in bits]


def _ref_solve_rows(rows, rhs, cols):
    """solve_rows's first version: the full reduced row echelon form of the
    augmented rows, the solution read off it with every free column 0."""
    reduced, pivots = gf2_row_reduce([row | (rhs >> i & 1) << cols
                                      for i, row in enumerate(rows)])
    if pivots and pivots[-1] == cols:
        return None
    return sum((row >> cols & 1) << p for row, p in zip(reduced, pivots))


def zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def ref_boundaries(cx) -> tuple[list[list[int]], list[list[int]]]:
    """Dense d1 and d2 of a complex, from the reference built on its cells."""
    ref = _RefPolygonComplex(cx.faces, cx.boundary_letters)
    return ref.d1(), ref.d2()


def sparse_rows(a: list[list[int]]) -> tuple[list[dict[int, int]], int]:
    """A matrix given by rows as _invariant_factors takes it: the rows as
    {column: value} of their nonzeros, and the width."""
    return [{j: e for j, e in enumerate(row) if e} for row in a], len(a[0]) if a else 0


def identity(n: int) -> list[list[int]]:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for ai, oi in zip(a, out):
        for k in compress(range(inner), ai):
            bk = b[k]
            for j in range(cols):
                oi[j] += ai[k] * bk[j]
    return out


def pack_rows(matrix):
    """Rows of an integer matrix, read mod 2, as ints: the dense reference
    for the rows homology packs straight from the cells."""
    return [sum(1 << j for j, e in enumerate(row) if e % 2) for row in matrix]


def _columns(a: list[list[int]]) -> list[dict[int, int]]:
    """A matrix given by rows as sparse columns: {row: value} of each column's nonzeros."""
    cols: list[dict[int, int]] = [{} for _ in range(len(a[0]) if a else 0)]
    for i, row in enumerate(a):
        for j in compress(range(len(row)), row):
            cols[j][i] = row[j]
    return cols


def _ref_apply(m: list[dict[int, int]], vec: dict[int, int]) -> dict[int, int]:
    """m * vec for m given as sparse columns and vec as {index: value}; the
    result may hold zeros where terms cancel."""
    out: dict[int, int] = {}
    for j, c in vec.items():
        for i, e in m[j].items():
            out[i] = out.get(i, 0) + e * c
    return out


def _row_step(m: list[list[int]], i: int, j: int, q: int | None):
    """Add q times row i of m to row j, or swap the two when q is None."""
    if q is None:
        m[i], m[j] = m[j], m[i]
    else:
        m[j] = [x + q * y for x, y in zip(m[j], m[i])]


def _column_step(m: list[list[int]], i: int, j: int, q: int | None):
    """Add q times column i of m to column j, or swap the two when q is None."""
    if q is None:
        for row in m:
            row[i], row[j] = row[j], row[i]
    else:
        for row in m:
            row[j] += q * row[i]


def _ref_dense_smith_normal_form(a: list[list[int]]):
    """U, D, V, U^-1 with U*a*V = D diagonal, divisibility chain, U and V
    unimodular: one elimination of a, each row step replayed onto U and undone
    on the columns of U^-1, each column step onto V."""
    d = [row[:] for row in a]
    rows, cols = len(d), len(d[0]) if d else 0
    u, v, u_inv = identity(rows), identity(cols), identity(rows)
    for on_rows, i, j, q in homology._eliminate(d):
        if on_rows:
            # a swap and the negation (t, t, -2) undo themselves; adding q
            # times i to j is undone by adding -q times j to i
            _row_step(u, i, j, q)
            _column_step(u_inv, *((i, j, q) if q is None or i == j else (j, i, -q)))
        else:
            _column_step(v, i, j, q)
    return u, d, v, u_inv


def dense_factors(a: list[list[int]]):
    """smith_normal_form(a) with its sparse factors written out as dense
    matrices: U is kept by rows, V and U^-1 by columns."""
    u, d, v, u_inv = smith_normal_form(a)
    rows, cols = len(u), len(v)

    def by_rows(vecs, n):
        return [[vec.get(j, 0) for j in range(n)] for vec in vecs]

    def by_columns(vecs, n):
        return [[vec.get(i, 0) for vec in vecs] for i in range(n)]

    return by_rows(u, rows), d, by_columns(v, cols), by_columns(u_inv, rows)


def _ref_smith_normal_form(a: list[list[int]]):
    """U, D, V with U*a*V = D diagonal, divisibility chain, U and V unimodular."""
    d = [row[:] for row in a]
    rows = len(d)
    cols = len(d[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # row dst += q * row src
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def pivot_at(t):
        # smallest |entry|, first in row-major order; no entry is below 1, so
        # the first unit entry is the one the full scan would pick
        best = None
        for i in range(t, rows):
            row = d[i]
            for j in range(t, cols):
                e = row[j]
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
                    if best[0] == 1:
                        return best
        return best

    t = 0
    while True:
        best = pivot_at(t)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                q = -(d[i][t] // d[t][t])
                add_row(t, i, q)
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j]:
                q = -(d[t][j] // d[t][t])
                add_col(t, j, q)
                if d[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders reappeared; repick the pivot at the same slot
        t += 1
        if t >= min(rows, cols):
            break

    # enforce the divisibility chain d[t] | d[t+1]
    changed = True
    while changed:
        changed = False
        for t in range(min(rows, cols) - 1):
            x, y = d[t][t], d[t + 1][t + 1]
            if x and y and y % x != 0:
                add_col(t + 1, t, 1)
                # euclidean steps inside the 2x2 block until d[t][t] = gcd(x, y)
                while d[t + 1][t]:
                    if abs(d[t + 1][t]) <= abs(d[t][t]):
                        add_row(t + 1, t, -(d[t][t] // d[t + 1][t]))
                        if d[t][t] == 0:
                            swap_rows(t, t + 1)
                    else:
                        add_row(t, t + 1, -(d[t + 1][t] // d[t][t]))
                # the gcd divides the whole block, so this clears the corner
                add_col(t, t + 1, -(d[t][t + 1] // d[t][t]))
                changed = True
    for t in range(min(rows, cols)):
        if d[t][t] < 0:
            for j in range(cols):
                d[t][j] = -d[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]
    return u, d, v


def _ref_factor(a: list[list[int]]):
    """(U, diagonal, V) of smith_normal_form(a), with U and V as sparse columns.

    The unimodular factors of the lattices here are near-permutations (about
    one nonzero entry per column), so products with them cost their nonzeros.
    """
    u, d, v, _ = _ref_dense_smith_normal_form(a)
    return _columns(u), [d[i][i] for i in range(min(len(u), len(v)))], _columns(v)


def _ref_back_substitute(factors, b: list[dict[int, int]]) -> list[dict[int, int]] | None:
    """The columns of X with a*X = b, given factors = _ref_factor(a) and b as
    sparse columns, or None: x = V * D^-1 * U * b, where each entry of U * b
    past the rank must vanish and each other must be divisible by its d_i."""
    u, diag, v = factors
    rank = len(diag)
    out = []
    for col in b:
        y = {}
        for i, e in _ref_apply(u, col).items():
            if e:
                di = diag[i] if i < rank else 0
                if di == 0 or e % di:
                    return None
                y[i] = e // di
        out.append({i: e for i, e in _ref_apply(v, y).items() if e})
    return out


class _RefH1Basis:
    """Canonical basis of H1(C) with coordinates for arbitrary 1-cycles.

    Generators are ordered free part first, then torsion (orders in the
    divisibility chain).  ``coordinates`` maps an integer 1-chain in the kernel
    of d1 to its (free, torsion) coordinate vector.  Each lattice is factored
    once per basis: the Smith form of the kernel lattice K serves the d2 solve
    and every ``coordinates`` call, and the generator matrix K * ux^-1 is built
    on the first ``representative`` call.  The factors, ux and the generators
    are kept as sparse columns, so a chain costs the nonzeros it meets.
    """

    def __init__(self, d1: list[list[int]], d2: list[list[int]]):
        n_edges = len(d2)
        if any(any(row) for row in mat_mul(d1, d2)):
            raise ValueError("d1 * d2 != 0")
        _, dd1, v1, _ = _ref_dense_smith_normal_form(d1)
        rank1 = sum(1 for i in range(min(len(dd1), n_edges)) if dd1[i][i])
        # the Smith diagonal is nonzero exactly up to the rank, so the v1 columns
        # past the rank span the kernel lattice (saturated, full column rank)
        kernel = [row[rank1:] for row in v1]
        k = n_edges - rank1
        self._n_edges = n_edges
        self._kernel = kernel  # by rows, until the generators are built
        # K has full column rank, so y with K * y = z is unique, whatever factors
        # find it.  K is factored with its rows (edges) in the order of their
        # first nonzero column: that puts a near-permutation's pivots on the
        # diagonal, so its Smith form swaps no columns.
        first = [next(compress(range(k), row), k) for row in kernel]
        order = sorted(range(n_edges), key=first.__getitem__)
        self._slot = {e: r for r, e in enumerate(order)}  # edge -> row of the factored K
        self._kernel_factors = _ref_factor([kernel[e] for e in order])
        self._generators = None

        x = _ref_back_substitute(self._kernel_factors, _columns([d2[e] for e in order]))
        if x is None:
            raise ValueError("image of d2 does not lie in the kernel of d1")
        ux, dx, _, _ = _ref_dense_smith_normal_form(
            [[col.get(i, 0) for col in x] for i in range(k)])
        # new kernel basis K' = K * ux^-1; coordinates of z: ux * solve(K, z)
        self._ux_rows = ux  # factored again by the first representative call
        self._ux = _columns(ux)
        n_diag = min(len(dx), len(dx[0]) if dx else 0)
        self.orders = [dx[i][i] if i < n_diag else 0 for i in range(k)]
        self.free_indices = [i for i, o in enumerate(self.orders) if o == 0]
        self.torsion_indices = [i for i, o in enumerate(self.orders) if o > 1]
        self.free_rank = len(self.free_indices)
        self.torsion = tuple(self.orders[i] for i in self.torsion_indices)

    def coordinates(self, chain: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if len(chain) != self._n_edges:
            raise ValueError(f"a 1-chain has {self._n_edges} entries, got {len(chain)}")
        z = {self._slot[j]: chain[j] for j in compress(range(len(chain)), chain)}
        y = _ref_back_substitute(self._kernel_factors, [z])
        if y is None:
            raise ValueError("chain is not a 1-cycle")
        c = _ref_apply(self._ux, y[0])
        free = tuple(map(c.get, self.free_indices, repeat(0)))
        tors = tuple(c.get(i, 0) % self.orders[i] for i in self.torsion_indices)
        return free, tors

    def representative(self, index: int) -> list[int]:
        """1-chain representing the index-th generator (free first, then torsion)."""
        if self._generators is None:
            # the columns of ux^-1 solve ux * X = I, one unit column each
            inv = _ref_back_substitute(_ref_factor(self._ux_rows),
                                       [{i: 1} for i in range(len(self._ux))])
            kernel = _columns(self._kernel)
            self._generators = [_ref_apply(kernel, col) for col in inv]
        chain = [0] * self._n_edges
        for e, c in self._generators[(self.free_indices + self.torsion_indices)[index]].items():
            chain[e] = c
        return chain


def _ref_homology_groups(cx):
    """The earlier homology_groups: the ranks and the torsion that H1Basis read
    off the Smith forms of d1, of the kernel lattice and of the d2 solve."""
    d1, d2 = cx.d1(), cx.d2()
    n_edges = len(d2)
    if any(any(row) for row in mat_mul(d1, d2)):
        raise ValueError("d1 * d2 != 0")
    _, dd1, v1, _ = _ref_dense_smith_normal_form(d1)
    rank1 = sum(1 for i in range(min(len(dd1), n_edges)) if dd1[i][i])
    kernel = [row[rank1:] for row in v1]
    k = n_edges - rank1
    first = [next(compress(range(k), row), k) for row in kernel]
    order = sorted(range(n_edges), key=first.__getitem__)
    x = _ref_back_substitute(_ref_factor([kernel[e] for e in order]),
                             _columns([d2[e] for e in order]))
    if x is None:
        raise ValueError("image of d2 does not lie in the kernel of d1")
    _, dx, _, _ = _ref_dense_smith_normal_form([[col.get(i, 0) for col in x] for i in range(k)])
    n_diag = min(len(dx), len(dx[0]) if dx else 0)
    orders = [dx[i][i] if i < n_diag else 0 for i in range(k)]
    free_rank = sum(1 for o in orders if o == 0)
    torsion = tuple(o for o in orders if o > 1)
    rank2 = sum(1 for o in orders if o)
    return GradedGroups((cx.vertex_count - rank1, ()),
                        (free_rank, torsion),
                        (len(cx.faces) - rank2, ()))


def _ref_b1_mod2(cx) -> int:
    """dim H1(X, Z2): H1's free rank plus its even torsion factors, by universal
    coefficients (H1(X, Z2) = H1 (x) Z2 (+) Tor(H0, Z2), and H0 is free)."""
    free, torsion = homology_groups(cx).h1
    return free + sum(1 for t in torsion if t % 2 == 0)


def _ref_z2_betti(cx):
    r1 = len(gf2_row_reduce(pack_rows(cx.d1()))[1])
    r2 = len(gf2_row_reduce(pack_rows(cx.d2()))[1])
    n0, n1, n2 = cx.vertex_count, len(cx.edges), len(cx.faces)
    return n0 - r1, n1 - r1 - r2, n2 - r2


def _ref_occurrence_positions(word, letter):
    return [i for i, (name, _) in enumerate(word.word) if name == letter]


def _ref_chord_gram_matrix(model):
    word = model.word
    letters = word.letters
    pos = {g: _ref_occurrence_positions(word, g) for g in letters}
    gram = [0] * len(letters)
    for i, g in enumerate(letters):
        a1, a2 = pos[g]
        if _ref_same_exponent(word, g):
            gram[i] |= 1 << i
        for j in range(i + 1, len(letters)):
            b1, b2 = pos[letters[j]]
            if (a1 < b1 < a2 < b2) or (b1 < a1 < b2 < a2):
                gram[i] |= 1 << j
                gram[j] |= 1 << i
    return letters, gram


def _ref_involution_node_map(tau, n):
    """Node permutation (arrays of indices) realizing tau on the grid."""
    import numpy as np

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


def _ref_rep_at(x, r, t):
    """Representation with the angle evaluated to t (array-valued allowed)."""
    import numpy as np

    c, s = np.cos(t), np.sin(t)
    if x.parity == EVEN:
        a, b = np.eye(2, dtype=complex), r.gamma1 @ r.gamma2
    else:
        a, b = r.gamma1, r.gamma2
    return c[..., None, None] * a + s[..., None, None] * b


def _ref_deck_action(s, lift, sign, r):
    """sign * rep(L(tau x)) s(tau x) through a stack of one 2x2 matrix a node
    (the sign, existence and descent checks are left out)."""
    import numpy as np

    tau = lift.involution
    n = s.size
    lift_at_tau = at(lift.lift, *tau_coordinate_forms(tau))
    angles = 2.0 * np.pi * np.arange(n) / n
    tt, pp = np.meshgrid(angles, angles, indexing="ij")
    mats = _ref_rep_at(lift_at_tau, r, lift_at_tau.angle.evaluate(tt, pp))
    ti, tj = _involution_node_map(tau, n)
    pulled = s.values[ti, tj]
    return PinorField(np.einsum("ijab,ijb->ija", mats, pulled)).scale(sign)


# the Clifford oracle, the Multivector operations under it and pin2.evaluate:
# every one builds its result through the validating Multivector constructor

@functools.cache
def _ref_sign_rows(sig):
    """Per left blade a, the row of signs s with e_a e_b = s e_(a xor b), built on first use."""
    return [None] * (1 << sig.n)


def _ref_sign_row(sig, a):
    """[_blade_sign(sig, a, b) for every blade b], from the twist masks."""
    return [-1 if (a & t).bit_count() & 1 else 1 for t in _twist_masks(sig)]


def _ref_geometric_product(a, b):
    """Clifford product with e_i e_j = -e_j e_i (i != j) and e_i^2 = metric."""
    a._check_same(b)
    sig = a.signature
    rows = _ref_sign_rows(sig)
    out = {}
    for ma, ca in a.coefficients.items():
        row = rows[ma]
        if row is None:
            row = rows[ma] = _ref_sign_row(sig, ma)
        for mb, cb in b.coefficients.items():
            mask = ma ^ mb
            out[mask] = out.get(mask, 0.0) + row[mb] * ca * cb
    return Multivector(sig, out)


def _ref_add(self, other):
    self._check_same(other)
    out = dict(self.coefficients)
    for m, c in other.coefficients.items():
        out[m] = out.get(m, 0.0) + c
    return Multivector(self.signature, out)


def _ref_sub(self, other):
    return self + (-1.0) * other


def _ref_rmul(self, scalar):
    return Multivector(
        self.signature, {m: scalar * c for m, c in self.coefficients.items()}
    )


def _ref_grade_involution(self):
    return Multivector(
        self.signature,
        {m: (-c if m.bit_count() & 1 else c) for m, c in self.coefficients.items()},
    )


def _ref_reverse(self):
    out = {}
    for m, c in self.coefficients.items():
        k = m.bit_count()
        out[m] = -c if (k * (k - 1) // 2) & 1 else c
    return Multivector(self.signature, out)


def _ref_grade_part(self, k):
    return Multivector(
        self.signature,
        {m: c for m, c in self.coefficients.items() if m.bit_count() == k},
    )


def _ref_sandwich(alpha_u, v, u_inv):
    """alpha(u) v u^-1 from a precomputed alpha(u) and u^-1, checked to be grade 1."""
    if not v.is_grade(1):
        raise ValueError("twisted adjoint acts on grade-1 elements")
    result = _ref_geometric_product(_ref_geometric_product(alpha_u, v), u_inv)
    if not result.is_grade(1, tol=1e-7 * max(1.0, result.norm())):
        raise ValueError("twisted adjoint did not preserve grade 1; u is not a versor")
    return result.grade_part(1)


def _ref_orthogonal_matrix(u):
    """Matrix of the twisted adjoint action on basis vectors (columnwise)."""
    import numpy as np

    value = u.value if isinstance(u, PinElement) else u
    sig = value.signature
    alpha_u, u_inv = value.grade_involution(), value.inverse()
    cols = [
        vector_part(_ref_sandwich(alpha_u, Multivector.basis_vector(sig, i), u_inv))
        for i in range(sig.n)
    ]
    return np.column_stack(cols)


def _ref_lift_orthogonal(M, sig):
    """The two Pin lifts (u, -u) of an orthogonal matrix M, via reflection factorization."""
    import numpy as np

    if sig.p != 0 and sig.q != 0:
        raise ValueError("lift_orthogonal expects signature (n, 0) or (0, n)")
    M = np.asarray(M, dtype=float)
    n = sig.n
    if M.shape != (n, n):
        raise ValueError("matrix size must match the signature")
    eye = np.eye(n)
    if not np.allclose(M.T @ M, eye, atol=1e-9):
        raise ValueError("matrix is not orthogonal within tolerance")

    work = M.copy()
    u = Multivector.scalar(sig, 1.0)
    factors = 0
    for _ in range(n + 1):
        deviations = np.linalg.norm(work - eye, axis=0)
        k = int(np.argmax(deviations))  # lowest index wins exact ties
        if deviations[k] <= 1e-12:
            break
        v = work[:, k] - eye[:, k]
        v = v / np.linalg.norm(v)
        work = (eye - 2.0 * np.outer(v, v)) @ work
        u = _ref_geometric_product(u, Multivector.from_vector(sig, v))
        factors += 1
    else:
        raise ValueError("reflection factorization failed to terminate")

    if _canonical_sign(u) < 0:
        u = -u
    parity = "even" if factors % 2 == 0 else "odd"
    first = PinElement(u, parity, factors)
    return first, -first


def _ref_evaluate(x, theta0=0.0, phi0=0.0):
    """Numeric multivector in Cl(2,0) (pin+) or Cl(0,2) (pin-)."""
    sig = Signature(2, 0) if x.kind == PIN_PLUS else Signature(0, 2)
    t = x.angle.evaluate(theta0, phi0)
    if x.parity == EVEN:
        return Multivector(sig, {0: math.cos(t), 0b11: math.sin(t)})
    return Multivector(sig, {0b01: math.cos(t), 0b10: math.sin(t)})


def _ref_flatten(node, prefix=""):
    """(dotted key, leaf) rows; an empty list or dict is one row of its own,
    so a table or csv shows every key the json has."""
    if isinstance(node, (dict, list)) and node:
        for k, item in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _ref_flatten(item, f"{prefix}{k}.")
    else:
        yield prefix.rstrip("."), node


def _ref_to_table(report):
    lines = [f"# {report.command}"]
    if report.anchor:
        lines.append(f"# anchor: {report.anchor}")
    for k, v in report.inputs.items():
        lines.append(f"# {k} = {v}")
    rows = list(_ref_flatten(_convert(report.results)))
    width = max((len(k) for k, _ in rows), default=0)
    for key, value in rows:
        lines.append(f"{key.ljust(width)}  {value}")
    return "\n".join(lines) + "\n"


def _ref_to_csv(report):
    lines = ["key,value"]
    for key, value in _ref_flatten(_convert(report.results)):
        text = str(value).replace('"', '""')
        lines.append(f'"{key}","{text}"')
    return "\n".join(lines) + "\n"


def _ref_random_multivector(rng, sig):
    masks = rng.integers(0, 1 << sig.n, size=4)
    return Multivector(sig, {int(m): float(c) for m, c in zip(masks, rng.normal(size=4))})


# ---------------------------------------------------------------------------
# inputs


FAMILY_WORDS = {f"{family}-{g}": GluingWord(tuple(canonical_word(family, g)))
                for g in range(17) for family in ("sigma", "n1", "n2")
                if g or family != "sigma"}


@st.composite
def gluing_faces(draw, max_letters=9, max_boundary=4, max_faces=4):
    """(faces, boundary letters): every interior letter occurs twice and every
    boundary letter once, in random order and with random exponents, cut into
    up to max_faces faces (a face may be empty)."""
    interior = [f"e{i}" for i in range(draw(st.integers(0, max_letters)))]
    boundary = [f"b{i}" for i in range(draw(st.integers(0, max_boundary)))]
    names = draw(st.permutations(interior * 2 + boundary))
    occs = [(name, draw(st.sampled_from((1, -1)))) for name in names]
    cuts = sorted(draw(st.lists(st.integers(0, len(occs)), max_size=max_faces - 1)))
    bounds = [0, *cuts, len(occs)]
    faces = [tuple(occs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return faces, frozenset(boundary)


def closed_words():
    """One-face gluing words in which every letter occurs twice."""
    return gluing_faces(max_boundary=0, max_faces=1).filter(
        lambda fb: fb[0][0]).map(lambda fb: GluingWord(fb[0][0]))


def triangulated_grid(m: int, klein: bool) -> list[tuple[tuple[str, int], ...]]:
    """The faces of the m x m square grid on the torus, or on the Klein bottle,
    each square cut into two triangles along its diagonal, in a shuffled order.

    Vertex (i, j) of the square [0, m]^2 is (i mod m, j mod m) on the torus;
    the Klein bottle glues its top side to its bottom reversed, (i, m) to
    (m - i, 0).  A diagonal lies inside its square and is glued to nothing.
    """
    def h(i, j):  # the edge (i, j) -> (i + 1, j)
        if j < m:
            return f"h{i},{j}", 1
        return (f"h{m - 1 - i},0", -1) if klein else (f"h{i},0", 1)

    def v(i, j):  # the edge (i, j) -> (i, j + 1)
        return f"v{i % m},{j}", 1

    def inverse(occ):
        return occ[0], -occ[1]

    faces = []
    for i in range(m):
        for j in range(m):
            d = f"d{i},{j}", 1  # the edge (i, j) -> (i + 1, j + 1)
            faces.append((h(i, j), v(i + 1, j), inverse(d)))
            faces.append((d, inverse(h(i, j + 1)), inverse(v(i, j))))
    random.Random(f"{m}/{klein}").shuffle(faces)
    return faces


GRIDS = {f"{'k2' if klein else 't2'}-{m}x{m}": (klein, triangulated_grid(m, klein))
         for m in range(2, 9) for klein in (False, True)}


def model_of(word):
    return SurfaceModel("w", FAMILY_ONLY, word, _ref_is_orientable([word.word]), 0)


# ---------------------------------------------------------------------------
# PolygonComplex


def assert_same_complex(faces, boundary=frozenset()):
    cx = PolygonComplex(faces, boundary)
    ref = _RefPolygonComplex(faces, boundary)
    assert cx.edges == ref.edges
    assert list(cx.edge_index.items()) == list(ref.edge_index.items())
    assert cx.vertex_count == ref.vertex_count
    assert list(cx.edge_ends.items()) == list(ref.edge_ends.items())


def assert_same_cover(word):
    cover = orientation_double_cover_complex(word)
    faces, boundary, edge_map, deck = _ref_orientation_double_cover(word)
    assert cover.total.faces == faces
    assert cover.total.boundary_letters == boundary
    assert list(cover.edge_map.items()) == list(edge_map.items())
    assert list(cover.deck_edge_map.items()) == list(deck.items())
    assert_same_complex(faces, boundary)


@settings(max_examples=300, deadline=None)
@given(gluing_faces())
def test_complex_matches_reference_on_random_gluings(fb):
    faces, boundary = fb
    assert_same_complex(faces, boundary)


@pytest.mark.parametrize("word", FAMILY_WORDS.values(), ids=list(FAMILY_WORDS))
def test_complex_and_cover_match_reference_on_families(word):
    assert_same_complex([word.word], word.boundary_letters)
    assert_same_cover(word)
    for i in range(2):
        relabelled = relabel(list(word.word), random.Random(f"{word.word}/{i}"), "q")
        assert_same_cover(GluingWord(tuple(relabelled)))


@settings(max_examples=200, deadline=None)
@given(gluing_faces(max_faces=1))
def test_cover_matches_reference_on_random_words(fb):
    faces, boundary = fb
    assert_same_cover(GluingWord(faces[0], boundary))


# ---------------------------------------------------------------------------
# homology_groups and b1_mod2


def assert_same_boundaries(cx):
    """The one corner pass's face sums and packed face rows against the walks
    of the faces by letter name, on a reference complex built from the same
    cells (assert_same_complex compares the edge ends, d1)."""
    ref = _RefPolygonComplex(cx.faces, cx.boundary_letters)
    # the face sums, a cancelling letter's 0 kept, are d2 by faces
    d2 = ref.d2()
    assert [[sums.get(j, 0) for j in range(len(cx.edges))] for sums in cx._face_sums] == [
        [row[f] for row in d2] for f in range(len(cx.faces))]
    assert cx._d2_rows == tuple(_ref_packed_boundaries(ref)[1])
    # homology_groups factors d2's transpose, the reference d2 itself
    assert homology_groups(cx) == _ref_factor_homology_groups(ref)


def dense_chain(chain: dict[int, int], n_edges: int) -> list[int]:
    """A sparse 1-chain {edge: coefficient} as the list of its n_edges entries."""
    return [chain.get(e, 0) for e in range(n_edges)]


def assert_same_homology(cx):
    assert_same_boundaries(cx)
    ref_cx = _RefPolygonComplex(cx.faces, cx.boundary_letters)
    groups = homology_groups(cx)
    assert groups == _ref_homology_groups(ref_cx)
    # the GF(2) rank count against the universal-coefficient count and the
    # GF(2) basis
    assert b1_mod2(cx) == _ref_b1_mod2(cx) == len(h1_z2_basis(cx)[0]) == _ref_z2_betti(ref_cx)[1]
    # the Smith factors of the boundary maps and H1Basis's kernel lattice are
    # two independent integral paths to H1: H1Basis reads the complex, the
    # reference the dense boundaries of its own complex
    d1, d2 = ref_cx.d1(), ref_cx.d2()
    basis, ref = H1Basis(cx), _RefH1Basis(d1, d2)
    assert (basis.free_rank, basis.torsion) == groups.h1
    assert basis.orders == ref.orders
    n_edges = len(cx.edges)
    n = basis.free_rank + len(basis.torsion)
    representatives = [basis.representative(i) for i in range(n)]
    assert all(0 not in chain.values() for chain in representatives)
    assert [dense_chain(chain, n_edges) for chain in representatives] == [
        ref.representative(i) for i in range(n)]
    for chain in representatives:
        assert basis.coordinates(chain) == ref.coordinates(dense_chain(chain, n_edges))
    for e in range(n_edges):
        chain = [int(j == e) for j in range(n_edges)]
        if any(row[e] for row in d1):
            with pytest.raises(ValueError, match="not a 1-cycle"):
                basis.coordinates({e: 1})
            with pytest.raises(ValueError, match="not a 1-cycle"):
                ref.coordinates(chain)
        else:
            assert basis.coordinates({e: 1}) == ref.coordinates(chain)
    # the GF(2) face rows packed from the cells are the dense d2 mod 2
    d2_by_face = [[row[f] for row in d2] for f in range(len(cx.faces))]
    assert cx._d2_rows == tuple(pack_rows(d2_by_face))


@settings(max_examples=300, deadline=None)
@given(gluing_faces())
def test_homology_matches_reference_on_random_gluings(fb):
    faces, boundary = fb
    assert_same_homology(PolygonComplex(faces, boundary))


@pytest.mark.parametrize("word", FAMILY_WORDS.values(), ids=list(FAMILY_WORDS))
def test_homology_matches_reference_on_family_bases_and_covers(word):
    assert_same_homology(word.complex)
    assert_same_homology(orientation_double_cover_complex(word).total)


# ---------------------------------------------------------------------------
# rank d1 = V - c


@st.composite
def disconnected_gluings(draw):
    """Up to three gluings of gluing_faces on disjoint letters, side by side,
    with up to two empty faces put in among them."""
    faces, boundary = [], set()
    for part in range(draw(st.integers(1, 3))):
        part_faces, part_boundary = draw(gluing_faces(max_letters=5, max_boundary=2, max_faces=3))
        faces += [tuple((f"p{part}{name}", exp) for name, exp in face) for face in part_faces]
        boundary |= {f"p{part}{name}" for name in part_boundary}
    for _ in range(draw(st.integers(0, 2))):
        faces.insert(draw(st.integers(0, len(faces))), ())
    return faces, frozenset(boundary)


def kruskal_forest(cx) -> set[int]:
    """The edges of the lowest-index-first spanning forest of the 1-skeleton,
    by a union-find over the edge ends in edge order."""
    root = list(range(cx.vertex_count))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    forest = set()
    for e, (t, h) in enumerate(cx.edge_ends.values()):
        a, b = find(t), find(h)
        if a != b:
            root[a] = b
            forest.add(e)
    return forest


def assert_rank_d1_is_vertices_minus_components(cx):
    rank = cx.vertex_count - cx.component_count
    d1 = ref_boundaries(cx)[0]
    assert cx.component_count == cx.vertex_count - len(kruskal_forest(cx))
    assert rank == len(nonzero_diagonal(_ref_smith_normal_form(d1)[1]))
    assert rank == len(gf2_row_reduce(pack_rows(d1))[1])
    assert homology_groups(cx).h0 == (cx.component_count, ())


@settings(max_examples=200, deadline=None)
@given(st.one_of(gluing_faces(), disconnected_gluings()))
def test_rank_d1_is_vertices_minus_components(fb):
    faces, boundary = fb
    cx = PolygonComplex(faces, boundary)
    assert_rank_d1_is_vertices_minus_components(cx)
    assert_same_boundaries(cx)


@pytest.mark.parametrize("faces, c", [
    ([(("a", 1), ("a", -1))], 1),  # two vertices on one face
    ([(("a", 1), ("a", 1))], 1),
    ([()], 0),  # a face with no letters is left out
    ([(("a", 1), ("a", -1)), (("b", 1), ("b", 1))], 2),  # no letter in common
    ([(), (("a", 1), ("a", -1)), (("b", 1), ("b", 1)), ()], 2),
    ([(("a", 1), ("a", -1)), (("b", 1), ("c", 1)), (("c", -1), ("b", -1))], 2),
    ([(("a", 1), ("b", 1)), (("c", 1), ("c", 1)), (("b", -1), ("a", -1), ("d", 1)), (("d", -1),)],
     2),  # the first, third and fourth face are joined through b and d
])
def test_components_of_hand_made_complexes(faces, c):
    cx = PolygonComplex(faces)
    assert cx.component_count == c
    assert_rank_d1_is_vertices_minus_components(cx)


@pytest.mark.parametrize("word", FAMILY_WORDS.values(), ids=list(FAMILY_WORDS))
def test_rank_d1_on_family_bases_and_covers(word):
    # the cover of an orientable surface is two copies of it
    total = orientation_double_cover_complex(word).total
    assert (word.complex.component_count, total.component_count) == (
        1, 2 if _ref_is_orientable([word.word]) else 1)
    for cx in (word.complex, total):
        assert_rank_d1_is_vertices_minus_components(cx)


@pytest.mark.parametrize("klein, faces", GRIDS.values(), ids=list(GRIDS))
def test_grids_are_tori_and_klein_bottles(klein, faces):
    cx = PolygonComplex(faces)
    squares = len(faces) // 2
    assert (cx.vertex_count, len(cx.edges), cx.component_count) == (squares, 3 * squares, 1)
    h1 = (1, (2,)) if klein else (2, ())
    basis = H1Basis(cx)
    assert homology_groups(cx).h1 == (basis.free_rank, basis.torsion) == h1
    assert_rank_d1_is_vertices_minus_components(cx)


# ---------------------------------------------------------------------------
# the spanning-forest cycles: d1's Smith kernel and its GF(2) nullspace


def assert_cycle_basis_is_the_smith_kernel(cx):
    """_cycle_basis against the V columns past the rank of d1's Smith form, in
    order: value for value against the dense replay, and item for item against
    the sparse factor; its tree edges are the lowest-index-first forest, and
    its cycles mod 2, by ascending cotree edge, are d1's GF(2) nullspace."""
    d1, n = ref_boundaries(cx)[0], len(cx.edges)
    _, d, v, _ = _ref_dense_smith_normal_form(d1)
    rank = len(nonzero_diagonal(d))
    basis = homology._cycle_basis(cx)
    assert list(basis.values()) == [{e: row[k] for e, row in enumerate(v) if row[k]}
                                    for k in range(rank, n)]
    assert [list(cycle.items()) for cycle in basis.values()] == [
        list(column.items()) for column in smith_normal_form(d1)[2][rank:]]
    tree = kruskal_forest(cx)
    assert set(range(n)) - basis.keys() == tree
    for e, cycle in basis.items():  # a cotree edge once, on its own cycle
        assert cycle[e] == 1 and cycle.keys() - {e} <= tree
    assert [sum(1 << e for e in basis[k]) for k in sorted(basis)] == nullspace_rows(
        pack_rows(d1), n)


@settings(max_examples=300, deadline=None)
@given(st.one_of(gluing_faces(), disconnected_gluings()))
# two vertices, where the elimination's cotree order is not ascending
@example(([(), (("e2", -1),), (("e0", 1), ("e2", -1)), (("e0", 1), ("e1", 1), ("e1", -1))],
          frozenset()))
def test_cycle_basis_is_the_smith_kernel_on_random_gluings(fb):
    faces, boundary = fb
    assert_cycle_basis_is_the_smith_kernel(PolygonComplex(faces, boundary))


@pytest.mark.parametrize("klein, faces", GRIDS.values(), ids=list(GRIDS))
def test_cycle_basis_is_the_smith_kernel_on_grids(klein, faces):
    assert_cycle_basis_is_the_smith_kernel(PolygonComplex(faces))


@pytest.mark.parametrize("word", FAMILY_WORDS.values(), ids=list(FAMILY_WORDS))
def test_cycle_basis_is_the_smith_kernel_on_family_bases_and_covers(word):
    relabelled = (relabel(list(word.word), random.Random(f"{word.word}/{i}"), "q")
                  for i in range(2))
    for w in (word, *map(GluingWord, map(tuple, relabelled))):
        assert_cycle_basis_is_the_smith_kernel(w.complex)
        assert_cycle_basis_is_the_smith_kernel(orientation_double_cover_complex(w).total)


# ---------------------------------------------------------------------------
# GluingWord's exponent pass: its checks and the one-sided letters


@st.composite
def any_words(draw):
    """Words on up to five letters, each occurring 0 to 3 times, with an
    occasional exponent other than +-1, and boundary letters drawn from the
    letters and from two that never occur."""
    letters = [f"l{i}" for i in range(draw(st.integers(0, 5)))]
    names = draw(st.permutations([g for g in letters for _ in range(draw(st.integers(0, 3)))]))
    exponents = st.sampled_from((1, -1, 1, -1, 1, -1, 0, 2))
    word = tuple((name, draw(exponents)) for name in names)
    boundary = frozenset(draw(st.lists(st.sampled_from([*letters, "x", "y"]), max_size=3)))
    return word, boundary


@settings(max_examples=400, deadline=None)
@given(st.one_of(any_words(), gluing_faces(max_faces=1).map(lambda fb: (fb[0][0], fb[1]))))
@example(((("a", 1), ("a", 1), ("a", 0)), frozenset()))  # a zero exponent at a closed letter
@example(((("a", 1), ("a", -1), ("a", 1)), frozenset()))  # a third occurrence
@example(((("a", 1), ("a", 1), ("b", 1)), frozenset()))  # a letter left open
@example(((("a", 1), ("b", 1), ("b", 1)), frozenset("ab")))  # a boundary letter closed
@example(((("a", 1), ("a", 2)), frozenset()))  # a bad exponent second
@example(((("a", 1), ("a", -1)), frozenset("z")))  # a boundary letter absent
@example(((("b", 1), ("a", 1), ("a", 1), ("a", 1), ("c", 1)), frozenset("b")))
def test_gluing_word_matches_reference(wb):
    word, boundary = wb
    try:
        want = _ref_gluing_word(word, boundary)
    except ValueError as refused:
        with pytest.raises(ValueError) as caught:
            GluingWord(word, boundary)
        assert str(caught.value) == str(refused)
        return
    w = GluingWord(word, boundary)
    assert (w.word, w.boundary_letters) == (word, boundary)
    assert (w.letters, w.one_sided) == want
    assert w._index == dict(zip(w.letters, range(len(w.letters))))


# ---------------------------------------------------------------------------
# smith_normal_form and the invariant factors


def nonzero_diagonal(d):
    return [row[i] for i, row in enumerate(d) if i < len(row) and row[i]]


def assert_same_smith_form(a):
    # all five factors against the dense replay of the same steps, and U, D
    # and V against the first elimination too
    factors = dense_factors(a)
    assert factors == _ref_dense_smith_normal_form(a)
    assert factors[:3] == _ref_smith_normal_form(a)
    assert _invariant_factors(*sparse_rows(a)) == nonzero_diagonal(factors[1])


@pytest.mark.parametrize("word", FAMILY_WORDS.values(), ids=list(FAMILY_WORDS))
def test_smith_form_matches_reference_on_family_matrices(word, monkeypatch):
    # every matrix the layer factors: d1 and d2 of the base and the cover, and
    # what H1Basis hands to smith_normal_form (d2's rows at the cotree edges,
    # d2 in the kernel basis, the one dense input it builds)
    seen = []
    original = homology.smith_normal_form

    def recording(a):
        seen.append([row[:] for row in a])
        return original(a)

    monkeypatch.setattr(homology, "smith_normal_form", recording)
    for cx in (word.complex, orientation_double_cover_complex(word).total):
        seen += ref_boundaries(cx)
        basis = H1Basis(cx)
        if basis.free_rank or basis.torsion:
            basis.representative(0)
    monkeypatch.undo()
    for a in seen:
        assert_same_smith_form(a)


def test_smith_form_matches_reference_on_random_matrices():
    # D is unique, so it matches the first elimination on every matrix; U and
    # V match it wherever its divisibility pass does not fire.  All five
    # factors match the dense replay of the same steps.
    rng = random.Random(18)
    for _ in range(600):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        factors = dense_factors(a)
        assert factors == _ref_dense_smith_normal_form(a)
        assert factors[1] == _ref_smith_normal_form(a)[1]
        assert _invariant_factors(*sparse_rows(a)) == nonzero_diagonal(factors[1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(-40, 40)), min_size=1, max_size=10))
def test_one_row_invariant_factors_match_the_elimination(row):
    # one row, which is the whole of d2's transpose for a one-face word: its
    # factor is the gcd of its entries, what the elimination leaves at (0, 0)
    d = [row[:]]
    for _ in homology._eliminate(d):
        pass
    assert _invariant_factors(*sparse_rows([row])) == nonzero_diagonal(d)
    assert _invariant_factors(*sparse_rows([row])) == nonzero_diagonal(
        _ref_smith_normal_form([row])[1])
    # a face's sums keep a cancelling letter's 0: the gcd reads past it
    assert _invariant_factors([dict(enumerate(row))], len(row)) == nonzero_diagonal(d)


@pytest.mark.parametrize("row, factors", [
    ([0], []), ([0, 0, 0], []), ([], []), ([-6], [6]), ([0, -4, 6, 0], [2]), ([-3, -3], [3]),
    ([5, 0, -7], [1]),
])
def test_one_row_invariant_factors_on_fixed_rows(row, factors):
    assert _invariant_factors(*sparse_rows([row])) == factors
    assert _invariant_factors([dict(enumerate(row))], len(row)) == factors


# ---------------------------------------------------------------------------
# gf2_row_reduce


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 80).flatmap(lambda cols: st.lists(
    st.integers(0, (1 << cols) - 1), max_size=40)))
def test_gf2_row_reduce_matches_reference(rows):
    assert gf2_row_reduce(rows) == _ref_gf2_row_reduce(rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1 << 70), min_size=1, max_size=12), st.data())
def test_gf2_row_reduce_matches_reference_on_dependent_rows(basis, data):
    # XORs of a few basis rows: many incoming rows reduce to zero
    picks = data.draw(st.lists(st.lists(st.sampled_from(basis), max_size=4), max_size=30))
    rows = basis + [functools.reduce(operator.xor, p, 0) for p in picks]
    assert gf2_row_reduce(rows) == _ref_gf2_row_reduce(rows)


# solve_rows


@st.composite
def gf2_systems(draw):
    """(rows, rhs, cols): random rows, or XORs of a few basis rows (rank
    deficient), with a random rhs (often inconsistent) or one in the image."""
    cols = draw(st.integers(0, 70))
    row = st.integers(0, (1 << cols) - 1)
    rows = draw(st.lists(row, max_size=30))
    if rows and draw(st.booleans()):
        picks = draw(st.lists(st.lists(st.sampled_from(rows), max_size=4), max_size=30))
        rows = rows[:draw(st.integers(1, len(rows)))] + [
            functools.reduce(operator.xor, p, 0) for p in picks]
        rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        x = draw(row)
        rhs = sum(((r & x).bit_count() & 1) << i for i, r in enumerate(rows))
    else:
        rhs = draw(st.integers(0, (1 << len(rows)) - 1)) if rows else 0
    return rows, rhs, cols


@settings(max_examples=400, deadline=None)
@given(gf2_systems())
def test_solve_rows_matches_reference(system):
    rows, rhs, cols = system
    x = solve_rows(rows, rhs, cols)
    assert x == _ref_solve_rows(rows, rhs, cols)
    if x is not None:
        assert all((r & x).bit_count() & 1 == rhs >> i & 1 for i, r in enumerate(rows))


# ---------------------------------------------------------------------------
# chord_gram_matrix


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(FAMILY_WORDS.values())), st.integers(0, 2 ** 32))
def test_chord_form_matches_reference_on_relabelled_families(word, seed):
    relabelled = GluingWord(tuple(relabel(list(word.word), random.Random(seed), "h")))
    model = model_of(relabelled)
    assert chord_gram_matrix(model) == _ref_chord_gram_matrix(model)


@settings(max_examples=300, deadline=None)
@given(closed_words())
def test_chord_form_matches_reference_on_random_closed_words(word):
    model = model_of(word)
    assert chord_gram_matrix(model) == _ref_chord_gram_matrix(model)


# ---------------------------------------------------------------------------
# the pinor grid's node map

# the moebius diagram's tau3 is the cylinder double's involution itself
GRID_INVOLUTIONS = {
    "k2-deck": orientation_double_cover(build("k2")).deck,
    "tau3": double(build("cyl")).tau,
    "tau4": cover_diagram(build("moebius")).tau4,
}


@pytest.mark.parametrize("n", [2, 4, 6, 16, 32])
@pytest.mark.parametrize("name", GRID_INVOLUTIONS)
def test_node_map_matches_reference(name, n):
    import numpy as np

    tau = GRID_INVOLUTIONS[name]
    got, want = _involution_node_map(tau, n), _ref_involution_node_map(tau, n)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 3, 5, 15])
@pytest.mark.parametrize("name", ["k2-deck", "tau4"])
def test_node_map_refuses_an_odd_grid_under_a_half_turn_shift(name, n):
    tau = GRID_INVOLUTIONS[name]
    for node_map in (_involution_node_map, _ref_involution_node_map):
        with pytest.raises(ValueError, match="even size"):
            node_map(tau, n)


# the Klein deck and tau4 lifts of the four torus structures of each kind:
# every one is odd, and both squares occur
DECK_LIFTS = {f"{tau.name}-{xi.label}-{kind}": lift_involution(xi, tau)
              for tau in (GRID_INVOLUTIONS["k2-deck"], GRID_INVOLUTIONS["tau4"])
              for kind in KINDS for xi in enumerate_structures(build("t2"), kind)}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [2, 8, 32])
@pytest.mark.parametrize("name", DECK_LIFTS)
def test_deck_action_matches_the_matrix_stack_reference(name, n, sign):
    lift = DECK_LIFTS[name]
    s = PinorField.random(n, np.random.default_rng(n))
    got = _deck_action(s, lift, sign).values
    want = _ref_deck_action(s, lift, sign, GammaRep.standard(lift.structure.kind)).values
    # bytes too, so a signed zero that moved would show
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the Clifford oracle and pin2.evaluate


def signatures(max_n=6):
    return st.integers(0, max_n).flatmap(
        lambda n: st.integers(0, n).map(lambda p: Signature(p, n - p)))


@st.composite
def multivectors(draw, sig, max_terms=10):
    """Random sparse multivectors; small integer coefficients make exact
    cancellations, so zeros are dropped mid-product."""
    masks = draw(st.lists(st.integers(0, (1 << sig.n) - 1), max_size=max_terms))
    coefficient = st.one_of(st.integers(-3, 3).map(float),
                            st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))
    coeffs = draw(st.lists(coefficient, min_size=len(masks), max_size=len(masks)))
    return Multivector(sig, dict(zip(masks, coeffs)))


def assert_same_multivector(got, want):
    assert got.signature == want.signature
    assert list(got.coefficients.items()) == list(want.coefficients.items())
    assert all(type(c) is float for c in got.coefficients.values())


@settings(max_examples=300, deadline=None)
@given(signatures(), st.data())
def test_geometric_product_matches_reference(sig, data):
    a, b = data.draw(multivectors(sig)), data.draw(multivectors(sig))
    want = _ref_geometric_product(a, b)
    assert_same_multivector(geometric_product(a, b), want)
    assert_same_multivector(a * b, want)


@settings(max_examples=300, deadline=None)
@given(signatures(), st.data(),
       st.sampled_from([2, -1.0, 0.5, 0.0, 1e-300, np.float64(-0.1)]))
def test_linear_operations_and_involutions_match_reference(sig, data, scalar):
    a, b = data.draw(multivectors(sig)), data.draw(multivectors(sig))
    assert_same_multivector(a + b, _ref_add(a, b))
    assert_same_multivector(a - b, _ref_add(a, _ref_rmul(b, -1.0)))
    assert_same_multivector(-a, _ref_rmul(a, -1.0))
    assert_same_multivector(scalar * a, _ref_rmul(a, scalar))
    assert_same_multivector(a.grade_involution(), _ref_grade_involution(a))
    assert_same_multivector(a.reverse(), _ref_reverse(a))
    for k in range(sig.n + 1):
        assert_same_multivector(a.grade_part(k), _ref_grade_part(a, k))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32), st.booleans(), st.booleans())
def test_lift_and_orthogonal_matrix_match_reference(n, seed, signed_permutation, negative):
    # signed permutations have exact entries and tied column deviations
    rng = np.random.default_rng(seed)
    if signed_permutation:
        m = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)
    else:
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        m = q * np.sign(np.diag(r))
    sig = Signature(0, n) if negative else Signature(n, 0)
    got, want = lift_orthogonal(m, sig), _ref_lift_orthogonal(m, sig)
    for g, w in zip(got, want):
        assert (g.parity, g.factor_count) == (w.parity, w.factor_count)
        assert_same_multivector(g.value, w.value)
    assert np.array_equal(orthogonal_matrix(got[0]), _ref_orthogonal_matrix(want[0]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KINDS), st.sampled_from([EVEN, ODD]),
       st.tuples(*[st.fractions(-4, 4, max_denominator=4)] * 3),
       st.floats(0, 7), st.floats(0, 7))
def test_pin2_evaluate_matches_reference(kind, parity, coefficients, theta0, phi0):
    x = Pin2Element(kind, parity, angle(*coefficients))
    assert_same_multivector(evaluate(x, theta0, phi0), _ref_evaluate(x, theta0, phi0))
    assert_same_multivector(evaluate(x), _ref_evaluate(x))


# criterion 10's details at seeds 0 and 7; a reordered sum moves them
PROPERTY_SUITE_DETAILS = {
    0: "max deviations: associativity=5.5e-15, metric=2.2e-15, lift_round_trip=7.2e-16,"
       " evaluate_hom=4.7e-16, projector=1.2e-15, couple=9.5e-16",
    7: "max deviations: associativity=4.3e-15, metric=1.8e-15, lift_round_trip=7.8e-16,"
       " evaluate_hom=5.6e-16, projector=1.3e-15, couple=9.2e-16",
}


@pytest.mark.parametrize("seed", sorted(PROPERTY_SUITE_DETAILS))
def test_property_suites_are_unchanged_under_the_reference_kernels(seed, monkeypatch):
    assert check_property_suites(seed) == (True, PROPERTY_SUITE_DETAILS[seed])
    for module, name, ref in [
        (clifford, "geometric_product", _ref_geometric_product),
        (clifford, "_sandwich", _ref_sandwich),
        (clifford, "orthogonal_matrix", _ref_orthogonal_matrix),
        (clifford, "lift_orthogonal", _ref_lift_orthogonal),
        (pin2, "evaluate", _ref_evaluate),
        (acceptance, "geometric_product", _ref_geometric_product),
        (acceptance, "_sandwich", _ref_sandwich),
        (acceptance, "orthogonal_matrix", _ref_orthogonal_matrix),
        (acceptance, "lift_orthogonal", _ref_lift_orthogonal),
        (acceptance, "evaluate", _ref_evaluate),
        (acceptance, "_random_multivector", _ref_random_multivector),
        (Multivector, "__add__", _ref_add),
        (Multivector, "__sub__", _ref_sub),
        (Multivector, "__rmul__", _ref_rmul),
        (Multivector, "grade_involution", _ref_grade_involution),
        (Multivector, "reverse", _ref_reverse),
        (Multivector, "grade_part", _ref_grade_part),
    ]:
        monkeypatch.setattr(module, name, ref)
    assert check_property_suites(seed) == (True, PROPERTY_SUITE_DETAILS[seed])


# ---------------------------------------------------------------------------
# the report walk behind table and csv

# keys that end in a dot, or are empty, are where the recursive walk's
# rstrip(".") shows
_json_leaves = st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=3))
_json_keys = st.one_of(st.sampled_from(["a", "b.", "", ".", "c.d", "e.."]), st.text(max_size=2))
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_json_keys, inner, max_size=3),
    max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(_json_values)
def test_flatten_matches_the_recursive_walk(node):
    assert list(_flatten(node)) == list(_ref_flatten(node))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_json_keys, _json_values, max_size=4), st.sampled_from(["", "tables/x"]))
def test_table_and_csv_match_the_recursive_walk(results, anchor):
    report = Report("cmd", {"surface": "k2", "seed": 0}, results, anchor)
    assert report.to_table() == _ref_to_table(report)
    assert report.to_csv() == _ref_to_csv(report)


@pytest.mark.parametrize("word", [FAMILY_WORDS["n2-3"], FAMILY_WORDS["sigma-2"]],
                         ids=["n2-3", "sigma-2"])
def test_table_and_csv_match_the_recursive_walk_on_covermaps(word):
    maps = induced_maps(orientation_double_cover_complex(word))
    report = Report("covermaps", {"surface": "w"}, {"maps": maps.push_z, "k": maps.splitting_k,
                                                    "kernel": maps.kernel_pull.tolist()})
    assert report.to_table() == _ref_to_table(report)
    assert report.to_csv() == _ref_to_csv(report)
