"""Integral and mod-2 homology of polygon complexes, with induced maps of covers.

Chain complexes come from gluing words (one 2-cell per word); vertices are
computed by chasing polygon corners through the edge identifications.  The
orientation double cover is built mechanically - two copies of every cell,
attached with a sheet swap across every edge whose two occurrences carry the
same exponent - so the induced matrices of the projection are computed, never
transcribed.
"""

from __future__ import annotations

from itertools import compress, repeat

from .records import Frozen, Record

# ---------------------------------------------------------------------------
# exact integer matrices (lists of python ints)


def zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> list[list[int]]:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            if ai[k]:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += ai[k] * bk[j]
    return out


def mat_det(a: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination (Bareiss)."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def smith_normal_form(a: list[list[int]]):
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


def _columns(a: list[list[int]]) -> list[dict[int, int]]:
    """A matrix given by rows as sparse columns: {row: value} of each column's nonzeros."""
    cols: list[dict[int, int]] = [{} for _ in range(len(a[0]) if a else 0)]
    for i, row in enumerate(a):
        for j in compress(range(len(row)), row):
            cols[j][i] = row[j]
    return cols


def _apply(m: list[dict[int, int]], vec: dict[int, int]) -> dict[int, int]:
    """m * vec for m given as sparse columns and vec as {index: value}; the
    result may hold zeros where terms cancel."""
    out: dict[int, int] = {}
    for j, c in vec.items():
        for i, e in m[j].items():
            out[i] = out.get(i, 0) + e * c
    return out


def _factor(a: list[list[int]]):
    """(U, diagonal, V) of smith_normal_form(a), with U and V as sparse columns.

    The unimodular factors of the lattices here are near-permutations (about
    one nonzero entry per column), so products with them cost their nonzeros.
    """
    u, d, v = smith_normal_form(a)
    return _columns(u), [d[i][i] for i in range(min(len(u), len(v)))], _columns(v)


def _back_substitute(factors, b: list[dict[int, int]]) -> list[dict[int, int]] | None:
    """The columns of X with a*X = b, given factors = _factor(a) and b as
    sparse columns, or None: x = V * D^-1 * U * b, where each entry of U * b
    past the rank must vanish and each other must be divisible by its d_i."""
    u, diag, v = factors
    rank = len(diag)
    out = []
    for col in b:
        y = {}
        for i, e in _apply(u, col).items():
            if e:
                di = diag[i] if i < rank else 0
                if di == 0 or e % di:
                    return None
                y[i] = e // di
        out.append({i: e for i, e in _apply(v, y).items() if e})
    return out


def solve_integer(a: list[list[int]], b: list[dict[int, int]]) -> list[dict[int, int]] | None:
    """X with a*X = b over the integers, or None if no solution exists.

    a is a matrix given by rows; b and X are sparse columns ({row: value} per
    column), so a solve costs the nonzeros of b and of a's unimodular factors.
    """
    return _back_substitute(_factor(a), b)


# ---------------------------------------------------------------------------
# GF(2) linear algebra on bit-packed rows: a row is a Python int whose bit j is
# column j, so elimination XORs whole rows at once (the M4RI idiom).


def _bits(x: int):
    """The positions of the set bits of x, lowest first: a sparse walk."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def pack_rows(matrix) -> list[int]:
    """Rows of an integer matrix, read mod 2, as ints."""
    return [sum(1 << j for j, e in enumerate(row) if e % 2) for row in matrix]


class Z2Matrix(Frozen):
    """A GF(2) matrix as bit-packed rows; cols keeps the width of a matrix
    with no rows, so a 1x0 matrix and a 0x1 one stay apart."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: tuple[int, ...], cols: int):
        self._set(rows, cols)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.cols

    @property
    def T(self) -> Z2Matrix:
        cols = [0] * self.cols
        for i, row in enumerate(self.rows):
            for j in _bits(row):
                cols[j] |= 1 << i
        return Z2Matrix(tuple(cols), len(self.rows))

    def tolist(self) -> list[list[int]]:
        return [[row >> j & 1 for j in range(self.cols)] for row in self.rows]


def gf2_row_reduce(a) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of bit-packed rows over GF(2): the nonzero
    reduced rows, one per pivot, and their pivot columns (ascending)."""
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


def gf2_rank(a) -> int:
    return len(gf2_row_reduce(pack_rows(a))[1])


def nullspace_rows(rows: list[int], cols: int) -> list[int]:
    """A basis of the right nullspace, one vector per free column (ascending)."""
    reduced, pivots = gf2_row_reduce(rows)
    pivot_set = set(pivots)
    return [1 << f | sum(1 << p for row, p in zip(reduced, pivots) if row >> f & 1)
            for f in range(cols) if f not in pivot_set]


def solve_rows(rows: list[int], rhs: int, cols: int) -> int | None:
    """x with rows . x = rhs over GF(2), bit i of rhs for row i, or None."""
    reduced, pivots = gf2_row_reduce([row | (rhs >> i & 1) << cols
                                      for i, row in enumerate(rows)])
    if pivots and pivots[-1] == cols:
        return None
    return sum((row >> cols & 1) << p for row, p in zip(reduced, pivots))


# ---------------------------------------------------------------------------
# polygon complexes

Occurrence = tuple[str, int]  # (edge name, +1 | -1)


class GluingWord(Frozen):
    """Boundary word of a fundamental polygon; boundary letters occur once."""

    __slots__ = ("word", "boundary_letters", "_complex", "_exponents")
    _fields = ("word", "boundary_letters")

    def __init__(self, word: tuple[Occurrence, ...],
                 boundary_letters: frozenset[str] = frozenset()):
        exponents: dict[str, list[int]] = {}  # letter -> its exponents, in word order
        for name, exp in word:
            if exp not in (1, -1):
                raise ValueError("exponents must be +-1")
            exponents.setdefault(name, []).append(exp)
        for name, exps in exponents.items():
            expected = 1 if name in boundary_letters else 2
            if len(exps) != expected:
                raise ValueError(f"letter {name} occurs {len(exps)} times, expected {expected}")
        self._set(word, boundary_letters)
        object.__setattr__(self, "_complex", None)
        object.__setattr__(self, "_exponents", exponents)

    @property
    def complex(self) -> PolygonComplex:
        """The word's polygon complex, built on first use and shared by every
        caller that reads it (so treat it as read-only)."""
        if self._complex is None:
            object.__setattr__(self, "_complex", PolygonComplex.from_word(self))
        return self._complex

    @classmethod
    def parse(cls, text: str, boundary: str = "") -> "GluingWord":
        """Parse strings like "a b a b'" ('name'+optional quote for inverse)."""
        occs = []
        for token in text.split():
            if token.endswith("'"):
                occs.append((token[:-1], -1))
            else:
                occs.append((token, 1))
        return cls(tuple(occs), frozenset(boundary.split()) if boundary else frozenset())

    @property
    def letters(self) -> list[str]:
        """The letters in order of first occurrence."""
        return list(self._exponents)

    def interior_letters(self) -> list[str]:
        return [g for g in self.letters if g not in self.boundary_letters]

    def same_exponent(self, letter: str) -> bool:
        """Chart transition across this edge reverses orientation."""
        exps = self._exponents.get(letter, ())
        return len(exps) == 2 and exps[0] == exps[1]

    def is_orientable_word(self) -> bool:
        return all(not self.same_exponent(g) for g in self.interior_letters())


class PolygonComplex(Record):
    """CW complex: named edges, one boundary word per 2-cell.

    The edges default to the letters in order of first occurrence; the
    vertices, edge indices and edge ends are derived from the fields.
    """

    __slots__ = ("faces", "boundary_letters", "edges", "vertex_count", "edge_index", "edge_ends")
    _fields = ("faces", "boundary_letters", "edges")

    def __init__(self, faces: list[tuple[Occurrence, ...]],
                 boundary_letters: frozenset[str] = frozenset(), edges: list[str] | None = None):
        if not edges:
            edges = []
            for face in faces:
                for name, _ in face:
                    if name not in edges:
                        edges.append(name)
        self._set(faces, boundary_letters, edges)
        self._build()

    @classmethod
    def from_word(cls, word: GluingWord) -> "PolygonComplex":
        return cls([word.word], word.boundary_letters)

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

    def euler_characteristic(self) -> int:
        return self.vertex_count - len(self.edges) + len(self.faces)

    def is_orientable(self) -> bool:
        """Can the faces be oriented so every interior edge gets both exponents?"""
        flip: dict[int, int] = {}
        occ: dict[str, list[tuple[int, int]]] = {}
        for fi, face in enumerate(self.faces):
            for name, exp in face:
                occ.setdefault(name, []).append((fi, exp))
        # union-find with parity on the face flip states
        parent = {fi: fi for fi in range(len(self.faces))}
        parity = {fi: 0 for fi in range(len(self.faces))}

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


# ---------------------------------------------------------------------------
# homology groups


class GradedGroups(Frozen):
    """Free rank and torsion orders (divisibility chain) per degree 0, 1, 2."""

    __slots__ = ("h0", "h1", "h2")

    def __init__(self, h0: tuple[int, tuple[int, ...]], h1: tuple[int, tuple[int, ...]],
                 h2: tuple[int, tuple[int, ...]]):
        self._set(h0, h1, h2)

    def as_dict(self):
        return {
            "h0": {"free": self.h0[0], "torsion": list(self.h0[1])},
            "h1": {"free": self.h1[0], "torsion": list(self.h1[1])},
            "h2": {"free": self.h2[0], "torsion": list(self.h2[1])},
        }


class H1Basis:
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
        _, dd1, v1 = smith_normal_form(d1)
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
        self._kernel_factors = _factor([kernel[e] for e in order])
        self._generators = None

        x = _back_substitute(self._kernel_factors, _columns([d2[e] for e in order]))
        if x is None:
            raise ValueError("image of d2 does not lie in the kernel of d1")
        ux, dx, _ = smith_normal_form([[col.get(i, 0) for col in x] for i in range(k)])
        # new kernel basis K' = K * ux^-1; coordinates of z: ux * solve(K, z)
        self._ux_rows = ux  # factored again by the first representative call
        self._ux = _columns(ux)
        n_diag = min(len(dx), len(dx[0]) if dx else 0)
        self.orders = [dx[i][i] if i < n_diag else 0 for i in range(k)]
        self.free_indices = [i for i, o in enumerate(self.orders) if o == 0]
        self.torsion_indices = [i for i, o in enumerate(self.orders) if o > 1]
        self.free_rank = len(self.free_indices)
        self.torsion = tuple(self.orders[i] for i in self.torsion_indices)
        self.rank_d1 = rank1
        # d2 = K * x and K has full column rank, so rank d2 = rank x
        self.rank_d2 = sum(1 for o in self.orders if o)

    def coordinates(self, chain: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if len(chain) != self._n_edges:
            raise ValueError(f"a 1-chain has {self._n_edges} entries, got {len(chain)}")
        z = {self._slot[j]: chain[j] for j in compress(range(len(chain)), chain)}
        y = _back_substitute(self._kernel_factors, [z])
        if y is None:
            raise ValueError("chain is not a 1-cycle")
        c = _apply(self._ux, y[0])
        free = tuple(map(c.get, self.free_indices, repeat(0)))
        tors = tuple(c.get(i, 0) % self.orders[i] for i in self.torsion_indices)
        return free, tors

    def representative(self, index: int) -> list[int]:
        """1-chain representing the index-th generator (free first, then torsion)."""
        if self._generators is None:
            # the columns of ux^-1 solve ux * X = I, one unit column each
            inv = solve_integer(self._ux_rows, [{i: 1} for i in range(len(self._ux))])
            kernel = _columns(self._kernel)
            self._generators = [_apply(kernel, col) for col in inv]
        chain = [0] * self._n_edges
        for e, c in self._generators[(self.free_indices + self.torsion_indices)[index]].items():
            chain[e] = c
        return chain


def homology_groups(cx: PolygonComplex) -> GradedGroups:
    basis = H1Basis(cx.d1(), cx.d2())
    return GradedGroups((cx.vertex_count - basis.rank_d1, ()),
                        (basis.free_rank, basis.torsion),
                        (len(cx.faces) - basis.rank_d2, ()))


def z2_betti(cx: PolygonComplex) -> tuple[int, int, int]:
    """Z2 Betti numbers by rank: the independent path that cross-checks h1_z2_basis."""
    r1 = gf2_rank(cx.d1())
    r2 = gf2_rank(cx.d2())
    n0, n1, n2 = cx.vertex_count, len(cx.edges), len(cx.faces)
    return n0 - r1, n1 - r1 - r2, n2 - r2


def b1_mod2(cx: PolygonComplex) -> int:
    """dim H1(X, Z2) = first Betti number plus the number of even torsion factors."""
    return z2_betti(cx)[1]


# ---------------------------------------------------------------------------
# the mechanical orientation double cover


class CoverData(Record):
    """A double cover's complexes; edge_map sends each total edge to its base
    edge, deck_edge_map to the total edge on the other sheet."""

    __slots__ = ("base", "total", "edge_map", "deck_edge_map")

    def __init__(self, base: PolygonComplex, total: PolygonComplex, edge_map: dict[str, str],
                 deck_edge_map: dict[str, str]):
        self._set(base, total, edge_map, deck_edge_map)


def orientation_double_cover_complex(word: GluingWord) -> CoverData:
    """Two copies of every cell; sheets swap across same-exponent edges."""
    base = word.complex
    eps = {g: 1 if word.same_exponent(g) else 0 for g in word.letters}

    def lifted_face(sheet: int) -> tuple[Occurrence, ...]:
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
    total = PolygonComplex(faces, boundary)
    edge_map = {f"{g}^{s}": g for g in word.letters for s in (0, 1)}
    deck = {f"{g}^{s}": f"{g}^{1 - s}" for g in word.letters for s in (0, 1)}
    return CoverData(base, total, edge_map, deck)


class InducedMaps(Record):
    """pi_* and pi^* data for an orientation double cover."""

    __slots__ = ("push_z", "base_orders", "push_z2", "pull_z2", "kernel_pull",
                 "coker_pull_dim", "image_index_z2", "b1_mod2_base", "b1_mod2_total")

    def __init__(
        self,
        push_z: list[list[int]],   # H1(total, Z) -> H1(base, Z), canonical bases
        base_orders: list[int],    # 0 for free coordinates, else torsion order
        push_z2: Z2Matrix,         # H1(total, Z2) -> H1(base, Z2), edge-class bases
        pull_z2: Z2Matrix,         # transpose: H^1(base, Z2) -> H^1(total, Z2)
        kernel_pull: Z2Matrix,     # basis (rows) of Ker pi^* in H^1(base, Z2)
        coker_pull_dim: int,
        image_index_z2: int,       # [H1(base, Z2) : Im pi_*]
        b1_mod2_base: int,
        b1_mod2_total: int,
    ):
        self._set(push_z, base_orders, push_z2, pull_z2, kernel_pull, coker_pull_dim,
                  image_index_z2, b1_mod2_base, b1_mod2_total)

    @property
    def splitting_k(self) -> int:
        """k in H^1(total, Z2) = Z2^k (+) Im pi^*."""
        return self.b1_mod2_total - (self.b1_mod2_base - 1)


def h1_z2_basis(cx: PolygonComplex):
    """Projection of edge space onto an H1(.,Z2) coordinate system.

    Returns (basis rows, project), bit-packed by edge.  The basis rows are
    the cycles, in nullspace order, that the boundaries and the earlier cycles
    do not span; project maps a cycle to its coordinates in that basis, bit i
    for basis row i.
    """
    n = len(cx.edges)
    cycles = nullspace_rows(pack_rows(cx.d1()), n)
    top = n + len(cycles) - 1
    # One echelon of [boundaries; cycles], cycle i tagged with bit top - i above
    # the edge columns.  Rows pivoting on a tag are the relations among the
    # cycles modulo the boundaries, and the pivot of each is its latest cycle:
    # exactly the cycles that the boundaries and the earlier cycles span.
    reduced, pivots = gf2_row_reduce(pack_rows(zip(*cx.d2()))
                                     + [c | 1 << top - i for i, c in enumerate(cycles)])
    spanned = {top - p for p in pivots if p >= n}
    kept = [i for i in range(len(cycles)) if i not in spanned]
    # The echelon is fully reduced, so reducing a vector XORs exactly the rows
    # whose pivot bits it has; what is left of the tags are kept cycles' tags.
    row_at = dict(zip(pivots, reduced))
    pivot_mask = sum(1 << p for p in pivots)
    coordinate = {top - k: 1 << i for i, k in enumerate(kept)}

    def project(vec: int) -> int:
        """Coordinates of [cycle] in the chosen basis."""
        for p in _bits(vec & pivot_mask):
            vec ^= row_at[p]
        if vec & ((1 << n) - 1):
            raise ValueError("vector is not a cycle")
        return sum(coordinate[b] for b in _bits(vec))

    return [cycles[i] for i in kept], project


def induced_maps(cover: CoverData) -> InducedMaps:
    base, total = cover.base, cover.total

    # --- integral push-forward in canonical H1 bases
    base_basis = H1Basis(base.d1(), base.d2())
    total_basis = H1Basis(total.d1(), total.d2())
    base_idx = base.edge_index
    image = [base_idx[cover.edge_map[name]] for name in total.edges]
    n_total_gens = total_basis.free_rank + len(total_basis.torsion)
    n_base_gens = base_basis.free_rank + len(base_basis.torsion)
    push = zeros(n_base_gens, n_total_gens)
    for j in range(n_total_gens):
        chain = total_basis.representative(j)
        pushed = [0] * len(base.edges)
        for e in compress(range(len(chain)), chain):
            pushed[image[e]] += chain[e]
        free, tors = base_basis.coordinates(pushed)
        for i, val in enumerate(free + tors):
            push[i][j] = val
    orders = [0] * base_basis.free_rank + list(base_basis.torsion)

    # --- mod 2, in the Z2 homology bases
    base_b, base_proj = h1_z2_basis(base)
    total_b, _ = h1_z2_basis(total)

    def pushed_z2(cycle: int) -> int:
        out = 0
        for e in _bits(cycle):
            out ^= 1 << image[e]
        return out

    # row j of pi^* is column j of pi_*: the image of the j-th cover basis cycle
    pull_z2 = Z2Matrix(tuple(base_proj(pushed_z2(row)) for row in total_b), len(base_b))
    push_z2 = pull_z2.T
    kernel = nullspace_rows(list(pull_z2.rows), pull_z2.cols)  # phi with phi . pi_* = 0
    image_rank = len(gf2_row_reduce(push_z2.rows)[1])
    dim_base = len(base_b)
    dim_total = len(total_b)
    return InducedMaps(
        push_z=push,
        base_orders=orders,
        push_z2=push_z2,
        pull_z2=pull_z2,
        kernel_pull=Z2Matrix(tuple(kernel), dim_base),
        coker_pull_dim=dim_total - image_rank,
        image_index_z2=2 ** (dim_base - image_rank),
        b1_mod2_base=dim_base,
        b1_mod2_total=dim_total,
    )
