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
from math import gcd

from .records import Frozen, Record

# ---------------------------------------------------------------------------
# exact integer matrices (lists of python ints)


def _pivot(d: list[list[int]], t: int):
    """(|entry|, i, j) of the smallest nonzero entry of the block d[t:, t:],
    first in row-major order, or None when the block is zero."""
    best = None
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, len(row)):
            e = row[j]
            if e and (best is None or abs(e) < best[0]):
                best = (abs(e), i, j)
                if best[0] == 1:  # no entry is below 1: the full scan would keep it
                    return best
    return best


def _eliminate(d: list[list[int]]):
    """Reduce d in place to its Smith normal form, yielding each step as it is
    applied: (on_rows, i, j, q) adds q times row (or column) i to row (or
    column) j, or swaps the two when q is None.

    A slot is finished only when its pivot divides every entry left, so the
    diagonal is a divisibility chain, and its sign is made positive then.
    """
    rows = len(d)
    cols = len(d[0]) if rows else 0
    t = 0
    while t < min(rows, cols):
        best = _pivot(d, t)
        if best is None:
            return
        _, pi, pj = best
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            yield True, t, pi, None
        if pj != t:
            for row in d:
                row[t], row[pj] = row[pj], row[t]
            yield False, t, pj, None
        top = d[t]
        p = top[t]
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                q = -(d[i][t] // p)
                d[i] = [x + q * y for x, y in zip(d[i], top)]
                yield True, t, i, q
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if top[j]:
                q = -(top[j] // p)
                for row in d:
                    row[j] += q * row[t]
                yield False, t, j, q
                if top[j]:
                    dirty = True
        if dirty:
            continue  # remainders reappeared; repick the pivot at the same slot
        if abs(p) != 1 and t + 1 < cols:
            # p must divide the block left below and right of it; where it
            # does not, take the first row with a remainder into row t and repick
            rest = next((i for i in range(t + 1, rows) if any(e % p for e in d[i])), None)
            if rest is not None:
                d[t] = [x + y for x, y in zip(top, d[rest])]
                yield True, rest, t, 1
                continue
        if p < 0:
            top[t] = -p  # row t is zero past the pivot
            yield True, t, t, -2
        t += 1


def _step(vecs: list[dict[int, int]], i: int, j: int, q: int | None):
    """Add q times vector i to vector j, or swap the two when q is None; an
    entry that cancels is dropped.  Vector j is built afresh, so i == j (the
    negation) reads vector i whole before it is replaced."""
    if q is None:
        vecs[i], vecs[j] = vecs[j], vecs[i]
        return
    out = dict(vecs[j])
    for k, x in vecs[i].items():
        if y := out.get(k, 0) + q * x:
            out[k] = y
        else:
            del out[k]
    vecs[j] = out


def smith_normal_form(a: list[list[int]]):
    """U, D, V, U^-1 with U*a*V = D diagonal, divisibility chain, U and V
    unimodular: one elimination of a, each row step replayed onto U and undone
    on U^-1, each column step replayed onto V.

    D is a's dense copy, eliminated; the factors are sparse vectors {index:
    value}, U by rows and V and U^-1 by columns, so that every step is one
    vector update on each factor it touches."""
    d = [row[:] for row in a]
    rows, cols = len(d), len(d[0]) if d else 0
    u, u_inv = [{i: 1} for i in range(rows)], [{i: 1} for i in range(rows)]
    v = [{i: 1} for i in range(cols)]
    for on_rows, i, j, q in _eliminate(d):
        _step(u if on_rows else v, i, j, q)
        if on_rows:
            # a swap and the negation (t, t, -2) undo themselves; adding q
            # times i to j is undone by adding -q times j to i
            _step(u_inv, *((i, j, q) if q is None or i == j else (j, i, -q)))
    return u, d, v, u_inv


def _transpose(vecs: list[dict[int, int]], n: int) -> list[dict[int, int]]:
    """The n columns of a matrix given by its rows as sparse vectors, or its n
    rows given its columns."""
    out: list[dict[int, int]] = [{} for _ in range(n)]
    for i, vec in enumerate(vecs):
        for j, x in vec.items():
            out[j][i] = x
    return out


def _apply(m: list[dict[int, int]], vec: dict[int, int]) -> dict[int, int]:
    """m * vec for m given as sparse columns and vec as {index: value}; the
    result may hold zeros where terms cancel."""
    out: dict[int, int] = {}
    for j, c in vec.items():
        for i, e in m[j].items():
            out[i] = out.get(i, 0) + e * c
    return out


def _invariant_factors(rows: list[dict[int, int]], width: int) -> list[int]:
    """The nonzero Smith diagonal, in its divisibility chain and with no factor
    built, of a matrix given by its sparse rows {column: value} and its width.
    One row's one factor is the gcd of its values (none when all are 0); only
    several rows are written out dense, for the elimination."""
    if len(rows) == 1:
        g = gcd(*rows[0].values())
        return [g] if g else []
    d = [[0] * width for _ in rows]
    for dense, row in zip(d, rows):
        for j, x in row.items():
            dense[j] = x
    for _ in _eliminate(d):
        pass
    return [row[i] for i, row in enumerate(d) if i < len(row) and row[i]]


def solve_integer(a: list[list[int]], b: list[dict[int, int]]) -> list[dict[int, int]] | None:
    """X with a*X = b over the integers, or None if no solution exists.

    a is a matrix given by rows; b and X are sparse columns ({row: value} per
    column).  X is V * D^-1 * U * b for a's Smith form: each entry of U * b
    past the rank must vanish and each other must be divisible by its d_i.
    """
    u, d, v, _ = smith_normal_form(a)
    u = _transpose(u, len(u))  # by columns, for U * b
    out = []
    for col in b:
        y = {}
        for i, e in _apply(u, col).items():
            if e:
                di = d[i][i] if i < len(v) else 0
                if di == 0 or e % di:
                    return None
                y[i] = e // di
        out.append({i: e for i, e in _apply(v, y).items() if e})
    return out


# ---------------------------------------------------------------------------
# GF(2) linear algebra on bit-packed rows: a row is a Python int whose bit j is
# column j, so elimination XORs whole rows at once (the M4RI idiom).


def _bits(x: int):
    """The positions of the set bits of x, lowest first: a sparse walk."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class Z2Matrix(Frozen):
    """A GF(2) matrix as bit-packed rows; cols keeps the width of a matrix
    with no rows, so a 1x0 matrix and a 0x1 one stay apart."""

    __slots__ = ("rows", "cols")

    @property
    def T(self) -> Z2Matrix:
        cols = [0] * self.cols
        for i, row in enumerate(self.rows):
            for j in _bits(row):
                cols[j] |= 1 << i
        return Z2Matrix(tuple(cols), len(self.rows))

    def tolist(self) -> list[list[int]]:
        return [[row >> j & 1 for j in range(self.cols)] for row in self.rows]


def _echelon(vecs) -> tuple[dict[int, int], int]:
    """The one forward GF(2) pass: {pivot column: row} and the pivot mask.  A
    row's pivot is its lowest bit, and it is free of the pivots stored before
    it, so an incoming row is cleared of the pivots lowest first: the work
    follows the pivot bits met, not the square of the rank."""
    rows: dict[int, int] = {}
    pivot_mask = 0
    for vec in vecs:
        while m := vec & pivot_mask:
            vec ^= rows[(m & -m).bit_length() - 1]
        if vec:
            low = vec & -vec
            rows[low.bit_length() - 1] = vec
            pivot_mask |= low
    return rows, pivot_mask


def gf2_row_reduce(a) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of bit-packed rows over GF(2): the nonzero
    reduced rows, one per pivot, and their pivot columns (ascending).  After
    _echelon's forward pass, the back-elimination is one sweep, latest row
    first, so each row meets only rows that are fully reduced."""
    rows, pivot_mask = _echelon(a)
    for p in reversed(rows):
        row = rows[p]
        for q in _bits(row & pivot_mask ^ (1 << p)):
            row ^= rows[q]
        rows[p] = row
    pivots = sorted(rows)
    return [rows[p] for p in pivots], pivots


def nullspace_rows(rows: list[int], cols: int) -> list[int]:
    """A basis of the right nullspace, one vector per free column (ascending)."""
    reduced, pivots = gf2_row_reduce(rows)
    pivot_set = set(pivots)
    return [1 << f | sum(1 << p for row, p in zip(reduced, pivots) if row >> f & 1)
            for f in range(cols) if f not in pivot_set]


def solve_rows(rows: list[int], rhs: int, cols: int) -> int | None:
    """x with rows . x = rhs over GF(2), bit i of rhs for row i, or None.

    The rows, the rhs bit carried in column cols, go through _echelon's
    forward pass; a pivot at column cols is a row reduced to 0 = 1.  The
    stored rows are triangular (a row's pivot is its lowest bit), so the one
    solution with every free column 0 is back-substituted, highest pivot first:
    the solution the reduced row echelon form reads off.
    """
    stored, _ = _echelon(row | (rhs >> i & 1) << cols for i, row in enumerate(rows))
    if cols in stored:
        return None  # 0 = 1
    x = 0
    for p in sorted(stored, reverse=True):
        # the row's other bits are higher pivots, solved already, or free columns, 0
        row = stored[p]
        x |= ((row >> cols ^ (row & x).bit_count()) & 1) << p
    return x


# ---------------------------------------------------------------------------
# polygon complexes

Occurrence = tuple[str, int]  # (edge name, +1 | -1)


def _refusal(word: tuple[Occurrence, ...], boundary_letters: frozenset[str]) -> str:
    """Why a gluing word is refused, built only when it is: an exponent other
    than +-1 anywhere, else the first letter (in order of first occurrence)
    with a wrong count, else the boundary letters that do not occur."""
    if any(exp not in (1, -1) for _, exp in word):
        return "exponents must be +-1"
    counts: dict[str, int] = {}
    for name, _ in word:
        counts[name] = counts.get(name, 0) + 1
    for name, n in counts.items():
        expected = 1 if name in boundary_letters else 2
        if n != expected:
            return f"letter {name} occurs {n} times, expected {expected}"
    absent = sorted(boundary_letters - counts.keys())
    return f"boundary letter {', '.join(absent)} does not occur in the word"


class GluingWord(Frozen):
    """Boundary word of a fundamental polygon; boundary letters occur once.

    one_sided has bit i set for the i-th letter (in order of first occurrence)
    when its two occurrences carry the same exponent: the letter's chord is
    one-sided, and the chart transition across its edge reverses orientation.
    """

    __slots__ = ("word", "boundary_letters", "one_sided", "_complex", "_index")
    _fields = ("word", "boundary_letters")

    def __init__(self, word: tuple[Occurrence, ...],
                 boundary_letters: frozenset[str] = frozenset()):
        # One pass: a letter is numbered at its first occurrence, where its
        # exponent is checked and kept open; the second occurrence checks its
        # exponent against the open one and zeroes it.  A third occurrence
        # meets a zero and is refused, or lengthens the word past 2n - b; the
        # letters left open must be the boundary letters.
        index: dict[str, int] = {}  # letter -> its number, in order of first occurrence
        open_exps: list[int] = []
        one_sided = 0
        for name, exp in word:
            i = index.get(name)
            if i is None:
                if exp != 1 and exp != -1:
                    raise ValueError(_refusal(word, boundary_letters))
                index[name] = len(open_exps)
                open_exps.append(exp)
            elif exp == open_exps[i]:
                one_sided |= 1 << i
                open_exps[i] = 0
            elif exp == -open_exps[i]:
                open_exps[i] = 0
            else:
                raise ValueError(_refusal(word, boundary_letters))
        if (len(word) + len(boundary_letters) != 2 * len(open_exps)
                or set(compress(index, open_exps)) != boundary_letters):
            raise ValueError(_refusal(word, boundary_letters))
        self._set(word, boundary_letters)
        object.__setattr__(self, "one_sided", one_sided)
        object.__setattr__(self, "_complex", None)
        object.__setattr__(self, "_index", index)

    @property
    def complex(self) -> PolygonComplex:
        """The word's polygon complex, built on first use and shared by every
        caller that reads it; the complex is frozen, so no caller can change it."""
        if self._complex is None:
            object.__setattr__(self, "_complex", PolygonComplex([self.word], self.boundary_letters))
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
        return list(self._index)


def _union(parent: list[int], x: int, y: int) -> bool:
    """Join the classes of x and y in a union-find forest, halving the paths
    on the way, under the lower root; True when they were apart."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    while parent[y] != y:
        parent[y] = y = parent[parent[y]]
    if x < y:
        parent[y] = x
    else:
        parent[x] = y
    return x != y


class PolygonComplex(Frozen):
    """CW complex: named edges, one boundary word per 2-cell.

    The edges (the letters in order of first occurrence), the vertices, edge
    indices and edge ends, each face's exponent sums by edge index and its
    boundary row mod 2 are derived from the fields in one pass over the
    corners.  The edge ends are d1, and the one union-find over them counts
    the components of the 1-skeleton, so rank d1 = vertex_count -
    component_count; _cycles keeps the spanning forest's cycles once replayed.
    """

    __slots__ = ("faces", "boundary_letters", "edges", "vertex_count", "component_count",
                 "edge_index", "edge_ends", "_face_sums", "_d2_rows", "_cycles")
    _fields = ("faces", "boundary_letters")

    def __init__(self, faces: list[tuple[Occurrence, ...]],
                 boundary_letters: frozenset[str] = frozenset()):
        self._set(faces, boundary_letters)
        self._build()

    @classmethod
    def from_word(cls, word: GluingWord) -> "PolygonComplex":
        """The word's one shared complex."""
        return word.complex

    def _build(self):
        # Corners are numbered face by face, and each gluing unions the tails
        # and the heads of an edge's two occurrences.  A union keeps the lower
        # root, so parent[c] <= c and every class is rooted at its first corner.
        # An edge is numbered at its first occurrence, and the same pass sums each
        # face's exponents by edge index; the odd sums are the face's d2 row mod 2.
        parent: list[int] = []
        ends: dict[str, tuple[int, int, int]] = {}  # edge -> its first (tail, head), its index
        face_sums: list[dict[int, int]] = []
        d2_rows: list[int] = []
        for face in self.faces:
            first = len(parent)
            last = first + len(face) - 1
            parent.extend(range(first, last + 1))
            sums: dict[int, int] = {}
            for corner, (name, exp) in enumerate(face, first):
                after = corner + 1 if corner < last else first
                tail, head = (corner, after) if exp == 1 else (after, corner)
                if name in ends:
                    t, h, j = ends[name]
                    _union(parent, t, tail)
                    _union(parent, h, head)
                    sums[j] = sums.get(j, 0) + exp
                else:
                    j = len(ends)
                    ends[name] = tail, head, j
                    sums[j] = exp
            face_sums.append(sums)
            d2_rows.append(sum(1 << j for j, s in sums.items() if s & 1))

        # vertices are numbered in the order of their first corners
        vertex = [0] * len(parent)
        count = 0
        for c, p in enumerate(parent):
            if p == c:
                vertex[c] = count
                count += 1
            else:
                vertex[c] = vertex[p]  # p < c is in c's class and numbered already
        edge_ends = {name: (vertex[t], vertex[h]) for name, (t, h, _) in ends.items()}
        joined = list(range(count))  # a union-find over the vertices, along the edges
        components = count - sum(_union(joined, t, h) for t, h in edge_ends.values())
        edges = list(ends)
        derived = {"edges": edges, "vertex_count": count, "component_count": components,
                   "edge_ends": edge_ends,
                   "edge_index": dict(zip(edges, range(len(edges)))), "_face_sums": face_sums,
                   "_d2_rows": tuple(d2_rows), "_cycles": None}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def euler_characteristic(self) -> int:
        return self.vertex_count - len(self.edges) + len(self.faces)


# ---------------------------------------------------------------------------
# homology groups


class GradedGroups(Frozen):
    """Free rank and torsion orders (divisibility chain) per degree 0, 1, 2."""

    __slots__ = ("h0", "h1", "h2")

    def as_dict(self):
        return {
            "h0": {"free": self.h0[0], "torsion": list(self.h0[1])},
            "h1": {"free": self.h1[0], "torsion": list(self.h1[1])},
            "h2": {"free": self.h2[0], "torsion": list(self.h2[1])},
        }


def _check_boundaries(cx: PolygonComplex):
    """Raise unless d1 * d2 = 0, face by face: each edge with two ends adds
    its exponent sum on the face at its head and takes it at its tail."""
    ends = list(cx.edge_ends.values())
    for sums in cx._face_sums:
        at: dict[int, int] = {}
        for j, s in sums.items():
            t, h = ends[j]
            if t != h:
                at[h] = at.get(h, 0) + s
                at[t] = at.get(t, 0) - s
        if any(at.values()):
            raise ValueError("d1 * d2 != 0")


def _cycle_basis(cx: PolygonComplex) -> dict[int, dict[int, int]]:
    """{cotree edge: fundamental cycle {edge: coefficient}} of the spanning
    forest d1's Smith elimination pivots on: its V columns past the rank, in
    their order, from its steps replayed on the graph.

    Each row of the eliminated d1 stays +- the incidence of a vertex class, so
    the pivot at slot t is the first edge (by column position) leaving the
    first class (by row position) that has one.  Clearing its column merges
    that class into the one at the edge's other end; clearing its row adds
    -x * p times its V column, p the pivot, to each later column of entry x.
    The first call keeps its dict in cx._cycles, and later calls return that
    dict, read-only: one replay per complex.
    """
    if cx._cycles is not None:
        return cx._cycles
    ends = list(cx.edge_ends.values())
    label = list(range(cx.vertex_count))  # vertex -> its class, named by a vertex
    rows = label[:]  # the class at each row position
    cols = list(range(len(ends)))  # the edge at each column position
    v = [{e: 1} for e in cols]

    def entry(c: int, e: int) -> int:
        t, h = ends[e]
        return (label[h] == c) - (label[t] == c)

    t = 0
    while pivot := next(((i, j) for i in range(t, len(rows)) for j in range(t, len(cols))
                         if entry(rows[i], cols[j])), None):
        i, j = pivot
        rows[t], rows[i] = rows[i], rows[t]
        if j != t:
            cols[t], cols[j] = cols[j], cols[t]
            _step(v, t, j, None)
        c, (tail, head) = rows[t], ends[cols[t]]
        p = entry(c, cols[t])
        for k in range(t + 1, len(cols)):
            if x := entry(c, cols[k]):
                _step(v, t, k, -x * p)
        other = label[tail if p == 1 else head]
        label[:] = [other if class_ == c else class_ for class_ in label]
        t += 1
    object.__setattr__(cx, "_cycles", {cols[k]: v[k] for k in range(t, len(cols))})
    return cx._cycles


class H1Basis:
    """Canonical basis of a polygon complex's H1, with coordinates for 1-cycles.

    Generators are ordered free part first, then torsion (orders in the
    divisibility chain).  ``coordinates`` maps an integer 1-chain in the kernel
    of d1 to its (free, torsion) coordinate vector.  The basis reads the
    complex's sparse boundaries after the d1 * d2 = 0 check homology_groups
    runs too.  The kernel lattice K is the spanning forest's fundamental
    cycles, and a cycle's coefficients at the cotree edges are its coordinates
    in K: d2 in the basis K is d2's cotree rows, whose Smith form, the one
    dense matrix, gives ux.  The coordinate map and the generators K * ux^-1
    are sparse, and a 1-chain is a dict {edge: coefficient}, so a chain costs
    the nonzeros it meets.
    """

    def __init__(self, cx: PolygonComplex):
        _check_boundaries(cx)
        # d1 by sparse columns, one an edge, for the cycle check of a chain
        self._d1 = [{h: 1, t: -1} if t != h else {} for t, h in cx.edge_ends.values()]
        cycles = _cycle_basis(cx)
        kernel = list(cycles.values())
        ux, dx, _, ux_inv = smith_normal_form([[sums.get(e, 0) for sums in cx._face_sums]
                                               for e in cycles])
        # the coordinate map by columns, one an edge: ux's s-th column at the
        # s-th cotree edge, and none at a tree edge
        columns = dict(zip(cycles, _transpose(ux, len(cycles))))
        self._coordinate_map = [columns.get(e, {}) for e in range(len(self._d1))]
        self.orders = [row[i] if i < len(row) else 0 for i, row in enumerate(dx)]
        self.free_indices = [i for i, o in enumerate(self.orders) if o == 0]
        self.torsion_indices = [i for i, o in enumerate(self.orders) if o > 1]
        self.free_rank = len(self.free_indices)
        self.torsion = tuple(self.orders[i] for i in self.torsion_indices)
        # the generators, free first, then torsion: the columns of K * ux^-1
        # whose order is not 1
        self._generators = [{e: c for e, c in _apply(kernel, ux_inv[i]).items() if c}
                            for i in self.free_indices + self.torsion_indices]

    def coordinates(self, chain: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (free, torsion) coordinates of a 1-cycle given as {edge: coefficient}."""
        if any(not 0 <= e < len(self._d1) for e in chain):
            raise ValueError(f"a 1-chain's edges are 0 to {len(self._d1) - 1}")
        if any(_apply(self._d1, chain).values()):
            raise ValueError("chain is not a 1-cycle")
        c = _apply(self._coordinate_map, chain)
        free = tuple(map(c.get, self.free_indices, repeat(0)))
        tors = tuple(c.get(i, 0) % self.orders[i] for i in self.torsion_indices)
        return free, tors

    def representative(self, index: int) -> dict[int, int]:
        """A 1-cycle {edge: coefficient} representing the index-th generator (free
        first, then torsion), the caller's to change."""
        return dict(self._generators[index])


def homology_groups(cx: PolygonComplex) -> GradedGroups:
    """H0, H1 and H2 from the rank of d1 and the Smith invariant factors of d2ᵀ.

    d1 is a graph's incidence matrix, which is totally unimodular: its Smith
    form is [I 0] with r1 = V - c ones for the c components the corner pass
    counted.  With d_1 .. d_r2 the nonzero factors of d2 (those of d2ᵀ, whose
    rows are the face sums): C1 / im d2 is H1 (+) im d1, and im d1 lies in the
    free C0, so H1 = Z^(E - r1 - r2) (+) the Z/d_i with d_i > 1,
    H0 = Z^(V - r1) = Z^c and H2 = Z^(F - r2).
    """
    _check_boundaries(cx)
    n_edges = len(cx.edges)
    r1 = cx.vertex_count - cx.component_count
    factors = _invariant_factors(cx._face_sums, n_edges)
    r2 = len(factors)
    return GradedGroups((cx.component_count, ()),
                        (n_edges - r1 - r2, tuple(f for f in factors if f > 1)),
                        (len(cx.faces) - r2, ()))


def b1_mod2(cx: PolygonComplex) -> int:
    """dim H1(X, Z2) = E - rank d1 - rank d2 over GF(2), from the corner pass:
    rank d1 = V - c (a graph's incidence matrix, over any field) and rank d2
    is that of the packed d2 rows."""
    rank_d2 = len(gf2_row_reduce(cx._d2_rows)[1])
    return len(cx.edges) - (cx.vertex_count - cx.component_count) - rank_d2


# ---------------------------------------------------------------------------
# the mechanical orientation double cover


class CoverData(Record):
    """A double cover's complexes; edge_map sends each total edge to its base
    edge."""

    __slots__ = ("base", "total", "edge_map")

    @property
    def edge_image(self) -> list[int]:
        """The base edge index of each total edge, in total.edges order."""
        return [self.base.edge_index[self.edge_map[name]] for name in self.total.edges]


def orientation_double_cover_complex(word: GluingWord) -> CoverData:
    """Two copies of every cell; sheets swap across same-exponent edges."""
    base = word.complex
    lifts = {g: (f"{g}^0", f"{g}^1") for g in word.letters}  # the edge on sheet 0, 1
    # sheet 0's face: a letter's first occurrence stays on sheet 0 and its
    # second one crosses over iff the edge reverses orientation; sheet 1's
    # face is the same walk with every copy swapped
    one_sided, index = word.one_sided, word._index
    seen: set[str] = set()
    copies = []
    for name, _ in word.word:
        copies.append(one_sided >> index[name] & 1 if name in seen else 0)
        seen.add(name)
    faces = [tuple((lifts[name][copy ^ sheet], exp)
                   for (name, exp), copy in zip(word.word, copies)) for sheet in (0, 1)]
    boundary = frozenset(e for g in word.boundary_letters for e in lifts[g])
    total = PolygonComplex(faces, boundary)
    edge_map = {e: g for g, pair in lifts.items() for e in pair}
    return CoverData(base, total, edge_map)


class Z2Maps(Record):
    """pi^* mod 2 for an orientation double cover, and what follows from it."""

    __slots__ = ("pull_z2",      # H^1(base, Z2) -> H^1(total, Z2), edge-class bases
                 "kernel_pull")  # basis (rows) of Ker pi^* in H^1(base, Z2)

    @property
    def push_z2(self) -> Z2Matrix:
        """H1(total, Z2) -> H1(base, Z2): the transpose of pi^*."""
        return self.pull_z2.T

    @property
    def b1_mod2_base(self) -> int:
        return self.pull_z2.cols

    @property
    def b1_mod2_total(self) -> int:
        return len(self.pull_z2.rows)

    @property
    def coker_pull_dim(self) -> int:
        """dim coker pi^*, with rank pi^* = b1(2) base - dim Ker pi^*."""
        return self.b1_mod2_total - (self.b1_mod2_base - len(self.kernel_pull.rows))

    @property
    def image_index_z2(self) -> int:
        """[H1(base, Z2) : Im pi_*] = 2^(dim Ker pi^*)."""
        return 2 ** len(self.kernel_pull.rows)

    @property
    def splitting_k(self) -> int:
        """k in H^1(total, Z2) = Z2^k (+) Im pi^*."""
        return self.b1_mod2_total - (self.b1_mod2_base - 1)


class InducedMaps(Z2Maps):
    """pi_* and pi^* data for an orientation double cover."""

    __slots__ = ("push_z",       # H1(total, Z) -> H1(base, Z), canonical bases
                 "base_orders")  # 0 for free coordinates, else torsion order
    _fields = ("push_z", "base_orders", *Z2Maps._fields)


def h1_z2_basis(cx: PolygonComplex):
    """Projection of edge space onto an H1(.,Z2) coordinate system: the one
    GF(2) homology computation.

    Returns (basis rows, project), bit-packed by edge.  The basis rows are
    the spanning forest's fundamental cycles mod 2, by ascending cotree edge,
    that the face rows mod 2 and the earlier cycles do not span; project maps
    a cycle to its coordinates in that basis, bit i for basis row i.
    """
    n = len(cx.edges)
    cycles = [sum(1 << e for e in cycle) for _, cycle in sorted(_cycle_basis(cx).items())]
    top = n + len(cycles) - 1
    # One echelon of [boundaries; cycles], cycle i tagged with bit top - i above
    # the edge columns.  Rows pivoting on a tag are the relations among the
    # cycles modulo the boundaries, and the pivot of each is its latest cycle:
    # exactly the cycles that the boundaries and the earlier cycles span.
    tagged = (c | 1 << top - i for i, c in enumerate(cycles))
    reduced, pivots = gf2_row_reduce([*cx._d2_rows, *tagged])
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


def z2_maps(cover: CoverData) -> Z2Maps:
    """pi^* on H^1(., Z2) in the h1_z2_basis bases, and its kernel: no
    integral Smith form is built."""
    base_b, base_proj = h1_z2_basis(cover.base)
    total_b, _ = h1_z2_basis(cover.total)
    image = cover.edge_image

    def pushed_z2(cycle: int) -> int:
        out = 0
        for e in _bits(cycle):
            out ^= 1 << image[e]
        return out

    # row j of pi^* is column j of pi_*: the image of the j-th cover basis cycle
    pull_z2 = Z2Matrix(tuple(base_proj(pushed_z2(row)) for row in total_b), len(base_b))
    kernel = nullspace_rows(list(pull_z2.rows), pull_z2.cols)  # phi with phi . pi_* = 0
    return Z2Maps(pull_z2, Z2Matrix(tuple(kernel), pull_z2.cols))


def induced_maps(cover: CoverData) -> InducedMaps:
    """z2_maps with the integral push-forward in canonical H1 bases."""
    base_basis, total_basis = H1Basis(cover.base), H1Basis(cover.total)
    projection = [{b: 1} for b in cover.edge_image]  # pi on 1-chains, as sparse columns
    # pi_* by columns, one a cover generator (its base coordinates), and the
    # rows read off them; with none (rp2's cover s2) each row is kept empty
    coords = (base_basis.coordinates(_apply(projection, total_basis.representative(j)))
              for j in range(total_basis.free_rank + len(total_basis.torsion)))
    columns = [free + tors for free, tors in coords]
    orders = [0] * base_basis.free_rank + list(base_basis.torsion)
    push = [list(row) for row in zip(*columns)] or [[] for _ in orders]
    z2 = z2_maps(cover)
    return InducedMaps(push, orders, z2.pull_z2, z2.kernel_pull)
