"""The per-op kernels against verbatim copies of their first versions.

``PolygonComplex`` (edge listing, corner union, vertex numbering,
orientability), ``orientation_double_cover_complex``, ``gf2_row_reduce``,
``homology_groups``, ``z2_betti``, ``chord_gram_matrix`` and the pinor grid's
node map are compared output for output with their earlier versions, kept
here verbatim as ``_Ref*``/``_ref_*``: on random multi-face gluing words with
boundary letters, on the orientation double covers of every family up to
g = 16, on random packed rows, on relabelled family words and on the flat
involutions of the pinor grids.
"""

import functools
import operator
import random
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pincover.characteristic import chord_gram_matrix
from pincover.homology import (
    GluingWord,
    GradedGroups,
    H1Basis,
    PolygonComplex,
    _back_substitute,
    _columns,
    _factor,
    gf2_row_reduce,
    homology_groups,
    mat_mul,
    orientation_double_cover_complex,
    pack_rows,
    smith_normal_form,
    z2_betti,
)
from pincover.pinors import _involution_node_map
from pincover.surface import FAMILY_ONLY, SurfaceModel, build, cover_diagram, double, \
    orientation_double_cover
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


def _ref_orientation_double_cover(word):
    """(faces, boundary, edge_map, deck) of the cover."""
    eps = {g: 1 if word.same_exponent(g) else 0 for g in word.letters}

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


def _ref_homology_groups(cx):
    """The earlier homology_groups: the ranks and the torsion that H1Basis read
    off the Smith forms of d1, of the kernel lattice and of the d2 solve."""
    d1, d2 = cx.d1(), cx.d2()
    n_edges = len(d2)
    if any(any(row) for row in mat_mul(d1, d2)):
        raise ValueError("d1 * d2 != 0")
    _, dd1, v1 = smith_normal_form(d1)
    rank1 = sum(1 for i in range(min(len(dd1), n_edges)) if dd1[i][i])
    kernel = [row[rank1:] for row in v1]
    k = n_edges - rank1
    first = [next(compress(range(k), row), k) for row in kernel]
    order = sorted(range(n_edges), key=first.__getitem__)
    x = _back_substitute(_factor([kernel[e] for e in order]), _columns([d2[e] for e in order]))
    if x is None:
        raise ValueError("image of d2 does not lie in the kernel of d1")
    _, dx, _ = smith_normal_form([[col.get(i, 0) for col in x] for i in range(k)])
    n_diag = min(len(dx), len(dx[0]) if dx else 0)
    orders = [dx[i][i] if i < n_diag else 0 for i in range(k)]
    free_rank = sum(1 for o in orders if o == 0)
    torsion = tuple(o for o in orders if o > 1)
    rank2 = sum(1 for o in orders if o)
    return GradedGroups((cx.vertex_count - rank1, ()),
                        (free_rank, torsion),
                        (len(cx.faces) - rank2, ()))


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
        if word.same_exponent(g):
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


def model_of(word):
    return SurfaceModel("w", FAMILY_ONLY, word, word.complex.is_orientable(), 0)


# ---------------------------------------------------------------------------
# PolygonComplex


def assert_same_complex(faces, boundary=frozenset(), edges=None):
    cx = PolygonComplex(faces, boundary, edges)
    ref = _RefPolygonComplex(faces, boundary, edges)
    assert cx.edges == ref.edges
    assert list(cx.edge_index.items()) == list(ref.edge_index.items())
    assert cx.vertex_count == ref.vertex_count
    assert list(cx.edge_ends.items()) == list(ref.edge_ends.items())
    assert cx.is_orientable() == _ref_is_orientable(faces)


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


@settings(max_examples=100, deadline=None)
@given(gluing_faces(), st.randoms(use_true_random=False))
def test_complex_matches_reference_with_given_edges(fb, rng):
    faces, boundary = fb
    edges = list(dict.fromkeys(name for face in faces for name, _ in face))
    rng.shuffle(edges)
    assert_same_complex(faces, boundary, edges)


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
# homology_groups and z2_betti


def assert_same_homology(cx):
    groups = homology_groups(cx)
    assert groups == _ref_homology_groups(cx)
    assert z2_betti(cx) == _ref_z2_betti(cx)
    # the Smith factors of the boundary maps and H1Basis's kernel lattice are
    # two independent integral paths to H1
    basis = H1Basis(cx.d1(), cx.d2())
    assert (basis.free_rank, basis.torsion) == groups.h1


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
