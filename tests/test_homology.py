import copy
import functools
import itertools
import operator
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pincover import homology
from pincover.characteristic import obstructions, w1
from pincover.homology import (
    GluingWord,
    H1Basis,
    PolygonComplex,
    Z2Matrix,
    b1_mod2,
    gf2_row_reduce,
    h1_z2_basis,
    homology_groups,
    induced_maps,
    nullspace_rows,
    orientation_double_cover_complex,
    smith_normal_form,
    solve_integer,
    solve_rows,
    z2_maps,
)
from pincover.structures import descend
from pincover.surface import FAMILY_ONLY, SurfaceModel, build
from test_kernel_references import GRIDS, _ref_dense_smith_normal_form, _ref_is_orientable, \
    _RefPolygonComplex, closed_words, dense_factors, disconnected_gluings, gluing_faces, \
    identity, mat_mul, pack_rows, ref_boundaries, zeros
from test_pinned_answers import canonical_word, relabel

T2 = GluingWord.parse("a b a' b'")
K2 = GluingWord.parse("a b a b'")
RP2 = GluingWord.parse("x x")
S2 = GluingWord.parse("a a'")


def sigma_word(g):
    parts = []
    for i in range(1, g + 1):
        parts += [f"a{i}", f"b{i}", f"a{i}'", f"b{i}'"]
    return GluingWord.parse(" ".join(parts))


def n_g1_word(g):
    parts = []
    for i in range(1, g + 1):
        parts += [f"a{i}", f"b{i}", f"a{i}'", f"b{i}'"]
    parts += ["x", "x"]
    return GluingWord.parse(" ".join(parts))


def n_g2_word(g):
    parts = []
    for i in range(1, g + 1):
        parts += [f"a{i}", f"b{i}", f"a{i}'", f"b{i}'"]
    parts += ["c", "d", "c", "d'"]
    return GluingWord.parse(" ".join(parts))


def mat_det(a):
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


def gf2_rank(a):
    """The GF(2) rank of a dense integer matrix, read mod 2."""
    return len(gf2_row_reduce(pack_rows(a))[1])


# ---------------------------------------------------------------------------
# Smith normal form


def check_snf(a):
    u, d, v, u_inv = dense_factors(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert mat_mul(u, u_inv) == identity(len(u))
    assert abs(mat_det(u)) == 1
    assert abs(mat_det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i in range(len(diag) - 1):
        if diag[i] and diag[i + 1]:
            assert diag[i + 1] % diag[i] == 0
        if diag[i] == 0:
            assert diag[i + 1] == 0
    assert all(x >= 0 for x in diag)
    return diag


def test_snf_zero_matrix():
    assert check_snf([[0, 0], [0, 0]]) == [0, 0]


def test_snf_partial_diagonal():
    assert check_snf([[2, 0], [0, 0]]) == [2, 0]


def test_snf_klein_relation_matrix():
    # relation column 2a + 0b from the word a b a b'
    diag = check_snf([[2], [0]])
    assert diag == [2, 0][:1] or diag[:1] == [2]


@pytest.mark.parametrize("a,diag", [
    ([[2, 0], [0, 3]], [1, 6]),
    ([[4, 0], [0, 6]], [2, 12]),
    ([[0, 2], [3, 0]], [1, 6]),
])
def test_snf_divisibility_chain_of_a_diagonal_input(a, diag):
    # each input is already diagonal, or a permutation of one, with d1 not dividing d2
    assert check_snf(a) == diag


@pytest.mark.parametrize("a,diag", [
    ([[-2]], [2]),
    ([[0, -3], [5, 0]], [1, 15]),
    ([[-4, 0], [0, -6]], [2, 12]),
])
def test_snf_negative_pivots(a, diag):
    # a negative pivot is made positive by negating its row; the last two
    # also take the divisibility repair (3 does not divide 5, 4 not 6)
    assert check_snf(a) == diag


def test_snf_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(60):
        rows, cols = rng.integers(1, 6, size=2)
        a = [[int(x) for x in rng.integers(-9, 10, size=cols)] for _ in range(rows)]
        check_snf(a)


def columns(b):
    """A matrix given by rows as the sparse columns solve_integer takes."""
    return [{i: row[j] for i, row in enumerate(b) if row[j]} for j in range(len(b[0]) if b else 0)]


def solve_dense(a, b):
    """solve_integer on a matrix right-hand side given by rows; X by rows."""
    x = solve_integer(a, columns(b))
    return None if x is None else [[col.get(i, 0) for col in x] for i in range(len(a[0]))]


def test_solve_integer():
    a = [[2, 0], [0, 3]]
    b = [[4], [9]]
    x = solve_dense(a, b)
    assert mat_mul(a, x) == b
    assert solve_integer(a, [{0: 4, 1: 9}]) == [{0: 2, 1: 3}]
    assert solve_integer(a, [{0: 1}]) is None


def int_matrices(max_rows=6, max_cols=6, bound=9):
    return st.integers(1, max_rows).flatmap(lambda rows: st.integers(1, max_cols).flatmap(
        lambda cols: st.lists(st.lists(st.integers(-bound, bound), min_size=cols,
                                       max_size=cols), min_size=rows, max_size=rows)))


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_snf_properties(a):
    check_snf(a)  # U*a*V = D, the inverses, |det U| = |det V| = 1, divisibility chain, D >= 0


@settings(max_examples=200, deadline=None)
@given(int_matrices(), st.data())
def test_solve_integer_round_trip(a, data):
    x = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                           min_size=len(a[0]), max_size=len(a[0])))
    b = mat_mul(a, x)
    solution = solve_dense(a, b)
    assert solution is not None
    assert mat_mul(a, solution) == b


# The dense back-substitution through the Smith form, kept verbatim as the
# reference for solve_integer: same factors, same particular solution.


def _ref_sparse(a):
    """Rows of a matrix as (column, value) pairs of its nonzero entries."""
    return [[(j, e) for j, e in enumerate(row) if e] for row in a]


def _ref_sparse_mul(a, b):
    """a * b for a given as sparse rows."""
    out = zeros(len(a), len(b[0]) if b else 0)
    for row, acc in zip(a, out):
        for j, e in row:
            for c, x in enumerate(b[j]):
                acc[c] += e * x
    return out


def _ref_factor(a):
    u, d, v, _ = _ref_dense_smith_normal_form(a)
    return _ref_sparse(u), [d[i][i] for i in range(min(len(u), len(v)))], _ref_sparse(v)


def _ref_back_substitute(factors, b):
    """X with a*X = b, given factors = _factor(a), or None."""
    u, diag, v = factors
    ub = _ref_sparse_mul(u, b)
    y = zeros(len(v), len(b[0]) if b else 0)
    for i, row in enumerate(ub):
        di = diag[i] if i < len(diag) else 0
        for j, e in enumerate(row):
            if di == 0:
                if e != 0:
                    return None
            else:
                if e % di != 0:
                    return None
                y[i][j] = e // di
    return _ref_sparse_mul(v, y)


@settings(max_examples=200, deadline=None)
@given(int_matrices(max_rows=7, max_cols=7, bound=4), st.data())
def test_solve_integer_matches_the_dense_reference(a, data):
    cols = data.draw(st.integers(1, 4))
    x = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=cols, max_size=cols),
                           min_size=len(a[0]), max_size=len(a[0])))
    solvable = mat_mul(a, x)
    # a right-hand side off the lattice: solve_integer must agree that it has no solution
    noise = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                               min_size=len(a), max_size=len(a)))
    for b in (solvable, noise):
        assert solve_dense(a, b) == _ref_back_substitute(_ref_factor(a), b)


# ---------------------------------------------------------------------------
# GF(2) elimination on bit-packed rows


def reference_row_reduce(a):
    """Gauss-Jordan on a dense uint8 array, one column at a time."""
    m = np.array(a, np.int64) % 2
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(m[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        m[[r, p]] = m[[p, r]]
        for i in np.nonzero(m[:, c])[0]:
            if i != r:
                m[i, :] ^= m[r, :]
        pivots.append(c)
        r += 1
    return m, pivots


def bit_matrices(max_rows=9, max_cols=9):
    """0/1 matrices with 0..max_rows rows and 0..max_cols columns, as arrays."""
    return st.integers(0, max_rows).flatmap(lambda rows: st.integers(0, max_cols).flatmap(
        lambda cols: st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows).map(
            lambda a: np.array(a, np.uint8).reshape(rows, cols))))


def z2_shape(m):
    """(rows, columns) of a Z2Matrix."""
    return len(m.rows), m.cols


def unpack(rows, cols):
    """Bit-packed rows as a dense 0/1 int array of shape (len(rows), cols)."""
    return np.array([[r >> j & 1 for j in range(cols)] for r in rows], np.int64).reshape(
        len(rows), cols)


@settings(max_examples=200, deadline=None)
@given(bit_matrices())
def test_gf2_row_reduce_matches_dense_reference(a):
    reduced, pivots = gf2_row_reduce(pack_rows(a))
    expected, expected_pivots = reference_row_reduce(a)
    assert pivots == expected_pivots
    assert reduced == pack_rows(expected[:len(pivots)])
    assert gf2_rank(a) == gf2_rank(a.tolist()) == len(pivots)


@settings(max_examples=200, deadline=None)
@given(bit_matrices())
def test_gf2_nullspace_is_a_basis_of_the_kernel(a):
    basis = nullspace_rows(pack_rows(a), a.shape[1])
    assert len(basis) == a.shape[1] - gf2_rank(a)
    dense = unpack(basis, a.shape[1])
    assert not (a.astype(int) @ dense.T % 2).any()
    assert gf2_rank(dense) == len(basis)


@settings(max_examples=200, deadline=None)
@given(bit_matrices(), st.data())
def test_gf2_solve_round_trip(a, data):
    x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=a.shape[1],
                                    max_size=a.shape[1])), np.uint8)
    b = a.astype(int) @ x.astype(int) % 2
    solution = solve_rows(pack_rows(a), pack_rows([b])[0], a.shape[1])
    assert solution is not None and 0 <= solution < 1 << a.shape[1]
    assert (a.astype(int) @ unpack([solution], a.shape[1])[0] % 2).tolist() == b.tolist()
    # a right-hand side outside the column space has no solution
    rhs = data.draw(st.lists(st.integers(0, 1), min_size=a.shape[0], max_size=a.shape[0]))
    solvable = gf2_rank(np.column_stack([a, np.array(rhs, np.uint8)])) == gf2_rank(a)
    assert (solve_rows(pack_rows(a), pack_rows([rhs])[0], a.shape[1]) is not None) == solvable


def test_gf2_empty_and_zero_column_inputs():
    for shape in ((0, 0), (0, 3), (3, 0)):
        a = np.zeros(shape, np.uint8)
        rows = pack_rows(a)
        assert gf2_row_reduce(rows) == ([], [])
        assert gf2_rank(a) == 0
        assert unpack(nullspace_rows(rows, shape[1]), shape[1]).tolist() == np.eye(
            shape[1], dtype=np.uint8).tolist()
        assert solve_rows(rows, 0, shape[1]) == 0
    assert gf2_row_reduce([]) == ([], [])
    assert solve_rows([0, 0], 0b10, 0) is None


@settings(max_examples=200, deadline=None)
@given(bit_matrices())
@example(np.zeros((0, 0), np.uint8))
@example(np.zeros((0, 3), np.uint8))
@example(np.zeros((3, 0), np.uint8))
def test_z2_matrix_transpose_and_tolist_match_numpy(a):
    m = Z2Matrix(tuple(pack_rows(a)), a.shape[1])
    assert z2_shape(m) == a.shape and z2_shape(m.T) == a.T.shape
    assert m.tolist() == a.tolist()
    assert m.T.tolist() == a.T.tolist()


# ---------------------------------------------------------------------------
# homology of the standard families


def groups(word):
    return homology_groups(PolygonComplex.from_word(word))


def test_sphere():
    g = groups(S2)
    assert g.h0 == (1, ())
    assert g.h1 == (0, ())
    assert g.h2 == (1, ())


def test_projective_plane():
    g = groups(RP2)
    assert g.h1 == (0, (2,))
    assert g.h2 == (0, ())


def test_torus():
    g = groups(T2)
    assert g.h1 == (2, ())
    assert g.h2 == (1, ())


def test_klein_bottle():
    g = groups(K2)
    assert g.h1 == (1, (2,))
    assert g.h2 == (0, ())


@pytest.mark.parametrize("g", range(1, 5))
def test_sigma_g(g):
    gg = groups(sigma_word(g))
    assert gg.h1 == (2 * g, ())
    assert gg.h2 == (1, ())


@pytest.mark.parametrize("g", range(0, 5))
def test_n_g1(g):
    word = n_g1_word(g) if g else RP2
    gg = groups(word)
    assert gg.h1 == (2 * g, (2,))
    assert gg.h2 == (0, ())


@pytest.mark.parametrize("g", range(0, 5))
def test_n_g2(g):
    word = n_g2_word(g) if g else K2
    gg = groups(word)
    assert gg.h1 == (2 * g + 1, (2,))
    assert gg.h2 == (0, ())


def test_boundary_surfaces():
    cyl = GluingWord.parse("u a t' a'", boundary="u t")
    moeb = GluingWord.parse("u a t a", boundary="u t")
    g = groups(GluingWord.parse("u a t' a'", boundary="u t"))
    assert g.h0 == (1, ()) and g.h1 == (1, ())
    g = groups(moeb)
    assert g.h0 == (1, ()) and g.h1 == (1, ())
    cx = PolygonComplex.from_word(cyl)
    assert cx.euler_characteristic() == 0


def test_homology_groups_checks_that_d1_d2_vanishes():
    cx = PolygonComplex([S2.word])  # two vertices, so d1 is not zero; not the shared complex
    assert ref_boundaries(cx)[0] == [[-1], [1]]
    # the check sums each face's exponent sums over the edge ends, so the fault
    # goes there: d2 = [[1]] where a a' has [[0]]
    object.__setattr__(cx, "_face_sums", [{0: 1}])
    with pytest.raises(ValueError, match=r"d1 \* d2 != 0"):
        homology_groups(cx)


def test_homology_groups_needs_no_h1_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("homology_groups built an H1Basis")

    monkeypatch.setattr(homology, "H1Basis", refuse)
    assert groups(K2).h1 == (1, (2,))
    assert groups(n_g2_word(3)).as_dict() == {
        "h0": {"free": 1, "torsion": []},
        "h1": {"free": 7, "torsion": [2]},
        "h2": {"free": 0, "torsion": []},
    }
    assert homology_groups(orientation_double_cover_complex(n_g2_word(3)).total).h1 == (14, ())


def test_b1_mod2_torus_klein_and_rp2():
    assert b1_mod2(PolygonComplex.from_word(T2)) == 2
    assert b1_mod2(PolygonComplex.from_word(K2)) == 2
    assert b1_mod2(PolygonComplex.from_word(RP2)) == 1


@pytest.mark.parametrize("word_of", [sigma_word, n_g1_word, n_g2_word])
@pytest.mark.parametrize("g", range(1, 7))
def test_rank_path_and_basis_path_agree_on_b1_mod2(g, word_of):
    """The GF(2) ranks, the integral groups by universal coefficients and
    h1_z2_basis's basis give one dim H1(., Z2), base and cover."""
    cover = orientation_double_cover_complex(word_of(g))
    for cx in (cover.base, cover.total):
        free, torsion = homology_groups(cx).h1
        even_torsion = sum(1 for t in torsion if t % 2 == 0)
        assert b1_mod2(cx) == free + even_torsion == len(h1_z2_basis(cx)[0])


def test_b1_mod2_runs_no_integral_elimination(monkeypatch):
    # b1_mod2 reads the corner pass's counts and one GF(2) rank; it does not
    # factor the complex over Z as homology_groups does
    def refuse(*args):
        raise AssertionError("b1_mod2 ran an integral elimination")

    monkeypatch.setattr(homology, "homology_groups", refuse)
    monkeypatch.setattr(homology, "_invariant_factors", refuse)
    moebius = GluingWord.parse("a b a", boundary="b")
    for word, b1 in ((T2, 2), (K2, 2), (RP2, 1), (S2, 0), (moebius, 1), (n_g2_word(4), 10)):
        assert b1_mod2(PolygonComplex.from_word(word)) == b1
    assert b1_mod2(orientation_double_cover_complex(n_g2_word(4)).total) == 18


def orientable_closed(cx):
    """A closed connected surface is orientable iff H2 = Z."""
    return homology_groups(cx).h2 == (1, ())


def test_orientability_detection():
    assert orientable_closed(PolygonComplex.from_word(T2))
    assert not orientable_closed(PolygonComplex.from_word(K2))
    assert not orientable_closed(PolygonComplex.from_word(RP2))


# ---------------------------------------------------------------------------
# double covers and induced maps


def test_klein_double_cover_is_torus():
    cover = orientation_double_cover_complex(K2)
    assert orientable_closed(cover.total)
    assert cover.total.euler_characteristic() == 0
    g = homology_groups(cover.total)
    assert g.h1 == (2, ())


def test_rp2_double_cover_is_sphere():
    cover = orientation_double_cover_complex(RP2)
    assert orientable_closed(cover.total)
    assert cover.total.euler_characteristic() == 2
    assert homology_groups(cover.total).h1 == (0, ())


@pytest.mark.parametrize("g", range(0, 5))
def test_ng1_double_cover_is_sigma_2g(g):
    word = n_g1_word(g) if g else RP2
    cover = orientation_double_cover_complex(word)
    assert orientable_closed(cover.total)
    assert homology_groups(cover.total).h1 == (4 * g, ())


@pytest.mark.parametrize("g", range(0, 5))
def test_ng2_double_cover_is_sigma_2g_plus_1(g):
    word = n_g2_word(g) if g else K2
    cover = orientation_double_cover_complex(word)
    assert orientable_closed(cover.total)
    assert homology_groups(cover.total).h1 == (4 * g + 2, ())


def test_torus_to_klein_push_forward_matrix():
    cover = orientation_double_cover_complex(K2)
    maps = induced_maps(cover)
    # canonical bases: H1(T2) = Z^2, H1(K2) = Z (+) Z2.
    # the push-forward sends one generator to twice the free one and the
    # other to the torsion generator: pi_*(1,0) = (2,0), pi_*(0,1) = (0,1).
    assert maps.base_orders == [0, 2]
    cols = {tuple(maps.push_z[i][j] % (maps.base_orders[i] or 0)
                  if maps.base_orders[i] else maps.push_z[i][j]
                  for i in range(2)) for j in range(2)}
    normalized = set()
    for col in cols:
        free, tors = col
        normalized.add((abs(free), tors % 2))
    assert normalized == {(2, 0), (0, 1)}


def test_induced_maps_kernel_and_index():
    for word in (RP2, K2, n_g1_word(1), n_g2_word(1), n_g1_word(2)):
        maps = induced_maps(orientation_double_cover_complex(word))
        assert maps.image_index_z2 == 2
        assert z2_shape(maps.kernel_pull)[0] == 1
        assert maps.splitting_k == maps.b1_mod2_total - maps.b1_mod2_base + 1


def test_rp2_induced_maps_are_zero():
    maps = induced_maps(orientation_double_cover_complex(RP2))
    assert maps.b1_mod2_base == 1
    assert maps.b1_mod2_total == 0
    assert z2_shape(maps.push_z2) == (1, 0)
    assert maps.kernel_pull.tolist() == [[1]]
    # the cover s2 has no generators: pi_* keeps the base generator's empty row
    assert (maps.push_z, maps.base_orders) == ([[]], [2])


# up to the genus of the families benchmark, against the classification: the
# cover of N_h is the genus h - 1 surface, and dim Ker pi^* = 1
@pytest.mark.parametrize("g", range(0, 17))
def test_splitting_bookkeeping(g):
    for word, k in ((n_g1_word(g) if g else RP2, 1), (n_g2_word(g) if g else K2, 2)):
        h = 2 * g + k
        maps = induced_maps(orientation_double_cover_complex(word))
        assert maps.splitting_k == h - 1
        assert (maps.b1_mod2_base, maps.b1_mod2_total) == (h, 2 * (h - 1))
        assert (maps.coker_pull_dim, maps.image_index_z2) == (h - 1, 2)
        assert maps.push_z2 == maps.pull_z2.T
        assert z2_shape(maps.push_z2) == (h, 2 * (h - 1))


def assert_z2_maps_classify(model):
    """z2_maps of a closed non-orientable model with one vertex and one face
    against the classification, with nothing read off the homology code but
    the basis the coordinates are in: chi = 1 - E + 1, so h = 2 - chi is the
    letter count; N_h is covered by the genus h - 1 surface; and Ker pi^* is
    {0, w1}, with w1 from the Wu solve, in coordinates as criterion 7 takes
    them."""
    h = len(model.word.letters)
    cover = orientation_double_cover_complex(model.word)
    maps = z2_maps(cover)
    assert (maps.b1_mod2_base, maps.b1_mod2_total) == (h, 2 * (h - 1))
    assert maps.splitting_k == maps.coker_pull_dim == h - 1
    assert maps.image_index_z2 == 2
    basis, _ = h1_z2_basis(cover.base)
    klass = w1(model)
    bits = sum(klass(g) << j for j, g in enumerate(cover.base.edges))
    w1_coords = sum(((row & bits).bit_count() % 2) << i for i, row in enumerate(basis))
    assert w1_coords and maps.kernel_pull.rows == (w1_coords,)


@pytest.mark.parametrize("g", range(0, 17))
def test_z2_maps_classify_the_families(g):
    for k in (1, 2):
        assert_z2_maps_classify(build(f"n({g},{k})"))


@settings(max_examples=200, deadline=None)
@given(closed_words().filter(
    lambda word: not _ref_is_orientable([word.word])
    and _RefPolygonComplex([word.word], frozenset()).vertex_count == 1))
def test_z2_maps_classify_random_one_vertex_words(word):
    assert_z2_maps_classify(SurfaceModel("w", FAMILY_ONLY, word, False, 0))


def family_words(max_g):
    """Name -> word of sigma_g (g >= 1), N_{g,1} and N_{g,2} (g >= 0), for g <= max_g."""
    words = {f"sigma({g})": sigma_word(g) for g in range(1, max_g + 1)}
    for g in range(max_g + 1):
        words[f"n({g},1)"] = n_g1_word(g) if g else RP2
        words[f"n({g},2)"] = n_g2_word(g) if g else K2
    return words


FAMILIES_TO_8 = family_words(8)
NONORIENTABLE_TO_6 = {name: word for name, word in family_words(6).items()
                      if word.one_sided}


@pytest.mark.parametrize("word", FAMILIES_TO_8.values(), ids=list(FAMILIES_TO_8))
def test_coordinates_of_representatives_are_unit_vectors(word):
    cx = PolygonComplex.from_word(word)
    basis = H1Basis(cx)
    n = basis.free_rank + len(basis.torsion)
    for i in range(n):
        free, tors = basis.coordinates(basis.representative(i))
        assert list(free + tors) == [int(j == i) for j in range(n)]


def test_representatives_are_fresh_sparse_cycles():
    # a representative is the caller's {edge: coefficient} dict: changing it
    # leaves the basis, and the next call, as they were
    cx = orientation_double_cover_complex(n_g2_word(2)).total
    basis = H1Basis(cx)
    assert basis.free_rank
    for i in range(basis.free_rank):
        chain = basis.representative(i)
        assert chain and all(0 <= e < len(cx.edges) and c for e, c in chain.items())
        kept = dict(chain)
        chain.clear()
        assert basis.representative(i) == kept


def test_one_check_that_d1_d2_vanishes():
    # one edge between two vertices bounding a face: d1 * d2 is that edge's
    # ends.  No gluing word makes it, so the boundaries are built by hand; the
    # check refuses them, and H1Basis and homology_groups both run the check.
    bad = SimpleNamespace(edges=["a"], faces=[(("a", 1),)], edge_ends={"a": (0, 1)},
                          _face_sums=[{0: 1}], vertex_count=2, component_count=1)
    for reader in (homology._check_boundaries, H1Basis, homology_groups):
        with pytest.raises(ValueError, match="d1 \\* d2 != 0"):
            reader(bad)
    # s2's letter cancels on its face: its sum there is 0, which the check
    # passes, and d2 is zero
    s2 = PolygonComplex.from_word(S2)
    assert (s2._face_sums, s2.edge_ends) == ([{0: 0}], {"a": (0, 1)})
    homology._check_boundaries(s2)
    basis = H1Basis(s2)
    assert (basis.free_rank, basis.torsion) == (0, ())


def greedy_z2_basis(cx):
    """The GF(2) nullspace cycles of d1, in order, that the boundaries and the
    earlier cycles do not span, by one incremental elimination of packed rows
    in which every stored row has a lowest bit of its own."""
    d1, d2 = ref_boundaries(cx)
    stored: dict[int, int] = {}  # lowest bit -> row

    def independent(vec):
        while vec and vec & -vec in stored:
            vec ^= stored[vec & -vec]
        if vec:
            stored[vec & -vec] = vec
        return bool(vec)

    for row in pack_rows(zip(*d2)):
        independent(row)
    return [cycle for cycle in nullspace_rows(pack_rows(d1), len(cx.edges)) if independent(cycle)]


@pytest.mark.parametrize("word", [K2, RP2, T2, n_g2_word(2)], ids=["k2", "rp2", "t2", "n22"])
def test_z2_projection_of_cycles_and_boundaries(word):
    for cx in (PolygonComplex.from_word(word), orientation_double_cover_complex(word).total):
        basis, project = h1_z2_basis(cx)
        assert basis == greedy_z2_basis(cx)
        boundaries = pack_rows(zip(*ref_boundaries(cx)[1]))
        for i, row in enumerate(basis):
            assert project(row) == 1 << i
            assert project(row ^ boundaries[0]) == 1 << i
        assert project(functools.reduce(operator.xor, boundaries)) == 0


@settings(max_examples=300, deadline=None)
@given(st.one_of(gluing_faces(), disconnected_gluings()))
def test_z2_basis_is_the_greedy_basis_on_random_gluings(fb):
    # multi-vertex and multi-face complexes: the forest's cycles, in ascending
    # cotree order, are the GF(2) nullspace of d1, cycle for cycle
    faces, boundary = fb
    cx = PolygonComplex(faces, boundary)
    assert h1_z2_basis(cx)[0] == greedy_z2_basis(cx)


@pytest.mark.parametrize("klein, faces", GRIDS.values(), ids=list(GRIDS))
def test_z2_basis_is_the_greedy_basis_on_grids(klein, faces):
    cx = PolygonComplex(faces)
    basis, project = h1_z2_basis(cx)
    assert basis == greedy_z2_basis(cx)
    # H1(T2, Z2) and H1(K2, Z2) are both Z2^2
    assert [project(row) for row in basis] == [1, 2]


@pytest.mark.parametrize("word", [K2, RP2, n_g2_word(2)], ids=["k2", "rp2", "n22"])
def test_non_cycles_raise(word):
    # the cover has two vertices, so some of its edges are not cycles, mod 2 too
    cx = orientation_double_cover_complex(word).total
    _, project = h1_z2_basis(cx)
    basis = H1Basis(cx)
    d1 = ref_boundaries(cx)[0]
    non_cycles = [e for e in range(len(cx.edges)) if any(row[e] % 2 for row in d1)]
    assert non_cycles
    for e in non_cycles:
        with pytest.raises(ValueError, match="not a cycle"):
            project(1 << e)
        with pytest.raises(ValueError, match="not a 1-cycle"):
            basis.coordinates({e: 1})
    # an edge outside 0 .. E - 1 is refused, not read modulo E or past the end
    for e in (len(cx.edges), -1):
        with pytest.raises(ValueError, match="edges are 0 to"):
            basis.coordinates({e: 0})


def reference_push_z(cover):
    """pi_* in canonical bases, with a fresh dense Smith form and solve per
    call: the reference shares no factor code with induced_maps."""

    def solve_dense(a, b):
        return _ref_back_substitute(_ref_factor(a), b)

    def basis_of(cx):
        d1, d2 = ref_boundaries(cx)
        _, dd1, v1, _ = _ref_dense_smith_normal_form(d1)
        n_edges = len(d2)
        rank1 = sum(1 for i in range(min(len(dd1), n_edges)) if dd1[i][i])
        kernel = [row[rank1:] for row in v1]
        ux, dx, _, _ = _ref_dense_smith_normal_form(solve_dense(kernel, d2))
        k = len(kernel[0])
        orders = [dx[i][i] if i < min(len(dx), len(dx[0])) else 0 for i in range(k)]
        order = ([i for i in range(k) if orders[i] == 0]
                 + [i for i in range(k) if orders[i] > 1])
        return kernel, ux, orders, order

    base_k, base_ux, base_orders, base_order = basis_of(cover.base)
    total_k, total_ux, _, total_order = basis_of(cover.total)
    base_idx = {name: i for i, name in enumerate(cover.base.edges)}
    columns = []
    for i in total_order:
        inv = solve_dense(total_ux, identity(len(total_ux)))
        chain = [sum(row[j] * inv[j][i] for j in range(len(inv))) for row in total_k]
        pushed = [0] * len(cover.base.edges)
        for name, c in zip(cover.total.edges, chain):
            pushed[base_idx[cover.edge_map[name]]] += c
        coords = mat_mul(base_ux, solve_dense(base_k, [[c] for c in pushed]))
        columns.append([coords[r][0] % base_orders[r] if base_orders[r] else coords[r][0]
                        for r in base_order])
    return [list(row) for row in zip(*columns)] if columns else [[] for _ in base_order]


@pytest.mark.parametrize("word", NONORIENTABLE_TO_6.values(), ids=list(NONORIENTABLE_TO_6))
def test_push_z_matches_per_call_reference(word):
    cover = orientation_double_cover_complex(word)
    assert induced_maps(cover).push_z == reference_push_z(cover)


def test_snf_calls_of_induced_maps_do_not_grow_with_genus(monkeypatch):
    calls = []
    original = homology.smith_normal_form

    def counting(a):
        calls.append(len(a))
        return original(a)

    monkeypatch.setattr(homology, "smith_normal_form", counting)
    counts = []
    for g in (4, 16):
        calls.clear()
        induced_maps(orientation_double_cover_complex(n_g2_word(g)))
        counts.append(len(calls))
    # one a basis, of d2 in its kernel basis: the cycles come from the forest
    assert counts == [2, 2]


def test_homology_groups_builds_no_smith_factors(monkeypatch):
    def refuse(a):
        raise AssertionError("homology_groups needs only the invariant factors")

    monkeypatch.setattr(homology, "smith_normal_form", refuse)
    cx = orientation_double_cover_complex(n_g2_word(4)).total
    assert homology_groups(cx).h1 == (18, ())  # the cover of N_10 is sigma(9)
    assert homology_groups(PolygonComplex.from_word(n_g1_word(1))).h1 == (2, (2,))


def test_word_validation():
    with pytest.raises(ValueError):
        GluingWord.parse("a a a")
    with pytest.raises(ValueError):
        GluingWord.parse("a b a")
    # a boundary letter outside the word would be read as closed rp2
    with pytest.raises(ValueError, match="boundary letter b does not occur"):
        GluingWord.parse("x x", boundary="b")


def all_test_words():
    words = [T2, K2, RP2, S2]
    words += [sigma_word(g) for g in range(1, 5)]
    words += [n_g1_word(g) for g in range(1, 5)]
    words += [n_g2_word(g) for g in range(1, 5)]
    return words


def test_boundary_maps_compose_to_zero():
    for word in all_test_words():
        for cx in (PolygonComplex.from_word(word),
                   orientation_double_cover_complex(word).total):
            product = mat_mul(*ref_boundaries(cx))
            assert all(all(e == 0 for e in row) for row in product)
            homology._check_boundaries(cx)


def test_universal_coefficients_consistency():
    # dim H1(X, Z2) = rank H1(X, Z) + number of 2-torsion factors
    for word in all_test_words():
        cx = PolygonComplex.from_word(word)
        free, torsion = homology_groups(cx).h1
        even_torsion = sum(1 for t in torsion if t % 2 == 0)
        assert len(h1_z2_basis(cx)[0]) == free + even_torsion


# ---------------------------------------------------------------------------
# one complex per word, shared by every op that reads it


def test_from_word_is_the_words_shared_complex():
    word = GluingWord.parse("a b a b'")
    assert PolygonComplex.from_word(word) is word.complex
    assert PolygonComplex.from_word(word) is PolygonComplex.from_word(word)
    # an equal word has its own complex, equal to the first
    twin = GluingWord.parse("a b a b'")
    assert twin.complex is not word.complex and twin.complex == word.complex


def test_a_shared_complex_refuses_assignment():
    cx = n_g2_word(2).complex
    for name in PolygonComplex.__slots__:
        before = getattr(cx, name)
        with pytest.raises(AttributeError, match="frozen"):
            setattr(cx, name, None)
        with pytest.raises(AttributeError, match="frozen"):
            delattr(cx, name)
        assert getattr(cx, name) is before


OPS = ("homology", "obstructions", "covermaps", "descend")


def _answer(op, word, orientable):
    """One families op on the word: its answer, or the ValueError it raises."""
    model = SurfaceModel("w", FAMILY_ONLY, word, orientable, 0)
    try:
        if op == "homology":
            cx = PolygonComplex.from_word(word)
            return homology_groups(cx), b1_mod2(cx), h1_z2_basis(cx)[0]
        if op == "obstructions":
            return obstructions(model)
        if op == "covermaps":
            return induced_maps(orientation_double_cover_complex(word))
        return descend(model, "pin+"), descend(model, "pin-")
    except ValueError as e:
        return str(e)


def assert_same_answers_in_every_order(word):
    orientable = not word.one_sided  # one closed polygon
    # each op alone on a fresh word
    want = {op: _answer(op, GluingWord(word.word), orientable) for op in OPS}
    for order in itertools.permutations(OPS):
        shared = GluingWord(word.word)
        assert {op: _answer(op, shared, orientable) for op in order} == want, order
        # and again, every op on the complex the first ones built
        assert {op: _answer(op, shared, orientable) for op in reversed(order)} == want


FAMILY_WORDS_UP_TO_8 = [canonical_word(family, g) for g in range(9)
                        for family in ("sigma", "n1", "n2") if g or family != "sigma"]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(FAMILY_WORDS_UP_TO_8), st.integers(0, 2 ** 32))
def test_ops_agree_in_every_order_on_relabelled_family_words(word, seed):
    assert_same_answers_in_every_order(
        GluingWord(tuple(relabel(word, random.Random(seed), "s"))))


@st.composite
def closed_words(draw, max_letters=8):
    """One-polygon words in which each of 1..max_letters letters occurs twice."""
    letters = [f"e{i}" for i in range(draw(st.integers(1, max_letters)))]
    names = draw(st.permutations(letters * 2))
    return GluingWord(tuple((name, draw(st.sampled_from((1, -1)))) for name in names))


@settings(max_examples=25, deadline=None)
@given(closed_words())
def test_ops_agree_in_every_order_on_random_words(word):
    assert_same_answers_in_every_order(word)


@pytest.mark.parametrize("word", [K2, n_g1_word(3), n_g2_word(4), GluingWord.parse("a b a' c b c")],
                         ids=["k2", "n31", "n42", "multi-vertex"])
def test_readers_leave_the_stored_rows_unchanged(word):
    cover = orientation_double_cover_complex(word)
    complexes = (word.complex, cover.total)  # a list of faces makes a complex unhashable
    # every slot but the spanning forest, which the first reader keeps
    stored = [{name: copy.deepcopy(getattr(cx, name)) for name in PolygonComplex.__slots__
               if name != "_cycles"} for cx in complexes]
    for cx in complexes:
        h1_z2_basis(cx)
    induced_maps(cover)
    induced_maps(orientation_double_cover_complex(word))
    for cx, slots in zip(complexes, stored):
        for name, value in slots.items():
            assert getattr(cx, name) == value, name
        assert cx._cycles == homology._cycle_basis(PolygonComplex(cx.faces, cx.boundary_letters))
