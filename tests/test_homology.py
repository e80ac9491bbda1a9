import functools
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pincover import homology
from pincover.homology import (
    GluingWord,
    H1Basis,
    PolygonComplex,
    Z2Matrix,
    b1_mod2,
    gf2_rank,
    gf2_row_reduce,
    h1_z2_basis,
    homology_groups,
    identity,
    induced_maps,
    mat_det,
    mat_mul,
    nullspace_rows,
    orientation_double_cover_complex,
    pack_rows,
    smith_normal_form,
    solve_integer,
    solve_rows,
    z2_betti,
)

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


# ---------------------------------------------------------------------------
# Smith normal form


def check_snf(a):
    u, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
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
    check_snf(a)  # U*a*V = D, |det U| = |det V| = 1, divisibility chain, D >= 0


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
    out = homology.zeros(len(a), len(b[0]) if b else 0)
    for row, acc in zip(a, out):
        for j, e in row:
            for c, x in enumerate(b[j]):
                acc[c] += e * x
    return out


def _ref_factor(a):
    u, d, v = smith_normal_form(a)
    return _ref_sparse(u), [d[i][i] for i in range(min(len(u), len(v)))], _ref_sparse(v)


def _ref_back_substitute(factors, b):
    """X with a*X = b, given factors = _factor(a), or None."""
    u, diag, v = factors
    ub = _ref_sparse_mul(u, b)
    y = homology.zeros(len(v), len(b[0]) if b else 0)
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
    assert m.shape == a.shape and m.T.shape == a.T.shape
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


def test_z2_betti_torus_and_klein():
    assert z2_betti(PolygonComplex.from_word(T2)) == (1, 2, 1)
    assert z2_betti(PolygonComplex.from_word(K2)) == (1, 2, 1)
    assert z2_betti(PolygonComplex.from_word(RP2)) == (1, 1, 1)


@pytest.mark.parametrize("word_of", [sigma_word, n_g1_word, n_g2_word])
@pytest.mark.parametrize("g", range(1, 7))
def test_rank_path_and_basis_path_agree_on_b1_mod2(g, word_of):
    """z2_betti's ranks and h1_z2_basis's basis give one dim H1(., Z2), base and cover."""
    cover = orientation_double_cover_complex(word_of(g))
    for cx in (cover.base, cover.total):
        assert b1_mod2(cx) == len(h1_z2_basis(cx)[0])


def test_orientability_detection():
    assert PolygonComplex.from_word(T2).is_orientable()
    assert not PolygonComplex.from_word(K2).is_orientable()
    assert not PolygonComplex.from_word(RP2).is_orientable()


# ---------------------------------------------------------------------------
# double covers and induced maps


def test_klein_double_cover_is_torus():
    cover = orientation_double_cover_complex(K2)
    assert cover.total.is_orientable()
    assert cover.total.euler_characteristic() == 0
    g = homology_groups(cover.total)
    assert g.h1 == (2, ())


def test_rp2_double_cover_is_sphere():
    cover = orientation_double_cover_complex(RP2)
    assert cover.total.is_orientable()
    assert cover.total.euler_characteristic() == 2
    assert homology_groups(cover.total).h1 == (0, ())


@pytest.mark.parametrize("g", range(0, 5))
def test_ng1_double_cover_is_sigma_2g(g):
    word = n_g1_word(g) if g else RP2
    cover = orientation_double_cover_complex(word)
    assert cover.total.is_orientable()
    assert homology_groups(cover.total).h1 == (4 * g, ())


@pytest.mark.parametrize("g", range(0, 5))
def test_ng2_double_cover_is_sigma_2g_plus_1(g):
    word = n_g2_word(g) if g else K2
    cover = orientation_double_cover_complex(word)
    assert cover.total.is_orientable()
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
        assert maps.kernel_pull.shape[0] == 1
        assert maps.splitting_k == maps.b1_mod2_total - maps.b1_mod2_base + 1


def test_rp2_induced_maps_are_zero():
    maps = induced_maps(orientation_double_cover_complex(RP2))
    assert maps.b1_mod2_base == 1
    assert maps.b1_mod2_total == 0
    assert maps.push_z2.shape == (1, 0)
    assert maps.kernel_pull.tolist() == [[1]]


@pytest.mark.parametrize("g", range(0, 4))
def test_splitting_bookkeeping(g):
    for word, expected_k in ((n_g1_word(g) if g else RP2, 2 * g),
                             (n_g2_word(g) if g else K2, 2 * g + 1)):
        maps = induced_maps(orientation_double_cover_complex(word))
        assert maps.splitting_k == expected_k


def family_words(max_g):
    """Name -> word of sigma_g (g >= 1), N_{g,1} and N_{g,2} (g >= 0), for g <= max_g."""
    words = {f"sigma({g})": sigma_word(g) for g in range(1, max_g + 1)}
    for g in range(max_g + 1):
        words[f"n({g},1)"] = n_g1_word(g) if g else RP2
        words[f"n({g},2)"] = n_g2_word(g) if g else K2
    return words


FAMILIES_TO_8 = family_words(8)
NONORIENTABLE_TO_6 = {name: word for name, word in family_words(6).items()
                      if not word.is_orientable_word()}


@pytest.mark.parametrize("word", FAMILIES_TO_8.values(), ids=list(FAMILIES_TO_8))
def test_coordinates_of_representatives_are_unit_vectors(word):
    cx = PolygonComplex.from_word(word)
    basis = H1Basis(cx.d1(), cx.d2())
    n = basis.free_rank + len(basis.torsion)
    for i in range(n):
        free, tors = basis.coordinates(basis.representative(i))
        assert list(free + tors) == [int(j == i) for j in range(n)]


def greedy_z2_basis(cx):
    """The nullspace cycles, in order, that the boundaries and earlier cycles do not span."""
    n = len(cx.edges)

    def rank(rows):
        return len(reference_row_reduce(np.array(rows, np.uint8).reshape(len(rows), n))[1])

    span = [[e % 2 for e in row] for row in zip(*cx.d2())]
    kept = []
    for cycle in nullspace_rows(pack_rows(cx.d1()), n):
        row = [cycle >> j & 1 for j in range(n)]
        if rank(span + [row]) > rank(span):
            span.append(row)
            kept.append(cycle)
    return kept


@pytest.mark.parametrize("word", [K2, RP2, T2, n_g2_word(2)], ids=["k2", "rp2", "t2", "n22"])
def test_z2_projection_of_cycles_and_boundaries(word):
    for cx in (PolygonComplex.from_word(word), orientation_double_cover_complex(word).total):
        basis, project = h1_z2_basis(cx)
        assert basis == greedy_z2_basis(cx)
        boundaries = pack_rows(zip(*cx.d2()))
        for i, row in enumerate(basis):
            assert project(row) == 1 << i
            assert project(row ^ boundaries[0]) == 1 << i
        assert project(functools.reduce(operator.xor, boundaries)) == 0


@pytest.mark.parametrize("word", [K2, RP2, n_g2_word(2)], ids=["k2", "rp2", "n22"])
def test_non_cycles_raise(word):
    # the cover has two vertices, so some of its edges are not cycles, mod 2 too
    cx = orientation_double_cover_complex(word).total
    _, project = h1_z2_basis(cx)
    basis = H1Basis(cx.d1(), cx.d2())
    d1 = cx.d1()
    non_cycles = [e for e in range(len(cx.edges)) if any(row[e] % 2 for row in d1)]
    assert non_cycles
    for e in non_cycles:
        chain = [int(j == e) for j in range(len(cx.edges))]
        with pytest.raises(ValueError, match="not a cycle"):
            project(1 << e)
        with pytest.raises(ValueError, match="not a 1-cycle"):
            basis.coordinates(chain)
    with pytest.raises(ValueError, match="entries"):
        basis.coordinates([0] * (len(cx.edges) + 1))


def reference_push_z(cover):
    """pi_* in canonical bases, with a fresh solve_integer (and SNF) per call."""

    def basis_of(cx):
        d1, d2 = cx.d1(), cx.d2()
        _, dd1, v1 = smith_normal_form(d1)
        n_edges = len(d2)
        rank1 = sum(1 for i in range(min(len(dd1), n_edges)) if dd1[i][i])
        kernel = [row[rank1:] for row in v1]
        ux, dx, _ = smith_normal_form(solve_dense(kernel, d2))
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
    assert counts[0] == counts[1]


def test_word_validation():
    with pytest.raises(ValueError):
        GluingWord.parse("a a a")
    with pytest.raises(ValueError):
        GluingWord.parse("a b a")


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
            product = mat_mul(cx.d1(), cx.d2())
            assert all(all(e == 0 for e in row) for row in product)


def test_universal_coefficients_consistency():
    # dim H1(X, Z2) = rank H1(X, Z) + number of 2-torsion factors
    for word in all_test_words():
        cx = PolygonComplex.from_word(word)
        free, torsion = homology_groups(cx).h1
        even_torsion = sum(1 for t in torsion if t % 2 == 0)
        assert z2_betti(cx)[1] == free + even_torsion
