"""Stiefel-Whitney tests, including a brute-force simplicial cup-product oracle."""

import re

import numpy as np
import pytest

from pincover import characteristic, homology
from pincover.characteristic import chord_gram_matrix, obstructions, w1, w1_cup_w1, w2
from pincover.homology import (
    GluingWord,
    gf2_row_reduce,
    h1_z2_basis,
    homology_groups,
    induced_maps,
    nullspace_rows,
    orientation_double_cover_complex,
    solve_rows,
)
from pincover.pin2 import PIN_MINUS, PIN_PLUS
from pincover.surface import FAMILY_ONLY, SurfaceModel, build
from test_kernel_references import pack_rows

# ---------------------------------------------------------------------------
# independent oracle: simplicial Z2 cohomology with cup products

RP2_FACES = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def torus_faces(n=4):
    faces = []
    for i in range(n):
        for j in range(n):
            a = (i, j)
            b = ((i + 1) % n, j)
            c = (i, (j + 1) % n)
            d = ((i + 1) % n, (j + 1) % n)
            faces.append((a, b, d))
            faces.append((a, d, c))
    return faces


def klein_faces(n=4):
    # x wraps straight; crossing y = n flips x (the square-model identification)
    def v(i, j):
        if j == n:
            return ((n - i) % n, 0)
        return (i % n, j)

    faces = []
    for i in range(n):
        for j in range(n):
            a = v(i, j)
            b = v(i + 1, j)
            c = v(i, j + 1)
            d = v(i + 1, j + 1)
            faces.append((a, b, d))
            faces.append((a, d, c))
    return faces


class SimplicialSurface:
    """Closed triangulated surface with Z2 cochain calculus."""

    def __init__(self, faces):
        verts = sorted({v for f in faces for v in f})
        self.vindex = {v: i for i, v in enumerate(verts)}
        self.faces = [tuple(sorted(self.vindex[v] for v in f)) for f in faces]
        assert len(set(self.faces)) == len(self.faces), "duplicate faces"
        for f in self.faces:
            assert len(set(f)) == 3, "degenerate face"
        edges = set()
        for a, b, c in self.faces:
            edges |= {(a, b), (a, c), (b, c)}
        self.edges = sorted(edges)
        self.eindex = {e: i for i, e in enumerate(self.edges)}
        counts = {e: 0 for e in self.edges}
        for a, b, c in self.faces:
            for e in ((a, b), (a, c), (b, c)):
                counts[e] += 1
        assert all(k == 2 for k in counts.values()), "not a closed surface"
        self.nv = len(verts)

    def euler(self):
        return self.nv - len(self.edges) + len(self.faces)

    def delta0(self):
        m = np.zeros((len(self.edges), self.nv), dtype=np.uint8)
        for i, (a, b) in enumerate(self.edges):
            m[i, a] ^= 1
            m[i, b] ^= 1
        return m

    def delta1(self):
        m = np.zeros((len(self.faces), len(self.edges)), dtype=np.uint8)
        for i, (a, b, c) in enumerate(self.faces):
            for e in ((a, b), (a, c), (b, c)):
                m[i, self.eindex[e]] ^= 1
        return m

    def h1_cocycle_basis(self):
        n = len(self.edges)
        cocycles = nullspace_rows(pack_rows(self.delta1()), n)
        current, _ = gf2_row_reduce(pack_rows(self.delta0().T))  # rows span im(delta0)
        basis = []
        for row in cocycles:
            extended, _ = gf2_row_reduce(current + [row])
            if len(extended) > len(current):
                basis.append(np.array([row >> j & 1 for j in range(n)], dtype=np.uint8))
                current = extended
        return basis

    def cup_eval(self, alpha, beta):
        """<alpha cup beta, [X]> with the ordered-simplex cup product."""
        total = 0
        for a, b, c in self.faces:
            total ^= alpha[self.eindex[(a, b)]] & beta[self.eindex[(b, c)]]
        return total

    def wu_class_square(self):
        """Find the unique v with v cup x = x cup x for all x; return <v cup v>."""
        basis = self.h1_cocycle_basis()
        if not basis:
            return 0
        k = len(basis)
        pairing = pack_rows(
            [[self.cup_eval(basis[i], basis[j]) for j in range(k)] for i in range(k)])
        squares = pack_rows([[self.cup_eval(b, b) for b in basis]])[0]
        coeffs = solve_rows(pairing, squares, k)
        assert coeffs is not None, "cup pairing degenerate"
        v = np.zeros_like(basis[0])
        for i, b in enumerate(basis):
            if coeffs >> i & 1:
                v ^= b
        return self.cup_eval(v, v)


def test_oracle_triangulations_are_valid():
    rp2 = SimplicialSurface(RP2_FACES)
    assert rp2.euler() == 1
    assert len(rp2.h1_cocycle_basis()) == 1
    t2 = SimplicialSurface(torus_faces())
    assert t2.euler() == 0
    assert len(t2.h1_cocycle_basis()) == 2
    k2 = SimplicialSurface(klein_faces())
    assert k2.euler() == 0
    assert len(k2.h1_cocycle_basis()) == 2


def test_w1_cup_w1_against_simplicial_oracle():
    assert w1_cup_w1(build("rp2")) == SimplicialSurface(RP2_FACES).wu_class_square() == 1
    assert w1_cup_w1(build("k2")) == SimplicialSurface(klein_faces()).wu_class_square() == 0
    assert w1_cup_w1(build("t2")) == SimplicialSurface(torus_faces()).wu_class_square() == 0


# ---------------------------------------------------------------------------
# w1


def test_w1_klein_bottle():
    bits = w1(build("k2")).bits
    assert bits == {"a": 0, "b": 1}


def test_w1_torus_vanishes():
    assert not any(w1(build("t2")).bits.values())


def test_w1_projective_plane():
    assert w1(build("rp2")).bits == {"x": 1}


def all_closed_models():
    names = ["s2", "rp2", "t2", "k2"]
    names += [f"sigma({g})" for g in range(2, 5)]
    names += [f"n({g},1)" for g in range(1, 5)]
    names += [f"n({g},2)" for g in range(1, 5)]
    return [build(n) for n in names]


def test_w1_zero_iff_orientable():
    for model in all_closed_models():
        assert (not any(w1(model).bits.values())) == model.orientable
        # a closed connected surface is orientable iff H2 = Z
        assert (homology_groups(model.complex).h2 == (1, ())) == model.orientable


def test_w1_spans_kernel_of_pullback():
    for model in all_closed_models():
        if model.orientable:
            continue
        cover = orientation_double_cover_complex(model.word)
        maps = induced_maps(cover)
        basis, _ = h1_z2_basis(cover.base)
        klass = w1(model)
        bits = sum(klass(g) << j for j, g in enumerate(cover.base.edges))
        w1_coords = sum(((row & bits).bit_count() % 2) << i for i, row in enumerate(basis))
        assert maps.kernel_pull.rows == (w1_coords,)


def cover_w1_coordinates(model) -> int:
    """w1 in h1_z2_basis coordinates of the base, from the cover alone: the one
    row of Ker pi^*, or 0 for an orientable surface."""
    if model.orientable:
        return 0
    (row,) = induced_maps(orientation_double_cover_complex(model.word)).kernel_pull.rows
    return row


def w1_coordinates(model, klass) -> int:
    basis, _ = h1_z2_basis(model.complex)
    bits = sum(klass(g) << j for j, g in enumerate(model.complex.edges))
    return sum(((row & bits).bit_count() % 2) << i for i, row in enumerate(basis))


def word_model(text):
    word = GluingWord.parse(text)
    return SurfaceModel(text, FAMILY_ONLY, word, not word.one_sided, 0)


def test_w1_and_its_square_on_alternating_words():
    # the Wu solve is kept for the last word only: alternating words, some on
    # the same letters, must each get their own answer, whichever of w1 and
    # w1_cup_w1 comes first; the cover's pull-back and w2 are the truth
    models = [word_model(t) for t in ("a b a' b", "a b a' b'", "a a b b", "a b b a",
                                      "a b c a' b' c")]
    models += [build(name) for name in ("k2", "n(3,1)", "sigma(2)", "n(2,2)", "rp2")]
    truth = [(cover_w1_coordinates(m), w2(m)) for m in models]
    order = [0, 1, 0, 1, 2, 3, 2, 1, 4, 5, 6, 5, 7, 8, 9, 8, 0, 9, 3, 3]
    for step, i in enumerate(order):
        model = models[i]
        if step % 2:
            square, klass = w1_cup_w1(model), w1(model)
        else:
            klass, square = w1(model), w1_cup_w1(model)
        assert (w1_coordinates(model, klass), square) == truth[i], model.name
        assert set(klass.bits) == set(model.word.letters)


def test_w1_on_equal_but_distinct_words():
    for name in ("k2", "n(3,2)", "n(2,1)", "t2"):
        model = build(name)
        twin = model._replace(word=GluingWord(model.word.word, model.word.boundary_letters))
        assert twin.word == model.word and twin.word is not model.word
        for a, b in ((model, twin), (twin, model), (model, model)):
            assert (w1(a), w1_cup_w1(a)) == (w1(b), w1_cup_w1(b))
        assert w1_coordinates(twin, w1(twin)) == cover_w1_coordinates(model)
        assert obstructions(twin).as_dict() == obstructions(model).as_dict()


def test_wu_solve_runs_no_row_reduction(monkeypatch):
    # solve_rows eliminates forward only and back-substitutes one solution
    models = [build(name) for name in ("k2", "n(3,1)", "n(8,2)")]
    want = [w1(model) for model in models]

    def refuse(_):
        raise AssertionError("gf2_row_reduce called")

    monkeypatch.setattr(homology, "gf2_row_reduce", refuse)
    for model, klass in zip(models, want):
        twin = model._replace(word=GluingWord(model.word.word))  # a word not solved yet
        assert w1(twin) == klass


# ---------------------------------------------------------------------------
# w2, Wu consistency, obstruction reports


def test_w2_values():
    assert w2(build("rp2")) == 1
    assert w2(build("k2")) == 0
    assert w2(build("s2")) == 0


def test_wu_consistency_all_families():
    for model in all_closed_models():
        assert w2(model) == w1_cup_w1(model)


def test_obstructions_rp2():
    r = obstructions(build("rp2"))
    assert not r.exists(PIN_PLUS) and r.count(PIN_PLUS) == 0
    assert r.exists(PIN_MINUS) and r.count(PIN_MINUS) == 2


def test_obstructions_k2():
    r = obstructions(build("k2"))
    assert r.exists(PIN_PLUS) and r.exists(PIN_MINUS)
    assert r.count(PIN_PLUS) == r.count(PIN_MINUS) == 4


def test_obstructions_t2():
    r = obstructions(build("t2"))
    assert r.count(PIN_PLUS) == r.count(PIN_MINUS) == 4


def test_pin_minus_always_exists_pin_plus_iff_even_chi():
    for model in all_closed_models():
        r = obstructions(model)
        assert r.exists(PIN_MINUS)
        assert r.exists(PIN_PLUS) == (model.euler_characteristic() % 2 == 0)
        if r.exists(PIN_PLUS):
            assert r.count(PIN_PLUS) == r.count(PIN_MINUS) == 2 ** r.h1_z2_dim


@pytest.mark.parametrize("kind", ["pin", "spin", "PIN+"])
def test_the_report_refuses_an_unknown_kind(kind):
    r = obstructions(build("k2"))
    for answer in (r.exists, r.count):
        with pytest.raises(ValueError, match=f"unknown kind '{re.escape(kind)}'"):
            answer(kind)


def test_obstructions_builds_one_chord_form(monkeypatch):
    # w1 and w1_cup_w1 share one Wu solve; a renamed model is one no call has seen
    calls = []

    def counted(model):
        calls.append(model.name)
        return chord_gram_matrix(model)

    monkeypatch.setattr(characteristic, "chord_gram_matrix", counted)
    model = build("n(3,1)")._replace(name="unseen n(3,1)")
    r = obstructions(model)
    assert calls == ["unseen n(3,1)"]
    assert r.w1_cup_w1 == 1 and r.as_dict()["w1"] == obstructions(build("n(3,1)")).as_dict()["w1"]


def test_obstructions_rejects_boundary():
    with pytest.raises(ValueError):
        obstructions(build("cyl"))


@pytest.mark.parametrize("name", ["moebius", "cyl"])
def test_chord_form_rejects_boundary_by_name(name):
    with pytest.raises(ValueError, match=f"^{name} is not closed$"):
        chord_gram_matrix(build(name))
