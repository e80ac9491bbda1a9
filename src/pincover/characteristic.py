"""Stiefel-Whitney data on closed surfaces and the pin existence/counting predicates.

The Z2 intersection form of a one-polygon closed surface is computed in the
basis of transverse chord curves: the chord of a letter crosses the chord of
another iff their occurrences interleave around the polygon, and a chord is
one-sided iff its letter occurs twice with the same exponent (that is the
chart-transition sign of the edge).  Chord curves are dual to the edge loops
under the intersection pairing, which turns w1 = "cross an orientation-
reversing seam" into an exact GF(2) solve; w2 is the Euler characteristic mod
2, independently guarded by the Wu relation w2 = w1 cup w1.
"""

from __future__ import annotations

from .homology import b1_mod2, solve_rows
from .pin2 import PIN_MINUS, PIN_PLUS
from .records import Frozen
from .surface import SurfaceModel


def chord_gram_matrix(model: SurfaceModel) -> tuple[list[str], list[int]]:
    """Z2 intersection form in the chord basis, one chord per letter.

    Off-diagonal entries count interleavings of occurrence pairs; diagonal
    entries record same-exponent (one-sided) letters.  Row i is bit-packed:
    bit j is the entry of letters i and j.  One sweep of the word: the chords
    that cross chord i are those open at exactly one of its two ends.
    """
    _require_closed(model)
    word = model.word
    letters, index = word.letters, word._index
    one_sided = word.one_sided
    gram = [0] * len(letters)
    open_chords = 0  # bit i: letter i has been read once so far
    open_at = [0] * len(letters)  # the chords open where chord i opens
    for name, _ in word.word:
        i = index[name]
        bit = 1 << i
        if open_chords & bit:
            gram[i] = (open_chords ^ open_at[i]) & ~bit | bit & one_sided
        else:
            open_at[i] = open_chords
        open_chords ^= bit
    return letters, gram


def _require_closed(model: SurfaceModel):
    if model.boundary_components != 0:
        raise ValueError(f"{model.name} is not closed")


class Z2Cocycle(Frozen):
    """Functional on H1(X, Z2), one bit per generator letter of the polygon."""

    __slots__ = ("bits",)

    def __call__(self, letter: str) -> int:
        return self.bits[letter]


_wu_last: tuple = (None, None)  # the last word _wu_class solved, and its answer


def _wu_class(model: SurfaceModel) -> tuple[tuple[str, ...], int, int]:
    """(letters, diag, v), bit-packed by letter, with G v = diag G for the chord form G.

    diag marks the one-sided letters (the word's one_sided), whose edges cross
    an orientation-reversing seam.  By Wu's relation v is w1 on the edge loops,
    which the chords are dual to.  The answer for the last word is kept, and
    found again by the word's identity (a word is frozen), so that the w1 and
    w1_cup_w1 calls of one obstructions call share one chord form and one solve.
    """
    global _wu_last
    _require_closed(model)
    word = model.word
    last, answer = _wu_last
    if word is last:
        return answer
    letters = tuple(word.letters)  # immutable: every caller shares the kept answer
    diag = word.one_sided
    if diag:
        _, gram = chord_gram_matrix(model)
        v = solve_rows(gram, diag, len(letters))
        if v is None:
            # a symmetric form's diagonal lies in its column space over GF(2)
            raise AssertionError("the chord form does not solve its own diagonal")
    else:
        v = 0
    answer = letters, diag, v
    _wu_last = word, answer
    return answer


def w1(model: SurfaceModel) -> Z2Cocycle:
    """First Stiefel-Whitney class: 1 on the generators whose loops reverse orientation."""
    letters, diag, v = _wu_class(model)
    if diag and model.complex.vertex_count != 1:
        raise ValueError("w1 needs a one-vertex polygon model")
    return Z2Cocycle({g: v >> i & 1 for i, g in enumerate(letters)})


def w1_cup_w1(model: SurfaceModel) -> int:
    """<w1 cup w1, [X]> = <w1, diag G> via the intersection form."""
    _, diag, v = _wu_class(model)
    return (diag & v).bit_count() % 2


def w2(model: SurfaceModel) -> int:
    """Second Stiefel-Whitney class of a closed surface: chi mod 2."""
    _require_closed(model)
    return model.euler_characteristic() % 2


class ObstructionReport(Frozen):
    """What obstructions computed; existence and torsor count by kind follow
    from it (Kirby & Taylor 1990): pin+ exists iff w2 = 0, pin- iff
    w2 + w1^2 = 0, and each that exists is a torsor over H^1(X, Z2)."""

    __slots__ = ("surface", "w1", "w1_cup_w1", "w2", "h1_z2_dim")

    def exists(self, kind: str) -> bool:
        if kind == PIN_PLUS:
            return self.w2 == 0
        if kind == PIN_MINUS:
            return (self.w2 + self.w1_cup_w1) % 2 == 0
        raise ValueError(f"unknown kind {kind!r}")

    def count(self, kind: str) -> int:
        return 2 ** self.h1_z2_dim if self.exists(kind) else 0

    def as_dict(self):
        return {
            "surface": self.surface,
            "w1": {k: int(v) for k, v in sorted(self.w1.bits.items())},
            "w1_cup_w1": self.w1_cup_w1,
            "w2": self.w2,
            "pin_plus": {"exists": self.exists(PIN_PLUS), "count": self.count(PIN_PLUS)},
            "pin_minus": {"exists": self.exists(PIN_MINUS), "count": self.count(PIN_MINUS)},
            "h1_z2_dim": self.h1_z2_dim,
        }


def obstructions(model: SurfaceModel) -> ObstructionReport:
    """The Stiefel-Whitney data of a closed model and dim H^1(X, Z2)."""
    _require_closed(model)
    klass = w1(model)
    square = w1_cup_w1(model)
    two = w2(model)
    if (two + square) % 2 != 0 and model.orientable:
        raise AssertionError("orientable surface with w1 != 0")
    return ObstructionReport(model.name, klass, square, two, b1_mod2(model.complex))
