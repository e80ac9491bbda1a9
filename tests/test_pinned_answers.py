"""The exact answers of the homology layer, pinned by digest.

Each entry is the SHA-256 of the canonical JSON of one (family, genus)
group: the canonical word plus three relabelled copies of it (rotation,
maybe reversal, letter inversions, fresh names; fixed seeds).  Per group:

- ``homology``: ``homology_groups``, every ``representative`` (written out
  as the list of every edge's coefficient) and the ``coordinates`` of every
  representative and every one-edge cycle, on the base complex and on the
  orientation double cover;
- ``induced``: every field of ``induced_maps`` and both mod-2 Betti numbers;
- ``descend``: ``descend`` for both kinds.

At the large genera, up to ``GENUS_LIMIT``, one entry per canonical word
pins ``homology_groups`` of the base and of the cover and every field of
``induced_maps``.

A change to the integral bookkeeping that alters any bit of these answers
(the canonical bases included) changes a digest.
"""

import hashlib
import json
import random

import pytest

from pincover.homology import (
    GluingWord,
    H1Basis,
    PolygonComplex,
    homology_groups,
    induced_maps,
    orientation_double_cover_complex,
)
from pincover.structures import descend
from pincover.surface import FAMILY_ONLY, SurfaceModel

GENERA = (1, 2, 3, 4, 6, 8, 10, 12, 14, 16)
CROSS_CAPS = {"sigma": 0, "n1": 1, "n2": 2}


def canonical_word(family, g):
    word = []
    for i in range(1, g + 1):
        word += [(f"a{i}", 1), (f"b{i}", 1), (f"a{i}", -1), (f"b{i}", -1)]
    if family == "n1":
        word += [("x", 1), ("x", 1)]
    elif family == "n2":
        word += [("c", 1), ("d", 1), ("c", 1), ("d", -1)]
    return word


def relabel(word, rng, prefix):
    """The same surface under a cyclic rotation, maybe a reversal, letter
    inversions and fresh letter names."""
    r = rng.randrange(len(word))
    word = word[r:] + word[:r]
    if rng.random() < 0.5:
        word = [(name, -exp) for name, exp in reversed(word)]
    letters = list(dict.fromkeys(name for name, _ in word))
    flips = {name for name in letters if rng.random() < 0.5}
    ids = rng.sample(range(10 * len(letters) + 10), len(letters))
    names = {name: f"{prefix}{i}" for name, i in zip(letters, ids)}
    return [(names[name], -exp if name in flips else exp) for name, exp in word]


def words(family, g):
    word = canonical_word(family, g)
    out = [word]
    for i in range(3):
        out.append(relabel(word, random.Random(f"pinned/{family}/{g}/{i}"), f"r{i}e"))
    return [GluingWord(tuple(w)) for w in out]


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def homology_answers(cx: PolygonComplex) -> dict:
    basis = H1Basis(cx)
    n = basis.free_rank + len(basis.torsion)
    reps = [basis.representative(i) for i in range(n)]
    loops = [name for name, (t, h) in cx.edge_ends.items() if t == h]
    return {
        "groups": homology_groups(cx).as_dict(),
        "representatives": [[r.get(e, 0) for e in range(len(cx.edges))] for r in reps],
        "rep_coordinates": [list(map(list, basis.coordinates(r))) for r in reps],
        "loop_coordinates": {name: list(map(list, basis.coordinates({cx.edge_index[name]: 1})))
                             for name in loops},
    }


def induced_answers(word: GluingWord) -> dict:
    maps = induced_maps(orientation_double_cover_complex(word))
    return {
        "push_z": maps.push_z,
        "base_orders": maps.base_orders,
        "push_z2": maps.push_z2.tolist(),
        "pull_z2": maps.pull_z2.tolist(),
        "kernel_pull": maps.kernel_pull.tolist(),
        "coker_pull_dim": maps.coker_pull_dim,
        "image_index_z2": maps.image_index_z2,
        "b1_mod2_base": maps.b1_mod2_base,
        "b1_mod2_total": maps.b1_mod2_total,
    }


def descend_answers(family, g, word: GluingWord) -> dict:
    k = CROSS_CAPS[family]
    model = SurfaceModel(f"{family}_{g}", FAMILY_ONLY, word, False, 0, genus=g, cross_caps=k)
    return {kind: descend(model, kind).as_dict() for kind in ("pin+", "pin-")}


def answers(family, g) -> dict:
    group = words(family, g)
    out = {"homology": digest([
        [homology_answers(PolygonComplex.from_word(w)),
         homology_answers(orientation_double_cover_complex(w).total)] for w in group])}
    if family != "sigma":
        out["induced"] = digest([induced_answers(w) for w in group])
        out["descend"] = digest([descend_answers(family, g, w) for w in group])
    return out


PINNED = {
    "sigma-1": {
        "homology": "dd416b20ecf5f32ef2e0ad5ebffaf44b642e11c3d8f3e526ecd9634234ea97f4",
    },
    "sigma-2": {
        "homology": "7a00c85c13cc633161b9ec734bac479c98f81baf11c7186a14924af94bee0250",
    },
    "sigma-3": {
        "homology": "4de81e59967be95983fde808548cc9c1d3fd6a1783effa680c19fb63f4510e3d",
    },
    "sigma-4": {
        "homology": "b4846acd5a96ed69d793d9300bc9bbc20dd6699addf8610df8757fa26f58841f",
    },
    "sigma-6": {
        "homology": "8a63a85bfd5d7b313308b12a583a4fbda2d9532d14e1d878ea5508c6c617817e",
    },
    "sigma-8": {
        "homology": "aef387164acf9964fee3eadac22303d16b8099597a1bfda72da644005d216520",
    },
    "sigma-10": {
        "homology": "b08cd12a4e8268026db182dfca53a797044c12e84ed65448d47e05753d936b51",
    },
    "sigma-12": {
        "homology": "b73660ef378a73589a4428f6a59e021d68012ea0f04aceaa3e6cad78900fd136",
    },
    "sigma-14": {
        "homology": "f270b020d66a66fa573e31de3e5d82ea939015063fb0ae2a30d1761c9bda63d2",
    },
    "sigma-16": {
        "homology": "8c04c7e8fd9d624a213673fd4bdae209f6a4e855c21f9cf4e21a3bdaa0cb9e49",
    },
    "n1-1": {
        "homology": "a24dae240acb80fa25902eccc41da44c61be99f1dacc589e578c6f1874b653d0",
        "induced": "12ed360d49c6936932b153039127e930d2b012654f0a855d2add63149f4f1d2f",
        "descend": "e367f38bfeb4ac473da80a349de684446ae221c1024e5edcbb6a49a557faeb3c",
    },
    "n1-2": {
        "homology": "47a2ddf5e18ba8ef970bac2262ae1be8dd2d8f92ac99d78d055844a479bceea0",
        "induced": "8f3bea3a23ca3512a2b9805c59eff5bb8eb6c5b20afd2dadc9506fbfa3531ff6",
        "descend": "bb75cae433c4b6fe3d6c81b7c7d46135abff4e1bdc77c5b06d60f01375fcea5a",
    },
    "n1-3": {
        "homology": "0d37ca35d5c41100703d489dfb89ae99be577b2a75b17e0d92a67fbdf9bc3fad",
        "induced": "8c0f73481f879aa8b089fc8e37a7bd6e8e533d46489ca03a119e063033afe971",
        "descend": "7d38c21bd19b7a6fa3adfd129d279dee7f49ef3930ec5f80ba5d7a9f55c2fb6b",
    },
    "n1-4": {
        "homology": "97e5141a184f0ba22f8eda8ddbd6537f407f0d1ae600bba3618ee7aebd973388",
        "induced": "7401ca7ecad818bebee461204117ffbe782e15d91cc5329ca06e678b42f7783c",
        "descend": "c228368c49d5d76868fa1a6c5b825810514b7f7eef659216ed03b0b20aa40e10",
    },
    "n1-6": {
        "homology": "e6f8beb8845c6bf21743f24222802f1f5ce40eb79b8ebf551246b9304bc16d5f",
        "induced": "e8a14a650f7c36f28e2c0f42458a336801dbc9089fcce3be4a21cc7fb1c1d4aa",
        "descend": "eadda1c26e7bfadceb2275410245987d08aefb716e40b4868e739add2bd8d94d",
    },
    "n1-8": {
        "homology": "98f8f09ab51118e8c6043edccac1fc5d0c01d0bdc7fea66dd6e286ebe8c054f8",
        "induced": "1a6ac43bfb78c0821a054fe9eb65203e2d30de8f534d58bd7a2bdd07e2e0cb20",
        "descend": "ae2cca464322f0a5aeebbd01fbeafa67a231a68b236d0afebcc81ae28fa4b621",
    },
    "n1-10": {
        "homology": "cd83b4612026f75684814687e66f1bd7391bd462a705c680316b5e87e65da4d1",
        "induced": "0941e8005a96781e948c1c8db90cc2333a6b9f17e99691ce3f1c401e40bfe3fe",
        "descend": "b614d93a5d7b2660545b2b75a04953218fb6ccfe7d9c2b1c89d580004fcb01a0",
    },
    "n1-12": {
        "homology": "795c5c571f7f8e3ea6ba55dd0f9cad36cab04608d3837e703721db70b62ded57",
        "induced": "f9ca15621ac841cb6fa6ad4d605330369996ef0b97412dc43d33d3a7a774d1ec",
        "descend": "c543b6127c689799b48d61fbc454c3153c5f7f2e3369c5b810ba068785b1978f",
    },
    "n1-14": {
        "homology": "85b2cc407989713d96f9c765fdbe2d8cb8722264d64e37720a28d3d1d6f5c03e",
        "induced": "3ca9a6e54bd08eb25865adfa39bd5690c94190e7042129185e869d15a7e85088",
        "descend": "53dd6f70041a6fa4b155eea70054b206f320aed23df1baa8647d54ca3c4142d8",
    },
    "n1-16": {
        "homology": "9b97a02e3b6c4c02d5b0444c37644ed76d263fa2b6cafcc8b406837d68215207",
        "induced": "aadead7168e6101263c7d7c5394e5b806b49f354f9b2dd6217ec084ef4ccdd82",
        "descend": "b3cefb8e450d00f31014ced8e53495734abd75f002b373d56737bafe9aab1e89",
    },
    "n2-1": {
        "homology": "019a9bdfe60bc2e102eb6bc9379a46dd91ca378d82866bdf033b3dc915e262f2",
        "induced": "2d70b49dd6a21370c5d3dfa2d757ddeb263fe0dbc86c4b885b6cb0bf0478e88c",
        "descend": "7e015f13303abf06ccca7d91255dd88a9483fe86927a4f4fe4c43ab63dd4c037",
    },
    "n2-2": {
        "homology": "37f493356d583f2d1abee6f2e30d35314f0451d9691b4d6b621ce66402e0b5a9",
        "induced": "3607acfbb0914447400585c064da902ee0522121afb9143fe0e7383a3822bfcd",
        "descend": "a73ab5d7a6782b2fcf77221b572a17a5b116bd7e7ec98869c86679e75d3bfa9e",
    },
    "n2-3": {
        "homology": "eef0b0fe3c830939cd97f7ddfbbf7ccd04c8cbf761e0e1849b76f05495e30f9b",
        "induced": "7817847577807fccb2a47b1f4ebcca6ab051670333f85fee4d7a8605b495e72b",
        "descend": "9165e380a41037386ad5724e4c807a3790ee0676fa1f5fb4ed119c48d989025b",
    },
    "n2-4": {
        "homology": "9bd08e533240a84b80badf56fe840a2533ab3fc9874924d57114277ab90acad3",
        "induced": "ddc783c68478b3b33a0885917c3b829848113c2dbe304eb23dec01a501e2e060",
        "descend": "77b6b997e9365f78d5dfe1328c904ff994ea8e2bf67917ce068e984ec0ca02ee",
    },
    "n2-6": {
        "homology": "9253cda0fa0de6b37af7f3e1406cebe6573fee346d096f0f3aec287df3810b7d",
        "induced": "0d688e8bbecb117963fb7d204313543582873e4306700d1067c79137872f3614",
        "descend": "7626f7d03e53eeca90beeb70e10308b98e3951422f0e3a4df4858a4abce4c1e0",
    },
    "n2-8": {
        "homology": "cd621c315a1c4ea5f05465285a43aff9bb5a2c0c00fd0d6bcc4ad6ed8be7a5e6",
        "induced": "9f57fea510aea358d21303f97d5e4ce97f008601519617ceae60dd4c6ba5cb42",
        "descend": "25731418e60fe144759f6160523ca18c8e39e1b6099fbfe57bbfc2a05f5d0ef6",
    },
    "n2-10": {
        "homology": "22d5cb4997966e1cddae458c164ba333b329e9cc0952ffd5f78cf0a876d03609",
        "induced": "72ac5f6d7f567d03d271822bcb00480a303e433a8943c8394ff0a90b163f2918",
        "descend": "15d1125ccde40f7d60c8eecaaa69f3c24b3bd0395f5e5c722ca57d8e5a024ddc",
    },
    "n2-12": {
        "homology": "9f679d442fb52a636704840f2221d2130699d40af0c62d13a861b97478b191f5",
        "induced": "305ab0261bb70d521da244bbd1c1fa0045ccd47365c946b19cfac51b93e0e50d",
        "descend": "30ba0740abd2ddd94e6be89053fb33bd9cff960b49db2f18d681c5d61bb88d9f",
    },
    "n2-14": {
        "homology": "5920261bddf748d675bbbeb1cb289da81ec8d71b3a259428239db6d9d575b9f9",
        "induced": "f221321e552a6573e42bcfa560784cb568a689df27ccc938ad99eae32ff50586",
        "descend": "50bbc07e9dd09d33db51d16b9a978ad893406c9f723fe5132b360e30e86b22b9",
    },
    "n2-16": {
        "homology": "470a4a3f967172dfeb33a36e1f65688a3f2339a1d5ac08440390b440256c1f22",
        "induced": "2a0f0b352d551d1e465ad335ebb11d7cadfc682fe1e5eff380994b0cd3bd987d",
        "descend": "b3c4a1cdd1bdd547ad7b87abc985549fbdbc6106c18e313932dcb99ca094ca99",
    },
}


@pytest.mark.parametrize("family,g", [(f, g) for f in CROSS_CAPS for g in GENERA],
                         ids=[f"{f}-{g}" for f in CROSS_CAPS for g in GENERA])
def test_answers_match_the_pinned_digests(family, g):
    assert answers(family, g) == PINNED[f"{family}-{g}"]


def large_genus_answers(family, g) -> str:
    word = GluingWord(tuple(canonical_word(family, g)))
    cover = orientation_double_cover_complex(word)
    return digest({
        "groups": [homology_groups(cx).as_dict() for cx in (word.complex, cover.total)],
        "induced": induced_answers(word),
    })


PINNED_LARGE = {
    "n2-64": "d2a23493c34c0064081b250a2109bf2a1cddba9b4b73d246862bd2f0d59cd8b6",
    "n1-150": "d1d134f599525a9c319c43ab8e3fc8dc14017b1a1d70356f6f9e59a39bec1534",
    "n2-150": "1dc5287992612fb6a75e77a84f65ccdb75a43f85a3b87fb72f355e87ac68e13f",
}


@pytest.mark.parametrize("name", PINNED_LARGE)
def test_large_genus_answers_match_the_pinned_digests(name):
    family, g = name.split("-")
    assert large_genus_answers(family, int(g)) == PINNED_LARGE[name]
