"""Expected answers, derived from the classification of surfaces, not from pincover.

For the non-orientable surface N_h (h = 2g + k cross-caps) and the orientable
surface sigma_g, every quantity the workloads ask for has a closed form.
Each check returns None when the answer is right, else a short reason.
"""

from __future__ import annotations

import hashlib
import json

PINOR_TOL = 1e-9
# the float fields of `pinors check`; their last digits follow the CPU's
# floating-point paths, so digests mask them and these checks bound them
PINOR_RESIDUALS = ("projector_residual", "idempotency_gap", "couple_certificate_residual")
PINOR_FLOATS = PINOR_RESIDUALS + ("raw_residual_sign_plus",)


def cross_caps(family: str, g: int) -> int:
    """h for N_h; 0 for sigma_g."""
    return {"sigma": 0, "n1": 2 * g + 1, "n2": 2 * g + 2}[family]


def _diff(got, want, what: str):
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def check_homology(family: str, g: int, got: dict):
    h = cross_caps(family, g)
    if h:
        want = {"h0": [1, []], "h1": [h - 1, [2]], "h2": [0, []], "b1_2": h}
    else:
        want = {"h0": [1, []], "h1": [2 * g, []], "h2": [1, []], "b1_2": 2 * g}
    return _diff(got, want, "homology")


def check_obstructions(family: str, g: int, got: dict):
    h = cross_caps(family, g)
    if h:
        w2 = h % 2
        plus = h % 2 == 0
        count = 2 ** h
        if not any(got["w1"].values()):
            return "w1 vanishes on a non-orientable surface"
    else:
        w2, plus, count = 0, True, 4 ** g
        if any(got["w1"].values()):
            return "w1 is nonzero on an orientable surface"
    want = {
        "w1_cup_w1": w2,
        "w2": w2,
        "pin_plus": {"exists": plus, "count": count if plus else 0},
        "pin_minus": {"exists": True, "count": count},
        "h1_z2_dim": h or 2 * g,
    }
    return _diff({k: got[k] for k in want}, want, "obstructions")


def check_covermaps(family: str, g: int, got: dict):
    """The orientation double cover of N_h is sigma_{h-1}."""
    h = cross_caps(family, g)
    rows = len(got["push_z"])
    cols = len(got["push_z"][0]) if rows else 0
    want = {
        "push_z_shape": [h, 2 * (h - 1)],
        "base_orders": [0] * (h - 1) + [2],
        "kernel_pull_rows": 1,
        "coker_pull_dim": h - 1,
        "splitting_k": h - 1,
        "image_index_z2": 2,
        "b1_2_base": h,
        "b1_2_cover": 2 * (h - 1),
    }
    have = {
        "push_z_shape": [rows, cols],
        "base_orders": got["base_orders"],
        "kernel_pull_rows": len(got["kernel_pull"]),
        **{k: got[k] for k in ("coker_pull_dim", "splitting_k", "image_index_z2",
                               "b1_2_base", "b1_2_cover")},
    }
    return _diff(have, want, "covermaps")


def check_descend(family: str, g: int, kind: str, got: dict):
    h = cross_caps(family, g)
    exists = kind == "pin-" or h % 2 == 0
    count = 2 ** h if exists else 0
    want = {"count": count, "torsor_count": count, "exists": exists, "consistent": True}
    return _diff({k: got[k] for k in want}, want, f"descend {kind}")


FAMILY_CHECKS = {
    "homology": check_homology,
    "obstructions": check_obstructions,
    "covermaps": check_covermaps,
}


def check_family_op(family: str, g: int, op: str, got: dict):
    if op.startswith("descend "):
        return check_descend(family, g, op.split()[1], got)
    return FAMILY_CHECKS[op](family, g, got)


# --- verify --------------------------------------------------------------------

CRITERIA = (
    "1 fiber groups pin+- over {1, j1}",
    "2 sphere squares and rp2 descent",
    "3 klein-bottle square table and counts",
    "4 moebius tau4 square table",
    "5 cylinder boundary-lift table",
    "6 cylinder doubling classes",
    "7 homology and induced maps",
    "8 splitting bookkeeping",
    "9 cover-diagram relations",
    "10 property suites",
)


def check_verify(payload: dict):
    """All ten criteria passed under their expected names, deviations in tolerance."""
    criteria = payload["results"]["criteria"]
    if [c["name"] for c in criteria] != list(CRITERIA):
        return f"criteria list {[c['name'] for c in criteria]}"
    wrong = [f"{c['name']}: {c['detail']}" if not c["passed"] else
             _check_deviations(c["detail"]) if c["name"].startswith("10 ") else None
             for c in criteria]
    wrong = [w for w in wrong if w]
    if not wrong and payload["results"]["all_passed"] is not True:
        wrong.append("all_passed is false")
    return "; ".join(wrong) or None


def _check_deviations(detail: str):
    """'max deviations: projector=1.3e-15, ...': the pinor and evaluate residuals."""
    fields = dict(part.split("=") for part in detail.split(": ", 1)[1].split(", "))
    for key in ("evaluate_hom", "projector", "couple"):
        if not float(fields[key]) <= PINOR_TOL:
            return f"{key} deviation {fields[key]}"
    return None


# --- cli -----------------------------------------------------------------------


def canonical_digest(payload: dict) -> str:
    """SHA-256 of the canonical JSON, with the pinor float fields masked."""
    results = payload.get("results")
    if payload.get("command") == "pinors":
        results = {k: ("<float>" if k in PINOR_FLOATS else v) for k, v in results.items()}
    masked = dict(payload, results=results)
    text = json.dumps(masked, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


_KLEIN_QUALIFYING = {"pin+": ["xi0", "xi2"], "pin-": ["xi1", "xi3"]}
# named surfaces as members of the families: RP2 = N_1, K2 = N_2, S2, T2 = sigma_0, sigma_1
_FAMILY_SURFACE = {"s2": ("sigma", 0), "t2": ("sigma", 1), "rp2": ("n1", 0), "k2": ("n2", 0)}
_FAMILY_SURFACE.update({f"sigma({g})": ("sigma", g) for g in range(2, 7)})
_FAMILY_SURFACE.update({f"n({g},{k})": (f"n{k}", g) for g in range(1, 7) for k in (1, 2)})


def check_cli(argv: list[str], payload: dict):
    """Answers stated in the README or following from the classification."""
    cmd, args = argv[0], argv[1:]
    res = payload["results"]
    if cmd == "pinors":
        return _check_pinors(res)
    if cmd == "moebius":
        return _diff(res["descending"], {"pin+": ["xi0", "xi1"], "pin-": ["xi2", "xi3"]},
                     "moebius descending")
    if cmd == "surfaces":
        return _diff([row["name"] for row in res["known"]],
                     ["s2", "rp2", "t2", "k2", "cyl", "moebius"], "surfaces")
    surface = args[0]
    kind = args[2] if args[1:2] == ["--kind"] else None
    if cmd == "structures":
        want = {"t2": 4, "cyl": 2}.get(surface)
        if want is not None:
            return _diff(len(res["structures"]), want, f"{surface} structures")
        if surface == "moebius":
            return _diff(res["descending"], {"pin+": ["xi0", "xi1"], "pin-": ["xi2", "xi3"]}[kind],
                         "moebius descending")
        family, g = _FAMILY_SURFACE[surface]
        return check_descend(family, g, kind, res)
    family, g = _FAMILY_SURFACE[surface]
    if cmd == "homology":
        flat = {k: [res[k]["free"], res[k]["torsion"]] for k in ("h0", "h1", "h2")}
        return check_homology(family, g, dict(flat, b1_2=res["b1_2"]))
    if cmd == "descend":
        wrong = check_descend(family, g, kind, res)
        if wrong is None and surface == "k2":
            return _diff(res["qualifying"], _KLEIN_QUALIFYING[kind], "k2 qualifying")
        return wrong
    return FAMILY_CHECKS[cmd](family, g, res)


def _check_pinors(res: dict):
    if res["lift"]["square"] == -1:
        return None if "projector" in res else "projector reported for a lift squaring to -1"
    for key in PINOR_RESIDUALS:
        if not float(res[key]) <= PINOR_TOL:
            return f"{key} = {res[key]}"
    return None
