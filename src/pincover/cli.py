"""Command-line front end.

Subcommands: surfaces, homology, covermaps, obstructions, structures, descend,
moebius, pinors, verify.  Output formats: json (canonical), csv, table.  Exit
codes: 0 success, 1 verification failure, 2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys

from . import pin2
from .characteristic import obstructions
from .homology import b1_mod2, homology_groups, induced_maps, orientation_double_cover_complex
from .pinors import GRID_LIMIT, PinorField, couple_split, invariance_residual, project_invariant
from .reporting import Report
from .structures import descend, enumerate_structures, lift_involution, moebius_descent
from .surface import MODELS, SURFACE_NAMES, SurfaceModel, build


class UsageError(Exception):
    pass


def _kind(value: str) -> str:
    if value not in pin2.KINDS:
        raise UsageError(f"--kind must be pin+ or pin-, got {value!r}")
    return value


def _seed(value: int) -> int:
    if value < 0:
        raise UsageError(f"--seed must be non-negative, got {value}")
    return value


def _surface(name: str) -> SurfaceModel:
    """build(name); an unknown name or a genus above the limit is a usage error."""
    try:
        return build(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_surfaces(args) -> Report:
    rows = []
    for model in MODELS.values():
        rows.append({
            "name": model.name,
            "orientable": model.orientable,
            "boundary_components": model.boundary_components,
            "euler_characteristic": model.euler_characteristic(),
            "model": model.model_kind,
        })
    return Report("surfaces", {}, {"known": rows, "families": SURFACE_NAMES},
                  anchor="tables/surface-zoo")


def cmd_homology(args) -> Report:
    cx = _surface(args.surface).complex
    groups = homology_groups(cx)
    results = groups.as_dict()
    results["b1_2"] = b1_mod2(cx)
    return Report("homology", {"surface": args.surface}, results,
                  anchor="tables/homology")


def cmd_covermaps(args) -> Report:
    model = _surface(args.surface)
    if model.orientable:
        raise UsageError(f"{args.surface} is orientable: no orientation double cover")
    maps = induced_maps(orientation_double_cover_complex(model.word))
    results = {
        "push_z": maps.push_z,
        "base_orders": maps.base_orders,
        "push_z2": maps.push_z2.tolist(),
        "pull_z2": maps.pull_z2.tolist(),
        "kernel_pull": maps.kernel_pull.tolist(),
        "image_index_z2": maps.image_index_z2,
        "coker_pull_dim": maps.coker_pull_dim,
        "b1_2_base": maps.b1_mod2_base,
        "b1_2_cover": maps.b1_mod2_total,
        "splitting_k": maps.splitting_k,
    }
    return Report("covermaps", {"surface": args.surface}, results,
                  anchor="tables/cover-induced-maps")


def cmd_obstructions(args) -> Report:
    model = _surface(args.surface)
    if model.boundary_components:
        raise UsageError(f"{model.name} is not closed")
    return Report("obstructions", {"surface": args.surface},
                  obstructions(model), anchor="tables/pin-obstructions")


def cmd_structures(args) -> Report:
    kind = _kind(args.kind)
    model = _surface(args.surface)
    inputs = {"surface": args.surface, "kind": args.kind}
    if model.twists:
        items = [{"label": xi.label, "twist": str(xi.twist)}
                 for xi in enumerate_structures(model, kind)]
        return Report("structures", inputs, {"mode": "explicit", "structures": items},
                      anchor="tables/structure-descriptors")
    if not model.orientable and model.boundary_components:
        # descent needs a closed base; the moebius strip's structures come from its cover diagram
        rep = moebius_descent(model)
        return Report("structures", inputs,
                      {"mode": "diagram", "descending": list(rep.descending[kind])},
                      anchor="tables/moebius-tau4")
    if not model.orientable:
        return Report("structures", inputs, descend(model, kind),
                      anchor="tables/descent")
    count = obstructions(model).count(kind)
    return Report("structures", inputs, {"mode": "count-only", "count": count},
                  anchor="tables/structure-descriptors")


def cmd_descend(args) -> Report:
    kind = _kind(args.kind)
    model = _surface(args.surface)
    if model.orientable:
        raise UsageError(f"{model.name} is orientable; nothing to descend to")
    if model.boundary_components:
        raise UsageError("descent applies to closed bases; see moebius_descent")
    return Report("descend", {"surface": args.surface, "kind": args.kind},
                  descend(model, kind), anchor="tables/descent")


def cmd_moebius(args) -> Report:
    rep = moebius_descent(build("moebius"))
    return Report("moebius", {}, rep, anchor="tables/moebius-tau4")


def cmd_pinors(args) -> Report:
    if args.grid <= 0 or args.grid % 2:
        raise UsageError(f"--grid must be positive and even, got {args.grid}")
    if args.grid > GRID_LIMIT:
        raise UsageError(f"--grid is at most {GRID_LIMIT}, got {args.grid}")
    kind = _kind(args.kind)
    seed = _seed(args.seed)
    if args.surface != "t2":
        raise UsageError("pinor grids are modelled on t2 (the Klein deck involution)")
    sign = {"+": 1, "-": -1}[args.sign]
    structures = enumerate_structures(build("t2"), kind)
    if not 0 <= args.structure < len(structures):
        raise UsageError(f"--structure must be 0..{len(structures) - 1}")
    xi = structures[args.structure]
    lift = lift_involution(xi, build("k2").deck)
    inputs = {"surface": args.surface, "kind": args.kind,
              "structure": xi.label, "sign": args.sign,
              "grid": args.grid, "seed": args.seed}
    results: dict = {"lift": lift.as_dict()}
    import numpy as np

    rng = np.random.default_rng(seed)
    s = PinorField.random(args.grid, rng)
    if lift.descends:
        projected = project_invariant(s, lift, sign)
        couple = couple_split(projected, lift, sign)
        results.update({
            "projector_residual": invariance_residual(projected, lift, sign),
            "idempotency_gap": (project_invariant(projected, lift, sign)
                                - projected).max_norm(),
            "couple_certificate_residual": couple.certificate_residual,
        })
    else:
        results["projector"] = "unavailable: the lift squares to -1"
        results["raw_residual_sign_plus"] = invariance_residual(s, lift, 1)
    return Report("pinors", inputs, results, anchor="tables/pinor-invariance")


def cmd_verify(args):
    from . import acceptance

    results = acceptance.run_all(_seed(args.seed))
    lines, criteria = [], []
    for r in results:
        line = f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}"
        entry = {"name": r.name, "passed": r.passed, "detail": r.detail}
        if args.timings:
            line += f" [{r.seconds:.3f} s]"
            entry["seconds"] = round(r.seconds, 6)
        lines.append(line)
        criteria.append(entry)
    ok = all(r.passed for r in results)
    report = Report("verify", {"seed": args.seed},
                    {"criteria": criteria, "all_passed": ok},
                    anchor="tables/acceptance")
    return report, lines, ok


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "table"), default="table")
    parser = argparse.ArgumentParser(
        prog="pincover",
        description="pin structures on surfaces and their orientation double covers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("surfaces", parents=[common])
    for name in ("homology", "covermaps", "obstructions"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("surface")
    for name in ("structures", "descend"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("surface")
        p.add_argument("--kind", default="pin-")
    sub.add_parser("moebius", parents=[common])
    p = sub.add_parser("pinors", parents=[common])
    p.add_argument("action", choices=("check",))
    p.add_argument("surface")
    p.add_argument("--structure", type=int, default=0)
    p.add_argument("--kind", default="pin+")
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true")
    return parser


_HANDLERS = {
    "surfaces": cmd_surfaces,
    "homology": cmd_homology,
    "covermaps": cmd_covermaps,
    "obstructions": cmd_obstructions,
    "structures": cmd_structures,
    "descend": cmd_descend,
    "moebius": cmd_moebius,
    "pinors": cmd_pinors,
}


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            report, lines, ok = cmd_verify(args)
            if args.format == "table":
                sys.stdout.write("\n".join(lines) + "\n")
                sys.stdout.write(f"{'all criteria passed' if ok else 'FAILURES PRESENT'}\n")
            else:
                sys.stdout.write(report.render(args.format))
            return 0 if ok else 1
        report = _HANDLERS[args.command](args)
        sys.stdout.write(report.render(args.format))
        return 0
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception:  # a crash is not a failed check: its traceback, and 3
        sys.excepthook(*sys.exc_info())
        return 3


if __name__ == "__main__":
    sys.exit(main())
