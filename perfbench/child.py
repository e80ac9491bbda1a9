"""One unit of benchmark work in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

The spec's ``mode`` is one of
  setup     import pincover.cli and build one pass's inputs, then exit;
  verify    one `pincover verify --format json --seed s`, run through cli.main;
  families  one pass of library ops over the relabelled genus ladder;
  cli       one CLI command, run through cli.main (used by the traced run;
            the untraced run starts `python -m pincover.cli` itself).
With ``"trace": true`` the layer wrappers of tracer.py are installed first.
The child prints one JSON envelope on stdout; answers are checked by the parent.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import workloads

ORIGIN = time.perf_counter()


def _timed_criteria(acceptance, wrap) -> list:
    """Wrap each acceptance criterion; the returned list fills with their wall times."""
    times = [0.0] * len(acceptance.CRITERIA)

    def timed(fn, i):
        def run(seed):
            t0 = time.perf_counter()
            try:
                return fn(seed)
            finally:
                times[i] = time.perf_counter() - t0

        return run

    for i, (name, fn) in enumerate(acceptance.CRITERIA):
        acceptance.CRITERIA[i] = (name, wrap(timed(fn, i), f"acceptance.criterion.{i + 1:02d}"))
    return times


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _family_models(surfaces):
    from pincover.homology import GluingWord
    from pincover.surface import FAMILY_ONLY, SurfaceModel

    models = []
    for s in surfaces:
        word = GluingWord(tuple((name, exp) for name, exp in s["word"]))
        k = {"sigma": 0, "n1": 1, "n2": 2}[s["family"]]
        models.append(SurfaceModel(f"{s['family']}_{s['g']}", FAMILY_ONLY, word,
                                   k == 0, 0, genus=s["g"], cross_caps=k))
    return models


def _library():
    """The library calls of the families ops, looked up after tracing is installed."""
    import pincover
    from pincover import homology

    return {"descend": pincover.descend, "obstructions": pincover.obstructions,
            **{name: getattr(homology, name) for name in (
                "PolygonComplex", "b1_mod2", "homology_groups", "induced_maps",
                "orientation_double_cover_complex")}}


def _family_op(op: str, model, lib: dict):
    """Run one library op; return a function that makes its JSON summary."""
    if op == "homology":
        cx = lib["PolygonComplex"].from_word(model.word)
        groups, b1 = lib["homology_groups"](cx), lib["b1_mod2"](cx)
        return lambda: {"h0": [groups.h0[0], list(groups.h0[1])],
                        "h1": [groups.h1[0], list(groups.h1[1])],
                        "h2": [groups.h2[0], list(groups.h2[1])], "b1_2": b1}
    if op == "obstructions":
        return lib["obstructions"](model).as_dict
    if op == "covermaps":
        maps = lib["induced_maps"](lib["orientation_double_cover_complex"](model.word))
        return lambda: {"push_z": maps.push_z, "base_orders": maps.base_orders,
                        "kernel_pull": maps.kernel_pull.tolist(),
                        "coker_pull_dim": maps.coker_pull_dim,
                        "splitting_k": maps.splitting_k,
                        "image_index_z2": maps.image_index_z2,
                        "b1_2_base": maps.b1_mod2_base, "b1_2_cover": maps.b1_mod2_total}
    return lib["descend"](model, op.split()[1]).as_dict  # "descend pin+" | "descend pin-"


def main(spec: dict) -> dict:
    t0 = time.perf_counter()
    import pincover.cli as cli
    import_s = time.perf_counter() - t0

    src = os.path.join(spec["root"], "src")
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"pincover imported from {cli.__file__}, not from {src}")

    mode = spec["mode"]
    envelope: dict = {"import_s": import_s}
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    if mode == "setup":  # build the first pass's inputs, as a pass would
        workload = spec["workload"]
        if workload == "families":
            _family_models(workloads.family_pass(spec["seed"], 0))
        elif workload == "cli":
            workloads.CliDraw(spec["seed"]).next_pass()
        else:
            workloads.verify_seed(spec["seed"], 0)
        return envelope

    if mode == "verify":
        from pincover import acceptance

        if tracer is not None:
            envelope["criterion_s"] = _timed_criteria(acceptance, tracer.wrap)
        envelope["rc"], envelope["stdout"] = _run_cli(
            cli, ["verify", "--format", "json", "--seed",
                  str(workloads.verify_seed(spec["seed"], spec["pass"]))])
    elif mode == "cli":
        envelope["rc"], envelope["stdout"] = _run_cli(cli, spec["argv"])
    elif mode == "families":
        surfaces = workloads.family_pass(spec["seed"], spec["pass"])
        models = _family_models(surfaces)
        lib = _library()
        ops = []
        for s, model in zip(surfaces, models):
            for op in s["ops"]:
                t = time.perf_counter()
                try:
                    summarize = _family_op(op, model, lib)
                    dt = time.perf_counter() - t
                    ops.append([op, dt, summarize(), None])
                except Exception as exc:  # a raising op counts as failed
                    ops.append([op, time.perf_counter() - t, None, repr(exc)])
        envelope["ops"] = ops
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    if tracer is not None:
        envelope["trace"] = tracer.summary()
        envelope["spans"] = tracer.spans(ORIGIN)
    return envelope


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
