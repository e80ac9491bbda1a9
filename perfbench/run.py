"""pincover benchmark: end-to-end and per-layer timings of three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload families --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one client, one child process at a time):
  verify    one fresh `pincover verify --format json --seed s` process per pass;
  families  one fresh process per pass running ~100 library ops over the
            relabelled genus ladder g = 1..16 of sigma_g, N_{g,1}, N_{g,2};
  cli       25 cold `python -m pincover.cli ... --format json` processes per pass.
`--workload all` runs the three in turn, each in a run.py process of its own.
Every answer is checked (oracle.py, and recorded digests for cli).  The last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`, its
per-layer metrics with `--trace 1`.
The traced run alternates traced and untraced passes, so it also reports the
tracing overhead; it writes every span and every per-layer figure under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import oracle
import workloads
from tracer import TRACED, metric_name

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
CHILD = os.path.join(BENCH, "child.py")
DIGESTS = os.path.join(BENCH, "digests.json")

WORKLOADS = ("verify", "families", "cli")
SETUPS_PER_PASS = 3
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def calibration_ms() -> float:
    """A fixed pure-Python loop that does not touch pincover: host speed now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


class Child:
    """One finished child process: exit code, output, wall and CPU time."""

    def __init__(self, argv: list[str]):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            self.stdout, self.stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
            self.rc = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            self.stdout, self.stderr = proc.communicate()
            self.rc = None
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        self.wall_s = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)

    def envelope(self) -> dict:
        if self.rc != 0:
            raise BenchError(f"child exited with {self.rc}: {self.stderr.strip()[-400:]}")
        return json.loads(self.stdout.splitlines()[-1])


def _child_argv(spec: dict, trace: bool) -> list[str]:
    spec = dict(spec, root=ROOT, trace=trace)
    return [sys.executable, CHILD, json.dumps(spec)]


class Pass:
    """What one pass did: its children, op latencies and answer errors."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.children: list[Child] = []
        self.envelopes: list[dict] = []
        self.op_s: list[float] = []
        self.errors: list[str | None] = []
        self.wall_s = 0.0

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)


def _judge(check, *args):
    """The check's reason for rejecting an answer; a malformed answer is wrong too."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed answer: {exc!r}"


def run_verify_pass(seed: int, index: int, trace: bool, _draw) -> Pass:
    """One op: the verify process, wrong if any criterion fails or looks wrong."""
    p = Pass(trace)
    child = Child(_child_argv({"mode": "verify", "seed": seed, "pass": index}, trace))
    p.children.append(child)
    p.wall_s = child.wall_s
    p.op_s = [child.wall_s]
    try:
        env = child.envelope()
        p.envelopes.append(env)
        if env["rc"] != 0:
            raise BenchError(f"verify exited with {env['rc']}")
        p.errors = [_judge(oracle.check_verify, json.loads(env["stdout"]))]
    except (BenchError, ValueError, KeyError) as exc:
        p.errors = [repr(exc)]
    return p


def run_families_pass(seed: int, index: int, trace: bool, _draw) -> Pass:
    p = Pass(trace)
    child = Child(_child_argv({"mode": "families", "seed": seed, "pass": index}, trace))
    p.children.append(child)
    p.wall_s = child.wall_s
    expected = [(s["family"], s["g"], op) for s in workloads.family_pass(seed, index)
                for op in s["ops"]]
    try:
        env = child.envelope()
        p.envelopes.append(env)
        if [op[0] for op in env["ops"]] != [op for _, _, op in expected]:
            raise BenchError("the pass ran other ops than it was given")
    except (BenchError, ValueError, KeyError) as exc:
        p.op_s = [child.wall_s / len(expected)] * len(expected)
        p.errors = [repr(exc)] * len(expected)
        return p
    for (family, g, op), (_, dt, got, raised) in zip(expected, env["ops"]):
        p.op_s.append(dt)
        p.errors.append(raised or _judge(oracle.check_family_op, family, g, op, got))
    return p


def run_cli_pass(seed: int, index: int, trace: bool, draw) -> Pass:
    p = Pass(trace)
    commands = draw.next_pass()
    t0 = time.perf_counter()
    for argv in commands:
        if trace:
            p.children.append(Child(_child_argv({"mode": "cli", "argv": argv}, True)))
        else:
            p.children.append(Child([sys.executable, "-m", "pincover.cli"] + argv))
    p.wall_s = time.perf_counter() - t0
    digests = _load_digests()
    for argv, child in zip(commands, p.children):
        p.op_s.append(child.wall_s)
        p.errors.append(_check_cli_op(argv, child, p, digests))
    return p


def _check_cli_op(argv, child: Child, p: Pass, digests: dict):
    try:
        if p.traced:
            env = child.envelope()
            p.envelopes.append(env)
            rc, stdout = env["rc"], env["stdout"]
        else:
            rc, stdout = child.rc, child.stdout
        if rc != 0:
            return f"exit code {rc}: {child.stderr.strip()[-200:]}"
        payload = json.loads(stdout)
    except (BenchError, ValueError, KeyError) as exc:
        return repr(exc)
    key = workloads.cli_key(argv)
    if digests.get(key) != oracle.canonical_digest(payload):
        return f"digest of `{key}` differs from the recorded one"
    return _judge(oracle.check_cli, argv, payload)


def _load_digests() -> dict:
    with open(DIGESTS) as f:
        return json.load(f)


RUNNERS = {"verify": run_verify_pass, "families": run_families_pass, "cli": run_cli_pass}


def measure_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports pincover.cli and builds inputs."""
    child = Child(_child_argv({"mode": "setup", "workload": workload, "seed": seed}, False))
    child.envelope()
    return child.wall_s


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes until the next one would end after `seconds`.

    SETUPS_PER_PASS set-ups are timed before each pass (and at least
    SETUP_REPEATS a run), so set-up and passes sample the host over the same
    stretch of time.
    """
    measure_setup(workload, seed)  # warm-up: the first run may write bytecode caches
    draw = workloads.CliDraw(seed)
    passes: list[Pass] = []
    calib: list[float] = []
    setup: list[float] = []
    t0 = time.perf_counter()
    while True:
        calib.append(calibration_ms())
        setup.extend(measure_setup(workload, seed) for _ in range(SETUPS_PER_PASS))
        # the traced run alternates traced and untraced passes, starting traced
        passes.append(RUNNERS[workload](seed, len(passes), trace and len(passes) % 2 == 0, draw))
        walls = [p.wall_s for p in passes]
        if time.perf_counter() - t0 + statistics.median(walls) > seconds:
            if not trace or len(passes) >= 2:
                break
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(workload, seed))
    return {"workload": workload, "seed": seed, "setup": setup, "passes": passes,
            "calib": calib,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}


# --- metrics -------------------------------------------------------------------


def end_to_end(run: dict) -> dict:
    passes = [p for p in run["passes"] if not p.traced]
    walls = [p.wall_s for p in passes]
    ops_ms = [dt * 1e3 for p in passes for dt in p.op_s]
    return {
        "pass_s": statistics.median(walls),
        "pass_min_s": min(walls),
        "op_p50_ms": percentile(ops_ms, 50),
        "op_p90_ms": percentile(ops_ms, 90),
        "setup_s": statistics.median(run["setup"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def counts(run: dict) -> dict:
    attempted = sum(len(p.errors) for p in run["passes"])
    failed = sum(1 for p in run["passes"] for e in p.errors if e is not None)
    return {"attempted": attempted, "failed": failed}


def per_layer(run: dict) -> dict:
    """Every per-layer figure of a traced run (BENCHMARK.json lists a subset)."""
    traced = [p for p in run["passes"] if p.traced]
    plain = [p for p in run["passes"] if not p.traced]
    first = traced[0]
    out: dict[str, float] = {}

    def per_pass(p: Pass, section: str, name: str) -> float:
        return sum(env.get("trace", {}).get(section, {}).get(name, 0.0)
                   for env in p.envelopes)

    def first_count(name: str, key: str) -> int:
        return sum(env.get("trace", {}).get("counts", {}).get(name, {}).get(key, 0)
                   for env in first.envelopes)

    for module, attribute, _, _ in TRACED:
        name = metric_name(module, attribute)
        out[f"{name}.self_s"] = statistics.median(per_pass(p, "self_s", name) for p in traced)
        out[f"{name}.calls"] = first_count(name, "calls")
    out["surface.check_relations.points"] = first_count("surface.check_relations", "points")
    out["homology.smith_normal_form.entries"] = first_count("homology.smith_normal_form",
                                                            "entries")
    out["clifford.geometric_product.term_pairs"] = first_count("clifford.geometric_product",
                                                               "term_pairs")
    out["pinors.grid_nodes"] = sum(first_count(f"pinors.{f}", "grid_nodes") for f in (
        "project_invariant", "couple_split", "invariance_residual"))
    for g in (4, 8, 12, 16):
        durations = [d for p in traced for env in p.envelopes
                     for d in env["trace"]["tagged"].get(f"homology.induced_maps.g{g:02d}", [])]
        out[f"homology.induced_maps.g{g:02d}.s"] = (statistics.median(durations)
                                                   if durations else 0.0)
    for i in range(len(oracle.CRITERIA)):
        times = [env["criterion_s"][i] for p in traced for env in p.envelopes
                 if "criterion_s" in env]
        out[f"acceptance.criterion.{i + 1:02d}.s"] = statistics.median(times) if times else 0.0
    out["setup.import_s"] = statistics.median(env["import_s"] for p in traced
                                              for env in p.envelopes)
    out["proc.cpu_s"] = statistics.median(p.cpu_s for p in traced)
    out["proc.wait_s"] = statistics.median(p.wall_s - p.cpu_s for p in traced)
    out["host.calib_ms.min"] = min(run["calib"])
    out["host.calib_ms.p50"] = statistics.median(run["calib"])
    out["trace.pass_min_s"] = min(p.wall_s for p in traced)
    out["trace.overhead_ratio"] = out["trace.pass_min_s"] / min(p.wall_s for p in plain)
    return out


def write_trace(run: dict, layers: dict) -> None:
    """Spans (name, start, end, parent, pass id) and every per-layer figure."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{run['workload']}-seed{run['seed']}")
    with open(stem + ".spans.jsonl", "w") as f:
        for index, p in enumerate(run["passes"]):
            for child, env in enumerate(p.envelopes):
                if "spans" in env:
                    f.write(json.dumps({"pass": index, "child": child,
                                        "spans": env["spans"]}) + "\n")
    with open(stem + ".layers.json", "w") as f:
        json.dump(layers, f, indent=1, sort_keys=True)


# --- entry point -------------------------------------------------------------------


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def report(run: dict, spec: dict, trace: bool) -> dict:
    """Print one run's figures for a reader; return the metrics the spec names."""
    tally = counts(run)
    passes = run["passes"]
    figures = end_to_end(run)
    figures["failed_frac"] = tally["failed"] / tally["attempted"]
    ops_ms = [dt * 1e3 for p in passes if not p.traced for dt in p.op_s]
    beyond = sum(1 for x in ops_ms if x > figures["op_p90_ms"])
    print(f"# {run['workload']} seed={run['seed']}: {len(passes)} passes, "
          f"{tally['attempted']} ops, {tally['failed']} failed; "
          f"{len(ops_ms)} untraced op samples, {beyond} beyond op_p90_ms")
    for p_index, p in enumerate(passes):
        for e in p.errors:
            if e is not None:
                print(f"#   pass {p_index}: {e}")
    print(f"# host.calib_ms min {min(run['calib']):.3f} p50 "
          f"{statistics.median(run['calib']):.3f}")
    print("# pass walls (s, t = traced): " + " ".join(
        f"{p.wall_s:.3f}{'t' if p.traced else ''}" for p in passes))
    print("# calibration before each pass (ms): " + " ".join(f"{c:.1f}" for c in run["calib"]))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in figures.items():
        print(f"{run['workload']:9s} {name:40s} {value:14.6f} {units.get(name, '1')}")
    wanted = spec["end_to_end"]
    if trace:
        layers = per_layer(run)
        write_trace(run, layers)
        for name, value in layers.items():
            print(f"{run['workload']:9s} {name:40s} {value:14.6f} "
                  f"{units.get(name, 'count' if isinstance(value, int) else 's')}")
        figures = layers
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        raise BenchError(f"no figure for {missing}")
    return {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a run.py process of its own, so that its RUSAGE_CHILDREN,
    and with it peak_rss_mb, holds only its own children.  Metric names get the
    workload as a prefix."""
    metrics: dict = {}
    attempted = failed = 0
    for name in WORKLOADS:
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate()
        except BaseException:  # interrupted: on SIGTERM the run stops its own children
            proc.terminate()
            proc.wait()
            raise
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update((f"{name}.{key}", value) for key, value in result["metrics"].items())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run unwinds through Child, which kills and reaps its process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "pincover", "cli.py")):
        sys.stderr.write(f"error: no pincover sources under {SRC}; run from a checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = load_spec()
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics = report(run, spec, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    tally = counts(run)
    print(json.dumps({"correct": tally["failed"] == 0, **tally, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
