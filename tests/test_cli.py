import csv
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import pincover
from pincover.cli import main
from pincover.reporting import Report
from pincover.surface import MODELS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_homology_k2(capsys):
    payload = run_json(capsys, "homology", "k2")
    assert payload["results"]["h1"] == {"free": 1, "torsion": [2]}
    assert payload["results"]["b1_2"] == 2


def test_homology_families(capsys):
    payload = run_json(capsys, "homology", "n(2,1)")
    assert payload["results"]["h1"] == {"free": 4, "torsion": [2]}


def test_descend_rp2_counts(capsys):
    minus = run_json(capsys, "descend", "rp2", "--kind", "pin-")
    assert minus["results"]["count"] == 2
    plus = run_json(capsys, "descend", "rp2", "--kind", "pin+")
    assert plus["results"]["count"] == 0


def test_obstructions_rp2(capsys):
    payload = run_json(capsys, "obstructions", "rp2")
    assert payload["results"]["pin_plus"] == {"exists": False, "count": 0}
    assert payload["results"]["pin_minus"] == {"exists": True, "count": 2}


EXPLICIT_LABELS = {"t2": ["xi0", "xi1", "xi2", "xi3"], "cyl": ["xi0", "xi1"], "s2": ["xi_s2"]}


@pytest.mark.parametrize("surface", list(EXPLICIT_LABELS))
def test_structures_listing(capsys, surface):
    payload = run_json(capsys, "structures", surface, "--kind", "pin+")
    labels = [item["label"] for item in payload["results"]["structures"]]
    assert labels == EXPLICIT_LABELS[surface]


# the geometric models: structures are listed, descended, or read off the cover diagram
STRUCTURES_MODE = {"s2": "explicit", "rp2": "geometric", "t2": "explicit", "k2": "geometric",
                   "cyl": "explicit", "moebius": "diagram"}


@pytest.mark.parametrize("surface", list(MODELS))
def test_structures_mode_of_every_named_model(capsys, surface):
    for kind in ("pin+", "pin-"):
        payload = run_json(capsys, "structures", surface, "--kind", kind)
        assert payload["results"]["mode"] == STRUCTURES_MODE[surface]


def test_structures_count_only(capsys):
    payload = run_json(capsys, "structures", "n(3,1)", "--kind", "pin-")
    assert payload["results"]["mode"] == "count-only"
    assert payload["results"]["count"] == 2 ** 7


def test_moebius_report(capsys):
    payload = run_json(capsys, "moebius")
    assert payload["results"]["descending"]["pin+"] == ["xi0", "xi1"]
    assert payload["results"]["tau4_squares"]["pin-"]["xi2"] == 1


def test_covermaps_k2(capsys):
    payload = run_json(capsys, "covermaps", "k2")
    assert payload["results"]["image_index_z2"] == 2
    assert payload["results"]["splitting_k"] == 1


def test_pinors_check(capsys):
    payload = run_json(capsys, "pinors", "check", "t2", "--structure", "0",
                       "--kind", "pin+", "--sign", "+", "--seed", "3")
    assert payload["results"]["lift"]["square"] == 1
    assert float(payload["results"]["projector_residual"]) < 1e-9
    assert float(payload["results"]["couple_certificate_residual"]) < 1e-9


def test_pinors_square_minus_one_reports(capsys):
    payload = run_json(capsys, "pinors", "check", "t2", "--structure", "0",
                       "--kind", "pin-")
    assert payload["results"]["lift"]["square"] == -1
    assert "projector" in payload["results"]


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "covermaps", "t2")
    assert code == 2 and "orientable" in err
    code, _, err = run(capsys, "descend", "k2", "--kind", "spin")
    assert code == 2
    code, _, _ = run(capsys, "homology", "nowhere")
    assert code == 2
    code, out, err = run(capsys, "homology", "sigma(1,2)")
    assert code == 2 and out == "" and "unknown surface" in err


@pytest.mark.parametrize("name", ["n(٣,1)", "sigma(３)", "n(01,1)", "sigma(002)", "n(00,2)"])
def test_a_family_name_with_non_ascii_digits_or_a_leading_zero_is_a_usage_error(capsys, name):
    # Arabic-Indic three and fullwidth three: int() would read both as 3; and
    # int() reads past a leading zero, which would answer n(1,1) as n(01,1)
    code, out, err = run(capsys, "homology", name)
    assert code == 2 and out == "" and "unknown surface" in err


def test_an_internal_error_exits_3_with_its_traceback(capsys, monkeypatch):
    from pincover import cli

    def broken(args):
        raise AssertionError("the two lifts must square identically")

    monkeypatch.setitem(cli._HANDLERS, "homology", broken)
    code, out, err = run(capsys, "homology", "k2")
    assert code == 3 and out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert "in broken" in err
    assert err.endswith("AssertionError: the two lifts must square identically\n")


def test_a_failed_wu_solve_is_an_internal_error(capsys, monkeypatch):
    # a symmetric form always solves its own diagonal over GF(2), so only a
    # wrong chord form fails; build makes a new word for every family name,
    # so the kept answer of an earlier solve cannot stand in for this one
    from pincover import characteristic

    def zero_form(model):
        letters = model.word.letters
        return letters, [0] * len(letters)

    monkeypatch.setattr(characteristic, "chord_gram_matrix", zero_form)
    code, out, err = run(capsys, "obstructions", "n(2,1)")
    assert code == 3 and out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert "in _wu_class" in err and "AssertionError" in err


def test_genus_above_the_limit_is_a_usage_error_before_any_homology(capsys, monkeypatch):
    from pincover import cli
    from pincover.surface import GENUS_LIMIT

    def no_homology(*args):
        raise AssertionError("homology ran for a rejected surface")

    for name in ("induced_maps", "orientation_double_cover_complex", "homology_groups",
                 "obstructions", "descend"):
        monkeypatch.setattr(cli, name, no_homology)
    g = GENUS_LIMIT + 1
    for argv in (["covermaps", f"n({g},2)"], ["homology", f"sigma({g})"],
                 ["obstructions", f"n({g},1)"], ["descend", f"n({g},2)", "--kind", "pin-"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"at most {GENUS_LIMIT}" in err, argv


@pytest.mark.parametrize("grid", ["0", "-2", "3"])
def test_pinors_grid_must_be_positive_and_even(capsys, grid):
    code, out, err = run(capsys, "pinors", "check", "t2", "--grid", grid)
    assert code == 2 and out == ""
    assert "--grid must be positive and even" in err


def test_pinors_grid_above_the_limit_is_a_usage_error_before_any_field(capsys, monkeypatch):
    from pincover.pinors import GRID_LIMIT, PinorField

    class FieldBuilt(Exception):
        pass

    def no_field(*args):
        raise FieldBuilt

    monkeypatch.setattr(PinorField, "random", no_field)
    code, out, err = run(capsys, "pinors", "check", "t2", "--grid", "1026")
    assert code == 2 and out == "" and f"--grid is at most {GRID_LIMIT}, got 1026" in err
    # the limit itself passes validation and reaches the field, whose
    # exception main reports as an internal error
    code, out, err = run(capsys, "pinors", "check", "t2", "--grid", str(GRID_LIMIT))
    assert code == 3 and out == "" and "FieldBuilt" in err


@pytest.mark.parametrize("argv", [["verify"], ["pinors", "check", "t2"]])
def test_a_negative_seed_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2 and out == ""
    assert "--seed must be non-negative, got -1" in err


def test_verify_passes_and_prints_one_line_per_criterion(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(l.startswith("PASS") for l in lines)


VERIFY_JSON_SHA256 = {
    "0": "ddc4fd00bdb0695c3382f19af9e8dc94bc9491f2cafff204aad7feeb985a3cbe",
    "7": "34e93aecf61bc2a1411d6c7f92571dfca66eb65483d27a6f0e98ef7887560b3c",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_JSON_SHA256))
def test_verify_json_bytes_are_pinned(capsys, seed):
    """verify --format json at a fixed seed, byte for byte.  The deviations it
    reports are floats, so a change to a floating-point path of the oracle or
    the pinor grids (an operation order, a summation) changes the digest."""
    code, out, err = run(capsys, "verify", "--format", "json", "--seed", seed)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256[seed], out


def test_verify_timings_only_add_seconds(capsys, monkeypatch):
    from pincover import acceptance

    monkeypatch.setattr(acceptance, "CRITERIA", acceptance.CRITERIA[:3])
    plain = run_json(capsys, "verify", "--seed", "3")
    timed = run_json(capsys, "verify", "--seed", "3", "--timings")
    assert all("seconds" not in c for c in plain["results"]["criteria"])
    seconds = [float(c.pop("seconds")) for c in timed["results"]["criteria"]]
    assert len(seconds) == 3 and all(s >= 0.0 for s in seconds)
    assert timed == plain

    code, out, _ = run(capsys, "verify", "--seed", "3")
    assert code == 0 and " s]" not in out
    code, out, _ = run(capsys, "verify", "--seed", "3", "--timings")
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert code == 0 and len(lines) == 3
    assert all(re.search(r" \[\d+\.\d{3} s\]$", l) for l in lines)


def test_output_is_deterministic(capsys):
    one = run(capsys, "descend", "k2", "--kind", "pin-", "--format", "json")
    two = run(capsys, "descend", "k2", "--kind", "pin-", "--format", "json")
    assert one == two
    v1 = run(capsys, "verify", "--seed", "7", "--format", "json")
    v2 = run(capsys, "verify", "--seed", "7", "--format", "json")
    assert v1 == v2


def test_csv_and_table_formats(capsys):
    code, out, _ = run(capsys, "homology", "k2", "--format", "csv")
    assert code == 0 and out.startswith("key,value")
    code, out, _ = run(capsys, "homology", "k2", "--format", "table")
    assert code == 0 and "h1.free" in out


def rows(out, fmt):
    """The (key, value) rows of a csv or table rendering."""
    if fmt == "csv":
        return dict(csv.reader(out.splitlines()[1:]))
    return dict(line.split(None, 1) for line in out.splitlines() if not line.startswith("#"))


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_csv_and_table_keep_empty_lists_and_dicts(capsys, fmt):
    # the json of both commands has these keys; the rows used to drop them
    code, out, _ = run(capsys, "descend", "n(1,1)", "--format", fmt)
    assert code == 0
    got = rows(out, fmt)
    assert (got["squares"], got["qualifying"], got["structures"]) == ("{}", "[]", "[]")
    code, out, _ = run(capsys, "covermaps", "n(0,1)", "--format", fmt)
    assert code == 0
    got = rows(out, fmt)
    assert (got["push_z.0"], got["push_z2.0"], got["pull_z2"]) == ("[]", "[]", "[]")
    assert got["kernel_pull.0.0"] == "1"


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_render_refuses_a_value_it_cannot_report(fmt):
    # no silent str(): an object that is neither plain data nor a record with as_dict
    report = Report("homology", {"surface": "k2"}, {"b1_2": object()})
    with pytest.raises(TypeError, match="cannot report a value of type object"):
        report.render(fmt)


EXACT_COMMANDS = [["surfaces"], ["homology", "n(4,2)"], ["covermaps", "k2"], ["covermaps", "rp2"],
                  ["obstructions", "k2"], ["structures", "rp2", "--kind", "pin-"],
                  ["descend", "n(2,2)", "--kind", "pin+"], ["moebius"]]

# records are plain slotted classes: dataclasses (and the inspect it loads)
# would cost every cold process about a third of its import time
HYGIENE_SCRIPT = """
import contextlib, io, json, sys
import pincover, pincover.cli
layers = {"surface", "homology", "characteristic", "pin2", "structures", "clifford",
          "pinors", "reporting"}
assert all("pincover." + m in sys.modules for m in layers), "a layer module is not loaded"
def heavy():
    return [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
assert not heavy(), ("import", heavy())
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert pincover.cli.main(argv + ["--format", "json"]) == 0, argv
    assert not heavy(), (argv, heavy())
"""


def test_exact_subcommands_run_without_numpy():
    """Only pinors and verify need arrays; the exact subcommands run without
    numpy, and no command loads dataclasses or inspect."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pincover.__file__)))
    proc = subprocess.run([sys.executable, "-c", HYGIENE_SCRIPT, json.dumps(EXACT_COMMANDS)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_typing():
    """Annotations are strings, so no module imports typing; -S keeps the
    site start-up (whose .pth files may import it) out of the check."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pincover.__file__)))
    script = ("import sys, pincover.cli, pincover.acceptance\n"
              "assert 'typing' not in sys.modules, 'typing is loaded'")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_universe_matches_the_recorded_digests(capsys):
    """Every command of the benchmark's cli pool, run in process, has the
    canonical JSON digest recorded in perfbench/digests.json."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    sys.path.insert(0, bench)
    try:
        import oracle
        import workloads
    finally:
        sys.path.remove(bench)
    with open(os.path.join(bench, "digests.json")) as f:
        recorded = json.load(f)
    commands = workloads.cli_universe()
    assert len(commands) == len(recorded)
    for cmd in commands:
        argv = cmd + ["--format", "json"]
        payload = run_json(capsys, *cmd)
        assert oracle.canonical_digest(payload) == recorded[workloads.cli_key(argv)], argv
