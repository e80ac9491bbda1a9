"""Acceptance suite: one test (and one printed pass/fail line) per criterion."""

import os
import subprocess
import sys

import pytest

import pincover
from pincover.acceptance import CRITERIA
from pincover.pin2 import PIN_MINUS

SEED = 0


@pytest.mark.parametrize("name,check", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(name, check, capsys):
    passed, detail = check(SEED)
    with capsys.disabled():
        print(f"\n{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_suite_is_deterministic():
    from pincover.acceptance import run_all

    first = [(r.name, r.passed, r.detail) for r in run_all(SEED)]
    second = [(r.name, r.passed, r.detail) for r in run_all(SEED)]
    assert first == second


def test_no_criterion_is_timed_with_the_numpy_import():
    """In a fresh process, numpy is loaded before the first criterion's clock
    starts, so --timings charges its import to no criterion."""
    script = ("import sys\n"
              "from pincover import acceptance\n"
              "assert 'numpy' not in sys.modules, 'numpy is loaded at import'\n"
              "probe = lambda seed: (True, repr('numpy' in sys.modules))\n"
              "acceptance.CRITERIA = [('probe', probe)]\n"
              "print(acceptance.run_all()[0].detail)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pincover.__file__)))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_a_crashing_criterion_fails_and_names_where_it_crashed(monkeypatch):
    from pincover import acceptance

    def crashing(seed):
        return {}["missing"]

    monkeypatch.setattr(acceptance, "CRITERIA", [("crashing", crashing)])
    (result,) = acceptance.run_all(SEED)
    line = crashing.__code__.co_firstlineno + 1
    assert not result.passed
    assert result.detail == f"error: KeyError('missing') at {__file__}:{line} in crashing"


def test_cover_diagram_failure_names_relation_and_point(monkeypatch):
    from pincover import acceptance
    from pincover.surface import Involution, cover_diagram

    def broken(x):
        d = cover_diagram(x)
        tau4 = Involution("tau4", ((-1, 0), (0, 1)), (0, 0), d.master)
        return d._replace(tau4=tau4)

    monkeypatch.setattr(acceptance, "cover_diagram", broken)
    passed, detail = acceptance.check_cover_diagram(SEED)
    assert not passed
    assert detail == ("failed relations: pi1_pi3_eq_pi2_pi4 at (0, 33/32)pi,"
                      " pi4_restricts_to_pi1 at (1, 1/32)pi,"
                      " tau34_fixed_point_free at (0, 0)pi, tau4_restricts_to_tau1 at (0, 0)pi")


def test_cylinder_classes_follow_the_witness(monkeypatch):
    """A witness whose rho and tau3 rho also agree at theta = pi drops the seam
    flip, so the doubling classes swap and criterion 6 names the first miss."""
    from pincover import acceptance, structures

    real = structures.boundary_lift_table

    def agreeing(kind):
        table = real(kind)
        return table._replace(tau3_rho=table.rho)

    monkeypatch.setattr(structures, "boundary_lift_table", agreeing)
    passed, detail = acceptance.check_cylinder_classes(SEED)
    assert not passed
    assert detail == "pin+: xi1 u_id xi1 does not induce xi0"


def test_klein_table_reads_the_descend_report(monkeypatch):
    """Criterion 3 checks the squares that `descend` reports: swapping two of
    them, with the counts left intact, fails it."""
    from pincover import acceptance, structures

    def swapped(base, kind):
        rep = structures.descend(base, kind)
        squares = dict(rep.squares, xi0=rep.squares["xi1"], xi1=rep.squares["xi0"])
        return rep._replace(squares=squares)

    monkeypatch.setattr(acceptance, "descend", swapped)
    passed, detail = acceptance.check_klein_table(SEED)
    assert not passed
    assert detail == "pin+: squares {'xi0': -1, 'xi1': 1, 'xi2': 1, 'xi3': -1}"


def test_moebius_table_reads_the_moebius_report(monkeypatch):
    """Criterion 4 checks the tau4 squares that `moebius` reports."""
    from pincover import acceptance, structures

    def flipped(x):
        rep = structures.moebius_descent(x)
        minus = dict(rep.tau4_squares[PIN_MINUS])
        minus["xi2"] = -minus["xi2"]
        return rep._replace(tau4_squares=dict(rep.tau4_squares, **{PIN_MINUS: minus}))

    monkeypatch.setattr(acceptance, "moebius_descent", flipped)
    passed, detail = acceptance.check_moebius_table(SEED)
    assert not passed
    assert detail.startswith("pin-: tau4 squares {'xi0': -1, 'xi1': -1, 'xi2': -1, 'xi3': 1}")


def test_splitting_is_checked_against_the_classification(monkeypatch):
    """Maps with two zero rows added to pi^*, which raises b1(2) of the cover
    and dim coker pi^* by 2, are self-consistent, but no longer cover N_h by
    the genus h - 1 surface."""
    from pincover import acceptance, homology

    def inflated(cover):
        maps = homology.z2_maps(cover)
        pull = maps.pull_z2
        return maps._replace(pull_z2=homology.Z2Matrix(pull.rows + (0, 0), pull.cols))

    monkeypatch.setattr(acceptance, "z2_maps", inflated)
    passed, detail = acceptance.check_splitting(SEED)
    assert not passed
    assert detail == "rp2: (k, b1(2) base, b1(2) cover) = (2, 1, 2) for h = 1"
