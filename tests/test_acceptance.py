"""Acceptance suite: one test (and one printed pass/fail line) per criterion."""

import pytest

from pincover.acceptance import CRITERIA

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


def test_cover_diagram_failure_names_relation_and_point(monkeypatch):
    from pincover import acceptance
    from pincover.surface import Involution, cover_diagram

    def broken(x):
        d = cover_diagram(x)
        tau4 = Involution.affine("tau4", ((-1, 0), (0, 1)), (0, 0), d.master, True)
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
