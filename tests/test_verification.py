import math

import numpy as np
import pytest

from xchmc import (DivergedLeg, LegSpec, PhaseState, lahmc_probabilities, sigma_sequence,
                   verification, verify)
from xchmc.verification import SUITES, CheckOutcome, _lahmc_gap


def test_suite_names():
    assert set(SUITES) == {"reversibility", "volume", "main_identity",
                           "lahmc_equivalence", "palindromic_coupling"}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify("nonsense")


def test_single_suite_report():
    report = verify("reversibility")
    assert report.passed
    assert len(report.outcomes) == 1
    out = report.outcomes[0]
    assert out.name == "reversibility"
    assert out.worst <= out.tolerance
    assert out.checks > 0


def test_line_format():
    outcome = CheckOutcome(name="demo", passed=True, worst=1e-12,
                           tolerance=1e-10, checks=42, detail="")
    line = outcome.line()
    assert line.startswith("[PASS] demo:")
    assert "worst=" in line and "tol=" in line and "checks=42" in line
    failing = CheckOutcome(name="demo", passed=False, worst=1.0,
                           tolerance=1e-10, checks=1, detail="")
    assert failing.line().startswith("[FAIL]")


def test_coupling_suite_passes_quickly():
    report = verify("palindromic_coupling")
    assert report.passed
    assert report.outcomes[0].checks >= 3


def test_lookahead_triple_integrates_its_orbit_once(counting, gauss2d):
    # extra = 3: four 3-step legs of 3 gradient evaluations each, plus 1 at z, for
    # both sides.
    model, calls = counting(gauss2d)
    leg = LegSpec(0.2, 3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = PhaseState(rng.standard_normal(2), rng.standard_normal(2))
        calls["gradient"] = 0
        gap = _lahmc_gap(model, leg, z, 3)
        assert calls["gradient"] == 13
        sigma = sigma_sequence(gauss2d, leg, z, 3).sigma
        _, cumulative = lahmc_probabilities(gauss2d, leg, z, 3)
        assert gap == float(np.max(np.abs(sigma - cumulative)))


# Each battery with the check it folds replaced, and small arguments.
_BATTERY_CHECKS = [
    ("verify_reversibility", "check_reversibility", {"points_per_target": 3}),
    ("verify_volume", "check_volume_preservation", {"points_per_target": 3}),
    ("verify_main_identity", "check_main_identity", {"triples": 9}),
    ("verify_lahmc_equivalence", "_lahmc_gap", {"triples": 9}),
    ("verify_palindromic_coupling", "_coupling_discrepancy", {"transitions": 3}),
]


@pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
@pytest.mark.parametrize("battery,check,kwargs", _BATTERY_CHECKS)
def test_non_finite_check_result_fails_its_battery(monkeypatch, battery, check, kwargs, bad):
    # The second check returns ``bad`` and every other one a passing 0.
    results = iter([0.0, bad])
    monkeypatch.setattr(verification, check, lambda *args: next(results, 0.0))
    outcome = getattr(verification, battery)(**kwargs)
    assert not outcome.passed
    assert outcome.worst == bad or (math.isnan(bad) and math.isnan(outcome.worst))
    assert outcome.line().startswith("[FAIL]")


@pytest.mark.parametrize("battery,size", [
    ("verify_reversibility", "points_per_target"),
    ("verify_volume", "points_per_target"),
    ("verify_main_identity", "triples"),
    ("verify_lahmc_equivalence", "triples"),
    ("verify_palindromic_coupling", "transitions"),
])
@pytest.mark.parametrize("bad", [0, -3, True, 2.5])
def test_battery_of_no_checks_is_rejected(battery, size, bad):
    # A battery with no checks would report a vacuous pass; a size is an integer >= 1.
    with pytest.raises(ValueError, match=f"{size} must be an integer >= 1, not {bad!r}"):
        getattr(verification, battery)(**{size: bad})


# The gates' bounds, as README "Verification suites" states them: no caller sets them.
@pytest.mark.parametrize("battery,size,tolerance", [
    ("verify_reversibility", "points_per_target", 1e-10),
    ("verify_volume", "points_per_target", 1e-5),
    ("verify_main_identity", "triples", 1e-8),
    ("verify_lahmc_equivalence", "triples", 1e-12),
    ("verify_palindromic_coupling", "transitions", 1e-12),
])
def test_battery_tolerance_is_the_readme_value(battery, size, tolerance):
    outcome = getattr(verification, battery)(**{size: 1})
    assert outcome.passed
    assert outcome.tolerance == tolerance


@pytest.mark.parametrize("battery,size,checks,detail", [
    ("verify_reversibility", "points_per_target", 6, ""),
    ("verify_volume", "points_per_target", 6, ""),
    ("verify_main_identity", "triples", 2, ""),
    ("verify_lahmc_equivalence", "triples", 2, ""),
    ("verify_palindromic_coupling", "transitions", 3, "2 transitions per angle"),
])
@pytest.mark.parametrize("two", [2.0, np.int64(2)], ids=["float", "numpy"])
def test_integral_battery_size_runs_as_int(battery, size, checks, detail, two):
    outcome = getattr(verification, battery)(**{size: two})
    assert outcome.passed
    assert (outcome.checks, outcome.detail) == (checks, detail)


@pytest.mark.parametrize("triples", [1, 3])
def test_main_identity_with_every_triple_skipped_fails(monkeypatch, triples):
    def diverging(*args):
        raise DivergedLeg(0, 0)

    monkeypatch.setattr(verification, "check_main_identity", diverging)
    outcome = verification.verify_main_identity(triples=triples)
    assert outcome.checks == 0
    assert not outcome.passed
    assert outcome.detail == f"skipped={5 * triples}"
