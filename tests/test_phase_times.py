"""The per-phase solver times that scripts/phase_times.py prints."""

import importlib.util
from pathlib import Path

import pytest

from auglobatto import Method, nonlinear_ivp

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("phase_times", ROOT / "scripts" / "phase_times.py")
phase_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(phase_times)


def test_phases_fill_the_solve_and_the_timers_come_off():
    # Square N=8 ends singular after dual shifts, so every phase runs.
    solves = [
        (lambda: nonlinear_ivp()[0], method, n)
        for method, n in [(Method.NEW_LOBATTO, 6), (Method.STANDARD_LOBATTO, 8)]
    ]
    originals = {p: getattr(owner, attr) for p, (owner, attr) in phase_times.PHASES.items()}
    totals = phase_times.measure(solves)
    assert set(totals) == set(phase_times.PHASES) | {"other", "solve"}
    assert all(totals[p] > 0.0 for p in phase_times.PHASES)
    assert 0.0 <= totals["other"] < totals["solve"]
    for p, (owner, attr) in phase_times.PHASES.items():
        assert getattr(owner, attr) is originals[p]


def test_repeat_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        phase_times.main(["--repeat", "0"])
    assert exc.value.code == 2
    assert "--repeat must be at least 1" in capsys.readouterr().err
