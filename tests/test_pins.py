"""tools/pins.py runs CI's output pins: any mismatch must fail it, a child that
outlives its timeout must be killed, and each pin must report its own peak RSS."""

from __future__ import annotations

import importlib.util
import json
import os
import time
from pathlib import Path

import pytest

PINS = Path(__file__).resolve().parent.parent / "tools" / "pins.py"
CONJUGATE_SHA = "040e07f2a750036cd7dd9c7af8444c2ceb2e658b3a4764e63a22d0c02aeed168"


@pytest.fixture(scope="module")
def pins():
    spec = importlib.util.spec_from_file_location("tools_pins", PINS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def conjugate(pins, **changes):
    # `conjugate 3,2,1` peaks at about 15 MB in under 0.1 s.
    return pins.Pin("conjugate", pins.cli("conjugate 3,2,1"), 0, 64, 60, CONJUGATE_SHA, "")._replace(**changes)


def run(pins, capsys, *table):
    code = pins.main(list(table))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(table) + 1
    return code, json.loads(lines[-1])


def test_a_pin_that_holds_passes(pins, capsys):
    code, summary = run(pins, capsys, conjugate(pins))
    assert (code, summary["pins"], summary["failed"]) == (0, 1, [])
    assert 0 < summary["peak_mb"]["conjugate"] <= 64


@pytest.mark.parametrize(
    "changes",
    [
        {"sha": CONJUGATE_SHA[:-1] + "0"},
        {"code": 1},
        {"limit_mb": 10},
    ],
    ids=["edited-sha256", "wrong-exit-code", "limit-below-peak"],
)
def test_each_mismatch_fails_the_runner(pins, capsys, changes):
    code, summary = run(pins, capsys, conjugate(pins, **changes))
    assert (code, summary["failed"]) == (1, ["conjugate"])


def test_a_child_past_its_timeout_is_killed_and_fails(pins, capsys, tmp_path):
    pid_file = tmp_path / "pid"
    sleeper = f"import os, time; open({str(pid_file)!r}, 'w').write(str(os.getpid())); time.sleep(60)"
    start = time.monotonic()
    code, summary = run(pins, capsys, conjugate(pins, argv=("-c", sleeper), sha=None, timeout=1))
    assert time.monotonic() - start < 30
    assert (code, summary["failed"]) == (1, ["conjugate"])
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_a_small_pin_after_a_large_one_reports_its_own_peak(pins, capsys):
    _, alone = run(pins, capsys, conjugate(pins))
    large = conjugate(pins, name="large", argv=pins.cli("conjugate 300000"), sha=None, limit_mb=None)
    code, after = run(pins, capsys, large, conjugate(pins))
    assert code == 0
    # RUSAGE_CHILDREN would read the large pin's peak for both.
    assert after["peak_mb"]["large"] > alone["peak_mb"]["conjugate"] + 10
    assert after["peak_mb"]["conjugate"] == pytest.approx(alone["peak_mb"]["conjugate"], abs=2)


@pytest.mark.parametrize(
    "source, exit_code, passes",
    [
        ("print('error: bad input', file=sys.stderr); sys.exit(1)", 1, True),
        ("print('refused: over budget', file=sys.stderr); sys.exit(3)", 3, True),
        ("print('bad input', file=sys.stderr); sys.exit(1)", 1, False),
        ("print('error: over budget', file=sys.stderr); sys.exit(3)", 3, False),
        ("print('Traceback (most recent call last):', file=sys.stderr)", 0, False),
    ],
)
def test_stderr_holds_no_traceback_and_a_refusal_names_its_kind(pins, capsys, source, exit_code, passes):
    pin = conjugate(pins, argv=("-c", f"import sys; {source}"), code=exit_code, sha=None)
    code, summary = run(pins, capsys, pin)
    assert (code, summary["failed"]) == ((0, []) if passes else (1, ["conjugate"]))


def test_the_table_pins_every_check_once(pins):
    names = [pin.name for pin in pins.PINS]
    assert len(names) == len(set(names)) == 29
    scans = [pin for pin in pins.PINS if pin.argv[:3] == ("-m", "recindex", "axioms") and pin.code == 2]
    assert [f"{pin.name}.out" for pin in scans] == list(pins.PINS[names.index("replay")].argv[2:])
    assert all(pin.why and pin.timeout > 0 for pin in pins.PINS)
