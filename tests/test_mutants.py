"""Mutants for passing records that no other test names.

Each row patches one callable of the program, runs the record's battery
once, and requires that exactly the listed records turn from their usual
status to `fail`.  The test also asserts that the patched callable was
called, so a patch that misses its target (a name its callers do not look
up) fails here rather than passing vacuously.  The mutants live in the
tests only; no check or expected status changes.
"""

from __future__ import annotations

import pytest

from siegelcy import characteristics, variety
from siegelcy.mpoly import MPoly
from siegelcy.suite import run_suite


def _flip_a1(act):
    def mutant(x, m):
        image = act(x, m)
        return image._replace(a1=1 - image.a1)
    return mutant


def _curve_map_to_zero(ring_map):
    def mutant(source, assignment):
        if all(v.vars == variety.PARAM_VARS for v in assignment.values()):
            return lambda f: MPoly.zero(variety.PARAM_VARS)
        return ring_map(source, assignment)
    return mutant


#: (battery, module, attribute, replacement of the original, the records
#: that must fail, why the mutant reaches them)
MUTANTS = [
    ("chars", characteristics, "_act", _flip_a1,
     {"chars.parity_preserved", "chars.orbit_transitive", "chars.stabilizer"},
     "the action with a1 flipped moves parity, the orbit and the stabilizer; "
     "a flip of b2 leaves one of the three passing"),
    ("chars", characteristics, "complement_sextuple",
     lambda genuine: lambda q: characteristics.STANDARD_SEXTUPLE,
     {"chars.complement_sextuples"},
     "one sextuple for every quadruple is not fifteen distinct ones"),
    ("variety", variety, "jacobian_rank_at", lambda genuine: lambda pres, point: 1,
     {"variety.smooth_control"},
     "a rank below two at the control point reads as a singular point"),
    ("variety", variety, "RingMap", _curve_map_to_zero, {"variety.singular_curves"},
     "a substitution along the curves that returns zero satisfies every ideal and "
     "minor, but leaves the Jacobian rank 0, which no point of the threefold has"),
]


@pytest.mark.parametrize("battery, module, name, replace, failing, reason", MUTANTS,
                         ids=[row[2] for row in MUTANTS])
def test_mutant_fails_its_records(battery, module, name, replace, failing, reason,
                                  monkeypatch):
    usual = {c.id: c.status for c in run_suite(battery).checks}
    assert all(usual[i] == "pass" for i in failing)
    calls = []
    mutant = replace(getattr(module, name))

    def counted(*args):
        calls.append(args)
        return mutant(*args)

    # the orbit and stabilizer scan is kept per quadruple: cleared so that
    # the mutant is scanned, and again so that no later test reads it
    characteristics._quadruple_scan.cache_clear()
    monkeypatch.setattr(module, name, counted)
    try:
        changed = {c.id: c.status for c in run_suite(battery).checks}
    finally:
        characteristics._quadruple_scan.cache_clear()
    assert calls, f"the patched {name} was never called"
    assert {i for i, status in changed.items() if status != usual[i]} == failing, reason
    assert all(changed[i] == "fail" for i in failing)
