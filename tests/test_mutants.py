"""Mutants for passing records that no other test names.

Each row patches one callable of the program, runs the record's battery
once, and requires that exactly the listed records turn from their usual
status to `fail`.  The test also asserts that the patched callable was
called, so a patch that misses its target (a name its callers do not look
up) fails here rather than passing vacuously.  The mutants live in the
tests only; no check or expected status changes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from siegelcy import characteristics, modforms, mpoly, numeric, qseries, suite, variety
from siegelcy.characteristics import Char
from siegelcy.equations import Equations
from siegelcy.mpoly import MPoly
from siegelcy.qseries import QSeries
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


def _zero_values(kernel):
    def mutant(chars, Z, tol=1e-12):
        return [r._replace(value=0j) for r in kernel(chars, Z, tol)]
    return mutant


def _off_the_cone(theta_qexp):
    # (0, 0, 2) and (0, 4, 2) are not semipositive, and each is the other's
    # image under z1 -> -z1, so the reflection still fixes the series
    def mutant(m, truncation):
        s = theta_qexp(m, truncation)
        if m == Char(0, 0, 0, 1):
            s = s + QSeries({(0, 0, 2): 1, (0, 4, 2): 1}, truncation)
        return s
    return mutant


def _one_more_on_axis_1(vanishing_order):
    def mutant(series, axis):
        return vanishing_order(series, axis) + (axis == 1)
    return mutant


def _odd_term(theta_qexp):
    def mutant(m, truncation):
        s = theta_qexp(m, truncation)
        return s + QSeries({(1, 1, 1): 1}, truncation) if m == Char(1, 1, 1, 0) else s
    return mutant


def _half_constant(theta_qexp):
    def mutant(m, truncation):
        s = theta_qexp(m, truncation)
        if m == Char(0, 0, 0, 1):
            s = QSeries({**s.terms, (0, 0, 0): Fraction(3, 2)}, truncation)
        return s
    return mutant


def _negate_f11(second_kind_qexp):
    def mutant(a, truncation):
        f = second_kind_qexp(a, truncation)
        return -f if a == (1, 1) else f
    return mutant


#: (test id, battery, owner of the attribute, attribute, replacement of the
#: original, the records that must fail, why the mutant reaches them)
MUTANTS = [
    ("_act", "chars", characteristics, "_act", _flip_a1,
     {"chars.parity_preserved", "chars.orbit_transitive", "chars.stabilizer"},
     "the action with a1 flipped moves parity, the orbit and the stabilizer; "
     "a flip of b2 leaves one of the three passing"),
    ("complement_sextuple", "chars", characteristics, "complement_sextuple",
     lambda genuine: lambda q: characteristics.STANDARD_SEXTUPLE,
     {"chars.complement_sextuples"},
     "one sextuple for every quadruple is not fifteen distinct ones"),
    ("jacobian_rank_at", "variety", variety, "jacobian_rank_at",
     lambda genuine: lambda pres, point: 1,
     {"variety.smooth_control"},
     "a rank below two at the control point reads as a singular point"),
    ("RingMap", "variety", variety, "RingMap", _curve_map_to_zero, {"variety.singular_curves"},
     "a substitution along the curves that returns zero satisfies every ideal and "
     "minor, but leaves the Jacobian rank 0, which no point of the threefold has"),
    ("theta_eval_batch", "numeric", numeric, "theta_eval_batch", _zero_values,
     {"numeric.modulus_law", "numeric.weight2_character",
      "numeric.weight3_trivial_character", "numeric.lower_triangular_sign",
      "numeric.diagonal_vanishing", "numeric.dual_engine"},
     "zeros with their genuine bounds are not counted as law samples, leave no "
     "form to divide by, leave the off-diagonal control lost in its bound, and "
     "differ from the expansions"),
    ("theta_qexp", "series", qseries, "theta_qexp", _off_the_cone, {"series.semipositive_support"},
     "a theta with terms off the semipositive cone, in a reflection-symmetric pair "
     "that keeps every order"),
    ("negate_offdiag", "series", qseries, "negate_offdiag", lambda genuine: lambda s: s,
     {"series.reflection_symmetry"},
     "without the reflection the all-ones theta is not negated"),
    ("product", "relations", modforms, "product",
     lambda genuine: lambda series: genuine(list(series)[:-1]),
     {"relations.product_quadric", "relations.y_quartic", "relations.y_quadric",
      "relations.f6_quadric", "relations.chi5_product"},
     "a product without its last factor changes y5 = F6, the product of squares and "
     "both sides of chi5, and no other relation reads a product"),
    ("second_kind_qexp", "relations", modforms, "second_kind_qexp", _negate_f11,
     {"relations.classical_squares", "relations.classical_all_sixteen"},
     "f for a = (1, 1) negated flips the square relations' cross products; F reads "
     "it in squares and in f01 f23 = x4, whose relations read only x4^2"),
    ("series-vanishing_order", "series", qseries, "vanishing_order", _one_more_on_axis_1,
     {"series.vanishing_orders"},
     "a measured order off the divisor formula on q1; modforms reads its own name"),
    ("boundary-vanishing_order", "boundary", modforms, "vanishing_order", _one_more_on_axis_1,
     {"boundary.distribution", "boundary.orders_binary", "boundary.even_exponent_parity"},
     "a measured sextuple order off the summed bits refuses the shared order "
     "triples, which all three records read"),
    ("perm_sign", "variety", variety, "perm_sign", lambda genuine: lambda perm: 1,
     {"variety.omega_generator_signs"},
     "without the wedge's permutation sign the odd permutations, compensated by the "
     "x5 flip, read -1; the table itself was built at import"),
    ("determinant", "variety", mpoly, "determinant",
     lambda genuine: lambda matrix: -genuine(matrix),
     {"variety.rational_jacobian", "variety.blowup_line_blowup",
      "variety.blowup_axis_blowup"},
     "a negated determinant breaks the quotient-rule Jacobian and the chart "
     "pullbacks; variety reads its own determinant from equations"),
    ("odd_characteristics", "chars", suite, "odd_characteristics",
     lambda genuine: lambda: genuine()[:-1], {"chars.even_count"},
     "five odd characteristics are not six; the ten even ones stay"),
    ("syzygetic_quadruples", "chars", characteristics, "syzygetic_quadruples",
     lambda genuine: lambda: genuine()[:-1],
     {"chars.syzygetic_count", "chars.complement_sextuples", "chars.orbit_transitive"},
     "fourteen quadruples give fourteen sextuples and miss one of the orbit"),
    ("sp4f2_elements", "chars", characteristics, "sp4f2_elements",
     lambda genuine: lambda: genuine()[:-1], {"chars.group_order"},
     "719 elements are not 720; the last one neither shrinks the standard "
     "quadruple's orbit nor fixes it"),
    ("theta_qexp-odd_term", "series", qseries, "theta_qexp", _odd_term,
     {"series.odd_vanish"},
     "an odd theta with one term is not the zero series; no even theta changes"),
    ("theta_qexp-half_constant", "series", qseries, "theta_qexp", _half_constant,
     {"series.integral_coefficients"},
     "a Fraction passes the QSeries constructor; the reflection fixes (0, 0, 0) "
     "and no order moves"),
    ("igusa_quartic", "relations", Equations, "igusa_quartic",
     lambda genuine: lambda self, c=5: genuine(self, c), {"relations.igusa_quartic"},
     "c = 5 in place of 4; the falsification control passes its own c"),
    ("x_quartic", "relations", Equations, "x_quartic",
     lambda genuine: lambda self, c=2: genuine(self, c), {"relations.second_kind_quartic"},
     "c = 2 in place of 1; the falsification control passes its own c"),
    ("verify_identity", "relations", modforms, "verify_identity",
     lambda genuine: lambda name, registry, mutated=False: genuine(name, registry),
     {"relations.falsification_controls"},
     "a planted coefficient that is never planted leaves every residual zero"),
    ("symmetry_generators", "variety", variety, "symmetry_generators",
     lambda genuine: lambda: [g for g in genuine() if g != variety.SYMMETRIES["flip_4_alone"]],
     {"variety.symmetry_closure"},
     "without the x4 flip the generators close on half the group"),
    ("_invert_fraction_matrix", "variety", variety, "_invert_fraction_matrix",
     lambda genuine: lambda rows: rows,
     {"variety.coordinate_change", "variety.singular_curves"},
     "M in place of its inverse breaks the inverse direction of the change, and "
     "carries the curves' parametrizations off their x-side ideals"),
]


@pytest.mark.parametrize("battery, owner, name, replace, failing, reason",
                         [row[1:] for row in MUTANTS], ids=[row[0] for row in MUTANTS])
def test_mutant_fails_its_records(battery, owner, name, replace, failing, reason,
                                  monkeypatch):
    usual = {c.id: c.status for c in run_suite(battery).checks}
    assert all(usual[i] == "pass" for i in failing)
    calls = []
    mutant = replace(getattr(owner, name))

    def counted(*args, **kwargs):
        calls.append(args)
        return mutant(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    changed = {c.id: c.status for c in run_suite(battery).checks}
    assert calls, f"the patched {name} was never called"
    assert {i for i, status in changed.items() if status != usual[i]} == failing, reason
    assert all(changed[i] == "fail" for i in failing)


def _committed_statuses() -> dict[str, str]:
    report = json.loads((Path(__file__).parent / "golden" / "all_seed0.json").read_text())
    return {c["id"]: c["status"] for c in report["checks"]}


def test_mutants_leave_no_trace():
    """A run of `all` under each mutant in turn leaves nothing that a clean
    run in the same process reads."""
    for _, _, owner, name, replace, _, _ in MUTANTS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(owner, name, replace(getattr(owner, name)))
            run_suite("all")
    assert {c.id: c.status for c in run_suite("all").checks} == _committed_statuses()


def test_every_passing_record_has_a_mutant():
    passing = {i for i, status in _committed_statuses().items() if status == "pass"}
    named = set().union(*(row[5] for row in MUTANTS))
    assert len(passing) == 39
    assert passing <= named, sorted(passing - named)
