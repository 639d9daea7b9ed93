"""Acceptance battery: one test per criterion, each printing a summary line.

Every criterion is read off the records of `run_suite`, so the command
line and these tests share one implementation of each check.  Criteria 5
and 8 assert tabulated claims whose signs the exact engine (and an
independent lattice-sum check) measures differently; those two tests fail
by design rather than silently adjusting the expected values.
"""

from __future__ import annotations

import functools
import time

import pytest

from siegelcy.suite import run_suite


@functools.lru_cache(maxsize=None)
def _run(selector: str, truncation: int, seed: int):
    """Records by check id, and the seconds the battery took."""
    start = time.perf_counter()
    report = run_suite(selector, truncation=truncation, seed=seed)
    return {c.id: c for c in report.checks}, time.perf_counter() - start


def _criterion(num: int, selector: str, ids: tuple[str, ...], detail: str,
               truncation: int = 12, seed: int = 0) -> None:
    """Print the criterion's line; fail unless every named check passed.

    `detail` is formatted with each record's data under the part of its id
    after the dot.  A named check that raised fails with its error instead.
    """
    records, seconds = _run(selector, truncation, seed)
    failing = [cid for cid in ids if records[cid].status != "pass"]
    errors = [f"{cid}: {records[cid].data['error']}" for cid in failing
              if "error" in records[cid].data]
    detail = "; ".join(errors) or detail.format_map(
        {cid.split(".", 1)[1]: r.data for cid, r in records.items()})
    print(f"criterion {num:2d} [{'FAIL' if failing else 'PASS'}] "
          f"{seconds:6.2f}s  ({detail})")
    if failing:
        pytest.fail(f"{failing}: {detail}")


def test_criterion_01_characteristic_combinatorics():
    _criterion(1, "chars", ("chars.even_count", "chars.syzygetic_count",
                            "chars.orbit_transitive", "chars.group_order"),
               "counts {even_count[even]}/{syzygetic_count[count]}/"
               "{orbit_transitive[orbit_size]}/{group_order[order]}")


def test_criterion_02_vanishing_orders():
    _criterion(2, "series", ("series.vanishing_orders", "series.odd_vanish"),
               "10 characteristics x 3 axes at N=12")


def test_criterion_03_boundary_orders():
    _criterion(3, "boundary", ("boundary.distribution", "boundary.orders_binary",
                               "boundary.even_exponent_parity"),
               "multiset 8/1/2/2/2 of {distribution[total]} sextuples, parity "
               "on {even_exponent_parity[axes_checked]} axes")


def test_criterion_04_ring_relations():
    _criterion(4, "relations", tuple(f"relations.{name}" for name in (
        "igusa_quartic", "product_quadric", "y_quartic", "y_quadric",
        "classical_squares", "second_kind_quartic", "f6_quadric",
        "chi5_product", "classical_all_sixteen")),
               "8 relations + 16 square relations at N=16, quartic matched "
               "{second_kind_quartic[matched_coefficients]} coefficients at "
               "N={second_kind_quartic[truncation]}", truncation=16)


def test_criterion_05_substitution_table_as_tabulated():
    # the diagonal translations negate the four-fold product (its exponent
    # on the translated axis is 4 mod 8); the tabulated row carries +1
    # there, and the independent lattice-sum evaluation agrees with the
    # expansion, not with the table
    _criterion(5, "series", ("series.substitution_table",),
               "tabulated entries not reproduced: {substitution_table[mismatches]}")


def test_criterion_06_numeric_laws():
    # seed 500 samples the matrices at seeds 600/700/800
    _criterion(6, "numeric", ("numeric.modulus_law", "numeric.weight2_character",
                              "numeric.weight3_trivial_character",
                              "numeric.lower_triangular_sign",
                              "numeric.diagonal_vanishing", "numeric.dual_engine"),
               "{modulus_law[samples]} samples each, worst modulus deviation "
               "{modulus_law[worst_deviation]}, dual engine "
               "{dual_engine[worst_deviation]}", seed=500)


def test_criterion_07_variety():
    _criterion(7, "variety", ("variety.coordinate_change", "variety.symmetry_closure",
                              "variety.omega_generator_signs",
                              "variety.singular_curves"),
               "membership, order {symmetry_closure[order]}, pullback signs "
               "{omega_generator_signs}, curve orbits {singular_curves[orbit_sizes]}")


def test_criterion_08_symbolic_jacobians():
    # the bordered determinant with the function row on top equals minus
    # the fourth power times the affine Jacobian; the stated identity
    # asserts plus and fails
    _criterion(8, "variety", ("variety.rational_jacobian", "variety.bordered_jacobian"),
               "bordered identity sign {bordered_jacobian[measured_sign]:+d}")


def test_criterion_09_blowup_charts():
    _criterion(9, "variety", ("variety.blowup_line_blowup", "variety.blowup_axis_blowup"),
               "both charts, both group actions, inverted identity refuted")


def test_criterion_10_falsification_controls():
    _criterion(10, "relations", ("relations.falsification_controls",),
               "8 planted mutations, undetected: "
               "{falsification_controls[undetected]}", truncation=16)
