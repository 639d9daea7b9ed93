"""Check battery behind the command-line runner.

Every check produces a record with an identifier, a human-readable
reference label, a status, and a structured data payload.  Status "pass"
and "fail" are reserved for checks with a definite expected outcome;
"report" marks measured quantities that are surfaced for inspection
without affecting the exit code.  Reports are deterministic for fixed
parameters, and the JSON form is byte-stable.

`CHECKS` lists the checks of each battery in report order.  A check maps
the report to `(ok, data)`, with `ok = None` for a "report" record.  Each
check runs under its own guard: one that raises is recorded under its own
id as "fail" with `data["error"]`, and the checks after it still run.
Setup that several checks share (the syzygetic quadruples, the scan of the
standard quadruple, the sextuples, form registries with their theta
expansions, boundary orders, the thetas at the numeric base point, the
3-form stabilizer) goes through `SuiteReport.once`, so a setup that raises
fails exactly the checks that need it.  The memo lives as long as its
report, and each function is looked up on its module when a check runs, so
a patched function is the one read and nothing it built outlives the run.
"""

from __future__ import annotations

import functools
import json
import random
from collections import Counter
from typing import NamedTuple

from . import characteristics as chars_mod
from . import modforms, numeric, qseries, variety
from .characteristics import Char, divisor_orders, even_characteristics, odd_characteristics
from .symplectic import LOWER_TWOS, Subgroup, theta_character


class CheckRecord(NamedTuple):
    id: str
    paper_ref: str
    status: str  # pass | fail | report
    data: dict


class SuiteReport:
    def __init__(self, truncation: int, seed: int, tol: float) -> None:
        self.truncation, self.seed, self.tol = truncation, seed, tol
        self.checks: list[CheckRecord] = []
        #: values shared by the checks of one run, keyed by (function, arguments)
        self.memo: dict = {}

    def once(self, fn, *args):
        """`fn(*args)`, computed once per `run_suite` call."""
        if (fn, args) not in self.memo:
            self.memo[fn, args] = fn(*args)
        return self.memo[fn, args]

    def registry(self, truncation: int) -> modforms.FormRegistry:
        return self.once(modforms.FormRegistry, truncation)

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "report": 0}
        for c in self.checks:
            counts[c.status] += 1
        return counts

    @property
    def exit_ok(self) -> bool:
        return self.summary["fail"] == 0

    def as_dict(self) -> dict:
        return {
            "params": {"N": self.truncation, "seed": self.seed, "tol": self.tol},
            "checks": [c._asdict() for c in self.checks],
            "summary": self.summary,
        }


#: battery -> [(check id, reference label, check)], in report order
CHECKS: dict[str, list] = {battery: [] for battery in (
    "chars", "series", "relations", "boundary", "variety", "numeric")}


def _check(check_id: str, ref: str):
    """Append the decorated check to its battery in `CHECKS`."""
    def add(check):
        CHECKS[check_id.split(".")[0]].append((check_id, ref, check))
        return check
    return add


def _label(m: Char) -> str:
    return f"{m.a1}{m.a2}{m.b1}{m.b2}"


# -- characteristic combinatorics ---------------------------------------------

@_check("chars.even_count", "ten even characteristics")
def _even_count(report):
    even, odd = len(even_characteristics()), len(odd_characteristics())
    return even == 10 and odd == 6, {"even": even, "odd": odd}


@_check("chars.syzygetic_count", "fifteen syzygetic quadruples")
def _syzygetic_count(report):
    count = len(report.once(chars_mod.syzygetic_quadruples))
    return count == 15, {"count": count}


@_check("chars.complement_sextuples", "complementary sextuples are distinct")
def _complement_sextuples(report):
    count = len(set(report.once(chars_mod.all_sextuples)))
    return count == 15, {"count": count}


@_check("chars.group_order", "symplectic group order mod two")
def _group_order(report):
    order = len(chars_mod.sp4f2_elements())
    return order == 720, {"order": order}


@_check("chars.orbit_transitive", "orbit of the standard quadruple covers all fifteen")
def _orbit_transitive(report):
    orbit, _ = report.once(chars_mod.quadruple_scan, chars_mod.STANDARD_QUADRUPLE)
    quadruples = set(report.once(chars_mod.syzygetic_quadruples))
    return orbit == quadruples, {"orbit_size": len(orbit)}


@_check("chars.stabilizer", "stabilizer order of the standard quadruple")
def _stabilizer(report):
    _, order = report.once(chars_mod.quadruple_scan, chars_mod.STANDARD_QUADRUPLE)
    return order == 48, {"order": order}


@_check("chars.parity_preserved", "the affine action preserves parity")
def _parity_preserved(report):
    rng = random.Random(report.seed)
    elements = chars_mod.sp4f2_elements()
    all_chars = chars_mod.all_characteristics()
    ok = all(chars_mod.parity(chars_mod.sp4f2_act(rng.choice(elements), m))
             == chars_mod.parity(m) for m in all_chars for _ in range(4))
    return ok, {"samples": len(all_chars) * 4}


# -- series-level checks --------------------------------------------------------

@_check("series.vanishing_orders",
        "order table a1, a2, a1+a2-2a1a2 along the three divisors")
def _vanishing_orders(report):
    thetas = report.registry(report.truncation).theta
    table = {_label(m): [qseries.vanishing_order(thetas[m], axis) for axis in range(3)]
             for m in even_characteristics()}
    ok = all(table[_label(m)] == list(divisor_orders(m)) for m in even_characteristics())
    return ok, {"orders_by_char": table}


@_check("series.odd_vanish", "odd characteristics give the zero series")
def _odd_vanish(report):
    thetas = report.registry(report.truncation).theta
    return all(thetas[m].is_zero() for m in odd_characteristics()), {}


@_check("series.semipositive_support", "semipositive index support")
def _semipositive_support(report):
    thetas = report.registry(report.truncation).theta
    return all(qseries.koecher_check(thetas[m]) for m in even_characteristics()), {}


@_check("series.integral_coefficients",
        "even expansions have rational integer coefficients")
def _integral_coefficients(report):
    # theta_qexp raises on a non-real phase sum and translate_action on a
    # non-real phase, so a non-real coefficient fails this check by a refusal
    thetas = report.registry(report.truncation).theta
    return all(isinstance(c, int) for m in even_characteristics()
               for c in thetas[m].terms.values()), {}


@_check("series.reflection_symmetry",
        "off-diagonal negation fixes nine and negates the all-ones one")
def _reflection_symmetry(report):
    thetas = report.registry(report.truncation).theta
    return all(qseries.negate_offdiag(thetas[m])
               == (-thetas[m] if m == Char(1, 1, 1, 1) else thetas[m])
               for m in even_characteristics()), {}


@_check("series.substitution_table", "signed permutation table of the five substitutions")
def _substitution_table(report):
    measured = modforms.measured_substitution_table(report.registry(32))
    mismatches = {}
    for name, row in measured.items():
        tabulated = modforms.TABULATED_SUBSTITUTION_TABLE[name]
        for i, (a, b) in enumerate(zip(row, tabulated)):
            if a != b:
                mismatches[f"{name}[F{i + 1}]"] = {"measured": list(a or ()),
                                                   "tabulated": list(b)}
    return not mismatches, {
        "measured": {k: [list(e or ()) for e in v] for k, v in measured.items()},
        "mismatches": mismatches,
        "truncation": modforms.SUBSTITUTION_COMPARE_AT}


# -- ring relations ---------------------------------------------------------------

def _relation_registry(relation: modforms.Relation, report) -> modforms.FormRegistry:
    # below its first nonvacuous truncation a relation compares two
    # zero series, which proves nothing
    return report.registry(max(report.truncation, relation.nonvacuous_from))


def _relation(relation: modforms.Relation, report):
    registry = _relation_registry(relation, report)
    lhs, rhs = relation.sides(registry)
    residual = lhs - rhs
    matched = len(set(lhs.terms) | set(rhs.terms))
    return residual.is_zero() and matched > 0, {
        "matched_coefficients": matched, "residual_terms": len(residual.terms),
        "truncation": registry.truncation}


CHECKS["relations"] += [(f"relations.{name}", f"ring relation {name}",
                         functools.partial(_relation, relation))
                        for name, relation in modforms.RELATIONS.items()]


@_check("relations.classical_all_sixteen",
        "square relation for each of the sixteen characteristics")
def _classical_all_sixteen(report):
    per_char = modforms.classical_residuals(report.registry(report.truncation))
    bad = [_label(m) for m, r in per_char.items() if not r.is_zero()]
    return not bad, {"failing": bad}


@_check("relations.falsification_controls",
        "each planted coefficient mutation produces a nonzero residual")
def _falsification_controls(report):
    # each control reads the registry, and so the products, of its relation's record
    undetected = [name for name, relation in modforms.RELATIONS.items()
                  if modforms.verify_identity(name, _relation_registry(relation, report),
                                              mutated=True).is_zero()]
    return not undetected, {
        "mutations": {name: modforms.RELATIONS[name].mutation_note
                      for name in modforms.RELATIONS},
        "undetected": undetected}


# -- boundary orders ----------------------------------------------------------------

def _boundary_registry(report) -> modforms.FormRegistry:
    return report.registry(max(report.truncation, 8))


def _boundary_orders(report) -> dict:
    """Order triple of every sextuple, each computed once per run."""
    registry = _boundary_registry(report)
    return {s: report.once(modforms.boundary_orders, s, registry)
            for s in report.once(chars_mod.all_sextuples)}


def _sextuple_label(sextuple) -> str:
    return ".".join(_label(m) for m in sorted(sextuple))


@_check("boundary.distribution",
        "order triples: eight zero rows, one all-ones, three mixed pairs")
def _distribution(report):
    orders = _boundary_orders(report)
    dist = Counter(orders.values())
    return dist == modforms.EXPECTED_BOUNDARY_DISTRIBUTION, {
        "distribution": {str(k): v for k, v in sorted(dist.items())},
        "orders_by_sextuple": dict(sorted((_sextuple_label(s), list(ks))
                                          for s, ks in orders.items())),
        "total": sum(dist.values())}


@_check("boundary.orders_binary", "every multiplicity is zero or one")
def _orders_binary(report):
    return all(set(ks) <= {0, 1} for ks in _boundary_orders(report).values()), {}


@_check("boundary.even_exponent_parity", "only even rescaled exponents on unit-order axes")
def _even_exponent_parity(report):
    unit_axes = [(s, axis) for s, ks in _boundary_orders(report).items()
                 for axis in range(3) if ks[axis] == 1]
    registry = _boundary_registry(report)
    ok = all(modforms.q_parity_check(s, axis, registry) for s, axis in unit_axes)
    return ok, {"axes_checked": len(unit_axes)}


# -- the threefold --------------------------------------------------------------------

@_check("variety.coordinate_change",
        "bidirectional ideal membership under the tabulated change matrix")
def _coordinate_change(report):
    change = variety.coordinate_change_check()
    scalars = {"quadric_scalar": change.quadric_scalar,
               "inverse_quadric_scalar": change.inverse_quadric_scalar}
    data = {key: None if c is None else str(c) for key, c in scalars.items()}
    data["matrix_determinant"] = str(change.matrix_determinant)
    if change.failed_step is not None:
        data["failed_step"] = change.failed_step
    return change.failed_step is None, data


@_check("variety.symmetry_closure",
        "closure of the three generator families fixes both equations")
def _symmetry_closure(report):
    group = variety.group_closure(variety.symmetry_generators())
    pres = variety.presentation_x()
    fixing = all(variety.equation_invariance(g, pres) == (1, 1) for g in group)
    return len(group) == 48 and fixing, {"order": len(group),
                                         "all_signs_plus_one": fixing}


@_check("variety.omega_generator_signs", "pullback signs of the 3-form on the generator families")
def _omega_generator_signs(report):
    signs = {key: variety.omega_pullback_sign(g) for key, g in variety.SYMMETRIES.items()}
    return all(sign == 1 for key, sign in signs.items() if key != "flip_4_alone"), signs


@_check("variety.omega_stabilizer", "stabilizer of the 3-form inside the ambient signed group")
def _omega_stabilizer(report):
    data = report.once(variety.omega_stabilizer)._asdict()
    del data["stabilizer"]
    return None, data


@_check("variety.singular_curves",
        "fifteen singular curves in two orbits of sizes three and twelve")
def _singular_curves(report):
    seeds = [variety.curve_to_x(variety.quadric_curve_y()),
             variety.curve_to_x(variety.line_curve_y())]
    orbits = variety.curve_orbits(report.once(variety.omega_stabilizer).stabilizer, seeds)
    sizes = sorted(len(o) for o in orbits)
    all_curves = [c for o in orbits for c in o]
    pres = variety.presentation_x()
    curves_ok = all(variety.curve_checks(c, pres).all_ok() for c in all_curves)
    return sizes == [3, 12] and len(all_curves) == 15 and curves_ok, {
        "orbit_sizes": sizes, "total": len(all_curves), "all_checks_pass": curves_ok}


@_check("variety.smooth_control", "generic rational point has Jacobian rank two")
def _smooth_control(report):
    pres_y = variety.presentation_y()
    rank = variety.jacobian_rank_at(pres_y, variety.SMOOTH_CONTROL_POINT_Y)
    on_x = variety.point_on_variety(pres_y, variety.SMOOTH_CONTROL_POINT_Y)
    return on_x and rank == 2, {"rank": rank}


@_check("variety.rational_jacobian", "closed form of the rational-map Jacobian")
def _rational_jacobian(report):
    detected = not variety.jacobian_identity_check(scale=5)
    return variety.jacobian_identity_check() and detected, {
        "falsification_scale_5_detected": detected}


@_check("variety.bordered_jacobian",
        "bordered determinant equals the fourth power times the Jacobian")
def _bordered_jacobian(report):
    sign = variety.bordered_jacobian_sign()
    return sign == 1, {"measured_sign": sign,
                       "note": "the function-row-on-top determinant equals minus the "
                               "fourth power times the affine Jacobian"}


def _blowup(chart: variety.BlowupChart, report):
    result = variety.blowup_chart_check(chart)
    return (result.pullback_matches and result.transformed_group_matches
            and not result.inverted_identity_holds), {
        "zero_divisors": list(chart.expected_zero_divisors),
        "inverted_identity_holds": result.inverted_identity_holds}


CHECKS["variety"] += [(f"variety.blowup_{chart.name}",
                       "chart pullback and transported group action",
                       functools.partial(_blowup, chart))
                      for chart in (variety.case1_chart(), variety.case3_chart())]


# -- numeric laws ------------------------------------------------------------------------

def _rand_point(rng: random.Random) -> numeric.SiegelPoint:
    return numeric.SiegelPoint(
        complex(rng.uniform(-0.5, 0.5), rng.uniform(1.2, 1.7)),
        complex(rng.uniform(-0.25, 0.25), rng.uniform(0.1, 0.3)),
        complex(rng.uniform(-0.5, 0.5), rng.uniform(1.2, 1.7)),
    )


_BASE = numeric.SiegelPoint(1.3j, 0.15j, 1.4j)


def _at_base(report) -> dict:
    """The ten even thetas at `_BASE`, one batch per run for the three laws."""
    evens = tuple(even_characteristics())
    return dict(zip(evens, report.once(numeric.theta_eval_batch, evens, _BASE, 1e-13)))


@_check("numeric.modulus_law", "square-root automorphy law, moduli only")
def _modulus_law(report):
    rng = random.Random(report.seed + 1)
    mats = numeric.conditioned_samples(Subgroup.full(), 20, seed=report.seed + 100,
                                       word_length=5, max_entry=3, nonzero_c=10)
    chars = [rng.choice(even_characteristics()) for _ in mats]
    results = numeric.modulus_law(mats, chars, _BASE, _at_base(report), tol=report.tol)
    worst = max((dev for _, dev in results), default=0.0)
    return all(good for good, _ in results), {"samples": len(mats),
                                              "worst_deviation": f"{worst:.3e}"}


@_check("numeric.weight2_character",
        "measured weight-2 character equals the diagonal-sum formula")
def _weight2_character(report):
    mats = numeric.conditioned_samples(Subgroup.hecke(), 20, seed=report.seed + 200,
                                       word_length=8, max_entry=5, nonzero_c=8)
    measured = numeric.law_signs("theta_product", mats, _BASE, _at_base(report))
    formula_ok = all(v == theta_character(m) for v, m in zip(measured, mats))
    return formula_ok and set(measured) == {1, -1}, {
        "samples": len(mats), "values_seen": sorted(set(measured))}


@_check("numeric.weight3_trivial_character",
        "weight-3 law with trivial character on the index-two kernel")
def _weight3_trivial_character(report):
    mats = numeric.conditioned_samples(Subgroup.chi_kernel(), 20, seed=report.seed + 300,
                                       word_length=8, max_entry=5, nonzero_c=8)
    ok = all(v == 1 for v in numeric.law_signs("cusp_form", mats, _BASE, _at_base(report)))
    return ok, {"samples": len(mats)}


@_check("numeric.lower_triangular_sign",
        "the all-twos lower translation negates the weight-2 product")
def _lower_triangular_sign(report):
    point = _rand_point(random.Random(report.seed + 400))
    [sign] = numeric.law_signs("theta_product", [LOWER_TWOS], point)
    return sign == -1, {"measured": sign}


@_check("numeric.diagonal_vanishing", "the weight-3 product vanishes along the diagonal")
def _diagonal_vanishing(report):
    points = [(1j, 2j), (0.5 + 1j, 3j), (0.3 + 1.5j, 1.2j),
              (2j, 1j), (-0.4 + 1.1j, 0.25 + 1.3j)]
    ok = all(numeric.diagonal_vanishing_check(t1, t2) for t1, t2 in points)
    # off the diagonal the product must be measured, or a kernel that returns
    # zeros would pass
    control = numeric.theta_product_eval(numeric.LAWS["cusp_form"][0],
                                         numeric.SiegelPoint(1j, 0.05j, 2j))
    return ok and numeric.clear_of_bound(control), {"points": len(points)}


@_check("numeric.dual_engine", "lattice sums agree with the exact expansions")
def _dual_engine(report):
    # fixed, not N: the dropped-terms bound at this point certifies from
    # truncation 9 on
    point = numeric.SiegelPoint(3j, 0j, 3j)
    registry = report.registry(12)
    worst = max(numeric.series_numeric_consistency(
        {m: registry.theta[m] for m in even_characteristics()}, point))
    return worst < report.tol, {"worst_deviation": f"{worst:.3e}",
                                "truncation": registry.truncation}


def _runner(battery: str):
    """The battery's checks in order, each guarded on its own."""
    def run(report: SuiteReport) -> None:
        for check_id, ref, check in CHECKS[battery]:
            try:
                ok, data = check(report)
            except Exception as exc:  # a crash fails its check, not the battery
                ok, data = False, {"error": f"{type(exc).__name__}: {exc}"}
            status = "report" if ok is None else ("pass" if ok else "fail")
            report.checks.append(CheckRecord(check_id, ref, status, data))
    run.__name__ = run.__qualname__ = f"run_{battery}"
    return run


SELECTORS = {battery: [_runner(battery)] for battery in CHECKS}
SELECTORS["all"] = [fn for fns in SELECTORS.values() for fn in fns]


def run_suite(selector: str, truncation: int = 12, seed: int = 0,
              tol: float = 1e-8) -> SuiteReport:
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; "
                         f"choose from {', '.join(sorted(SELECTORS))}")
    if truncation < 4:
        raise ValueError(f"truncation must be at least 4, got {truncation}")
    if not 0 < tol < 1:  # a relative deviation never exceeds 1; nan fails too
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    report = SuiteReport(truncation=truncation, seed=seed, tol=tol)
    for run in SELECTORS[selector]:
        run(report)
    report.memo.clear()  # scratch state of this run, not part of the report
    return report


def emit_report(report: SuiteReport, fmt: str = "text",
                path: str | None = None) -> str:
    if fmt == "json":
        text = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    elif fmt == "text":
        lines = [
            f"params: N={report.truncation} seed={report.seed} tol={report.tol}",
        ]
        for c in report.checks:
            error = f"  {c.data['error']}" if "error" in c.data else ""
            lines.append(f"[{c.status.upper():6s}] {c.id:40s} {c.paper_ref}{error}")
        s = report.summary
        lines.append(f"summary: {s['pass']} pass, {s['fail']} fail, "
                     f"{s['report']} report")
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
