"""Check battery behind the command-line runner.

Every check produces a record with an identifier, a human-readable
reference label, a status, and a structured data payload.  Status "pass"
and "fail" are reserved for checks with a definite expected outcome;
"report" marks measured quantities that are surfaced for inspection
without affecting the exit code.  Reports are deterministic for fixed
parameters, and the JSON form is byte-stable.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field

from . import characteristics as chars_mod
from . import modforms, numeric, qseries, variety
from .characteristics import Char, even_characteristics, odd_characteristics
from .symplectic import SpMat, Subgroup, theta_character


@dataclass
class CheckRecord:
    id: str
    paper_ref: str
    status: str  # pass | fail | report
    data: dict

    def as_dict(self) -> dict:
        return {"id": self.id, "paper_ref": self.paper_ref,
                "status": self.status, "data": self.data}


@dataclass
class SuiteReport:
    truncation: int
    seed: int
    tol: float
    checks: list[CheckRecord] = field(default_factory=list)
    #: form registries by truncation, shared by the batteries of one run
    registries: dict[int, modforms.FormRegistry] = field(
        default_factory=dict, repr=False, compare=False)

    def registry(self, truncation: int) -> modforms.FormRegistry:
        if truncation not in self.registries:
            self.registries[truncation] = modforms.FormRegistry(truncation)
        return self.registries[truncation]

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
            "checks": [c.as_dict() for c in self.checks],
            "summary": self.summary,
        }


def _record(report: SuiteReport, check_id: str, ref: str, ok: bool | None,
            data: dict) -> None:
    status = "report" if ok is None else ("pass" if ok else "fail")
    report.checks.append(CheckRecord(check_id, ref, status, data))


def _guarded(report: SuiteReport, check_id: str, ref: str, fn) -> None:
    try:
        fn()
    except Exception as exc:  # a crash is a failed check, not a dead suite
        _record(report, check_id, ref, False,
                {"error": f"{type(exc).__name__}: {exc}"})


# -- characteristic combinatorics ---------------------------------------------

def run_chars(report: SuiteReport) -> None:
    evens = even_characteristics()
    _record(report, "chars.even_count", "ten even characteristics",
            len(evens) == 10 and len(odd_characteristics()) == 6,
            {"even": len(evens), "odd": len(odd_characteristics())})

    quads = chars_mod.syzygetic_quadruples()
    _record(report, "chars.syzygetic_count", "fifteen syzygetic quadruples",
            len(quads) == 15, {"count": len(quads)})

    sextuples = {chars_mod.complement_sextuple(q) for q in quads}
    _record(report, "chars.complement_sextuples",
            "complementary sextuples are distinct",
            len(sextuples) == 15, {"count": len(sextuples)})

    order = len(chars_mod.sp4f2_elements())
    _record(report, "chars.group_order", "symplectic group order mod two",
            order == 720, {"order": order})

    orbit = chars_mod.quadruple_orbit(chars_mod.STANDARD_QUADRUPLE)
    _record(report, "chars.orbit_transitive",
            "orbit of the standard quadruple covers all fifteen",
            orbit == set(quads), {"orbit_size": len(orbit)})

    stab = chars_mod.quadruple_stabilizer_order(chars_mod.STANDARD_QUADRUPLE)
    _record(report, "chars.stabilizer", "stabilizer order of the standard quadruple",
            stab == 48, {"order": stab})

    rng = random.Random(report.seed)
    elements = chars_mod.sp4f2_elements()
    all_chars = chars_mod.all_characteristics()
    parity_ok = all(
        chars_mod.parity(chars_mod.sp4f2_act(rng.choice(elements), m))
        == chars_mod.parity(m)
        for m in all_chars for _ in range(4)
    )
    _record(report, "chars.parity_preserved", "the affine action preserves parity",
            parity_ok, {"samples": len(all_chars) * 4})


# -- series-level checks --------------------------------------------------------

def run_series(report: SuiteReport) -> None:
    n = report.truncation
    orders_ok = True
    table = {}
    for m in even_characteristics():
        s = qseries.theta_qexp(m, n)
        got = (qseries.vanishing_order(s, 0), qseries.vanishing_order(s, 1),
               qseries.vanishing_order(s, 2))
        want = (m.a1, m.a1 + m.a2 - 2 * m.a1 * m.a2, m.a2)
        table[f"{m.a1}{m.a2}{m.b1}{m.b2}"] = list(got)
        if got != want:
            orders_ok = False
    _record(report, "series.vanishing_orders",
            "order table a1, a2, a1+a2-2a1a2 along the three divisors",
            orders_ok, {"orders_by_char": table})

    odd_ok = all(qseries.theta_qexp(m, n).is_zero() for m in odd_characteristics())
    _record(report, "series.odd_vanish", "odd characteristics give the zero series",
            odd_ok, {})

    koecher_ok = all(qseries.koecher_check(qseries.theta_qexp(m, n))
                     for m in even_characteristics())
    _record(report, "series.semipositive_support", "semipositive index support",
            koecher_ok, {})

    # theta_qexp sums the phases in Z[zeta] and keeps an int only where the
    # sum is real, so a surviving non-real phase fails this check
    integral_ok = all(
        isinstance(c, int)
        for m in even_characteristics()
        for c in qseries.theta_qexp(m, n).terms.values()
    )
    _record(report, "series.integral_coefficients",
            "even expansions have rational integer coefficients",
            integral_ok, {})

    reflect_ok = True
    for m in even_characteristics():
        s = qseries.theta_qexp(m, n)
        image = qseries.negate_offdiag(s)
        expected = -s if m == Char(1, 1, 1, 1) else s
        if image != expected:
            reflect_ok = False
    _record(report, "series.reflection_symmetry",
            "off-diagonal negation fixes nine and negates the all-ones one",
            reflect_ok, {})

    measured = modforms.measured_substitution_table(report.registry(32))
    mismatches = {}
    for name, row in measured.items():
        tabulated = modforms.TABULATED_SUBSTITUTION_TABLE[name]
        for i, (a, b) in enumerate(zip(row, tabulated)):
            if a != b:
                mismatches[f"{name}[F{i + 1}]"] = {"measured": list(a or ()),
                                                   "tabulated": list(b)}
    _record(report, "series.substitution_table",
            "signed permutation table of the five substitutions",
            not mismatches,
            {"measured": {k: [list(e or ()) for e in v] for k, v in measured.items()},
             "mismatches": mismatches,
             "truncation": modforms.SUBSTITUTION_COMPARE_AT})


# -- ring relations ---------------------------------------------------------------

def run_relations(report: SuiteReport) -> None:
    n = report.truncation
    registry = report.registry(n)
    for name, relation in modforms.RELATIONS.items():
        # below its first nonvacuous truncation a relation compares two
        # zero series, which proves nothing
        at = max(n, relation.nonvacuous_from)
        lhs, rhs = relation.sides(report.registry(at))
        residual = lhs - rhs
        matched = len(set(lhs.terms) | set(rhs.terms))
        _record(report, f"relations.{name}", f"ring relation {name}",
                residual.is_zero() and matched > 0,
                {"matched_coefficients": matched,
                 "residual_terms": len(residual.terms),
                 "truncation": at})

    per_char = modforms.classical_residuals(registry)
    bad = [f"{m.a1}{m.a2}{m.b1}{m.b2}" for m, r in per_char.items()
           if not r.is_zero()]
    _record(report, "relations.classical_all_sixteen",
            "square relation for each of the sixteen characteristics",
            not bad, {"failing": bad})

    control_registry = report.registry(max(n, 16))
    undetected = [name for name in modforms.relation_names()
                  if modforms.verify_identity(name, control_registry,
                                              mutated=True).is_zero()]
    _record(report, "relations.falsification_controls",
            "each planted coefficient mutation produces a nonzero residual",
            not undetected,
            {"mutations": {name: modforms.RELATIONS[name].mutation_note
                           for name in modforms.relation_names()},
             "undetected": undetected,
             "control_truncation": control_registry.truncation})


# -- boundary orders ----------------------------------------------------------------

def _sextuple_label(sextuple) -> str:
    return ".".join(f"{m.a1}{m.a2}{m.b1}{m.b2}"
                    for m in sorted(sextuple, key=chars_mod.char_index))


def run_boundary(report: SuiteReport) -> None:
    registry = report.registry(max(report.truncation, 8))
    dist = modforms.boundary_distribution(registry)
    per_sextuple = {
        _sextuple_label(s): list(modforms.boundary_orders(s, registry).as_tuple())
        for s in chars_mod.all_sextuples()
    }
    _record(report, "boundary.distribution",
            "order triples: eight zero rows, one all-ones, three mixed pairs",
            dist == modforms.EXPECTED_BOUNDARY_DISTRIBUTION,
            {"distribution": {str(k): v for k, v in sorted(dist.items())},
             "orders_by_sextuple": dict(sorted(per_sextuple.items())),
             "total": sum(dist.values())})

    binary_ok = all(set(modforms.boundary_orders(s, registry).as_tuple()) <= {0, 1}
                    for s in chars_mod.all_sextuples())
    _record(report, "boundary.orders_binary", "every multiplicity is zero or one",
            binary_ok, {})

    parity_ok = True
    checked = 0
    for s in chars_mod.all_sextuples():
        ks = modforms.boundary_orders(s, registry).as_tuple()
        for axis in range(3):
            if ks[axis] == 1:
                checked += 1
                if not modforms.q_parity_check(s, axis, registry):
                    parity_ok = False
    _record(report, "boundary.even_exponent_parity",
            "only even rescaled exponents on unit-order axes",
            parity_ok, {"axes_checked": checked})


# -- the threefold --------------------------------------------------------------------

def run_variety(report: SuiteReport) -> None:
    change = variety.coordinate_change_check()
    data = {"quadric_scalar": str(change.quadric_scalar),
            "inverse_quadric_scalar": str(change.inverse_quadric_scalar),
            "matrix_determinant": str(change.matrix_determinant)}
    if change.failed_step is not None:
        data["failed_step"] = change.failed_step
    _record(report, "variety.coordinate_change",
            "bidirectional ideal membership under the tabulated change matrix",
            change.failed_step is None, data)

    group = variety.group_closure(variety.symmetry_generators())
    pres = variety.presentation_x()
    fixing = all(variety.equation_invariance(g, pres) == (1, 1) for g in group)
    _record(report, "variety.symmetry_closure",
            "closure of the three generator families fixes both equations",
            len(group) == 48 and fixing,
            {"order": len(group), "all_signs_plus_one": fixing})

    smm = variety.SignedMonomialMap
    maps = {
        "swap_with_last_flip": smm((0, 2, 1, 3, 4, 5), (1, 1, 1, 1, 1, -1)),
        "double_flip_12": smm.sign_flip(6, 1, 2),
        "double_flip_13": smm.sign_flip(6, 1, 3),
        "double_flip_23": smm.sign_flip(6, 2, 3),
        "flip_4_and_5": smm.sign_flip(6, 4, 5),
        "flip_4_alone": smm.sign_flip(6, 4),
    }
    # every permutation of x1..x3, compensated by the x5 sign on odd ones;
    # permutation_abc sends x1, x2, x3 to xa, xb, xc
    for p in itertools.permutations((1, 2, 3)):
        perm = (0, *p, 4, 5)
        parity = smm(perm, (1,) * 6).perm_parity_on((1, 2, 3))
        maps["permutation_%d%d%d" % p] = smm(perm, (1,) * 5 + (parity,))
    signs = {key: variety.omega_pullback_sign(g) for key, g in maps.items()}
    _record(report, "variety.omega_generator_signs",
            "pullback signs of the 3-form on the generator families",
            all(sign == 1 for key, sign in signs.items() if key != "flip_4_alone"),
            signs)

    stab = variety.omega_stabilizer()
    _record(report, "variety.omega_stabilizer",
            "stabilizer of the 3-form inside the ambient signed group",
            None,
            {"ambient_order": stab.ambient_order,
             "equation_fixing_order": stab.equation_fixing_order,
             "stabilizer_order": stab.stabilizer_order,
             "x4_flip_sign": stab.x4_flip_sign,
             "x4_x5_flip_sign": stab.x4_x5_flip_sign,
             "x4_coset": stab.x4_coset_description,
             "projective_order": stab.projective_order})

    seeds = [variety.curve_to_x(variety.quadric_curve_y()),
             variety.curve_to_x(variety.line_curve_y())]
    orbits = variety.curve_orbits(stab.stabilizer, seeds)
    sizes = sorted(len(o) for o in orbits)
    all_curves = [c for o in orbits for c in o]
    curves_ok = all(variety.curve_checks(c, pres).all_ok() for c in all_curves)
    _record(report, "variety.singular_curves",
            "fifteen singular curves in two orbits of sizes three and twelve",
            sizes == [3, 12] and len(all_curves) == 15 and curves_ok,
            {"orbit_sizes": sizes, "total": len(all_curves),
             "all_checks_pass": curves_ok})

    pres_y = variety.presentation_y()
    rank = variety.jacobian_rank_at(pres_y, variety.SMOOTH_CONTROL_POINT_Y)
    on_x = variety.point_on_variety(pres_y, variety.SMOOTH_CONTROL_POINT_Y)
    _record(report, "variety.smooth_control",
            "generic rational point has Jacobian rank two",
            on_x and rank == 2, {"rank": rank})

    detected = not variety.jacobian_identity_check(scale=5)
    _record(report, "variety.rational_jacobian",
            "closed form of the rational-map Jacobian",
            variety.jacobian_identity_check() and detected,
            {"falsification_scale_5_detected": detected})

    sign = variety.bordered_jacobian_sign()
    _record(report, "variety.bordered_jacobian",
            "bordered determinant equals the fourth power times the Jacobian",
            sign == 1,
            {"measured_sign": sign,
             "note": "the function-row-on-top determinant equals minus the "
                     "fourth power times the affine Jacobian"})

    for chart in (variety.case1_chart(), variety.case3_chart()):
        result = variety.blowup_chart_check(chart)
        _record(report, f"variety.blowup_{chart.name}",
                "chart pullback and transported group action",
                result.pullback_matches and result.transformed_group_matches
                and not result.inverted_identity_holds,
                {"zero_divisors": list(result.zero_divisors),
                 "inverted_identity_holds": result.inverted_identity_holds})


# -- numeric laws ------------------------------------------------------------------------

def _rand_point(rng: random.Random, y: float = 1.2) -> numeric.SiegelPoint:
    return numeric.SiegelPoint(
        complex(rng.uniform(-0.5, 0.5), rng.uniform(y, y + 0.5)),
        complex(rng.uniform(-0.25, 0.25), rng.uniform(0.1, 0.3)),
        complex(rng.uniform(-0.5, 0.5), rng.uniform(y, y + 0.5)),
    )


def run_numeric(report: SuiteReport) -> None:
    tol = report.tol
    seed = report.seed
    rng = random.Random(seed + 1)

    evens = even_characteristics()
    mats = numeric.conditioned_samples(Subgroup.full(), 20, seed=seed + 100,
                                       word_length=5, max_entry=3, nonzero_c=10)
    worst = 0.0
    ok = True
    for m in mats:
        char = rng.choice(evens)
        good, dev = numeric.transform_modulus_check(m, char, _rand_point(rng),
                                                    tol=tol)
        worst = max(worst, dev)
        ok = ok and good
    _record(report, "numeric.modulus_law",
            "square-root automorphy law, moduli only",
            ok, {"samples": len(mats), "worst_deviation": f"{worst:.3e}"})

    base = numeric.SiegelPoint(1.3j, 0.15j, 1.4j)
    mats2 = numeric.conditioned_samples(Subgroup.hecke(2), 20, seed=seed + 200,
                                        word_length=8, max_entry=5, nonzero_c=8)
    formula_ok = True
    values = set()
    for m in mats2:
        z = numeric.pulled_back_point(m, base)
        measured = numeric.character_law_check("theta_product", m, z)
        values.add(measured)
        if measured != theta_character(m):
            formula_ok = False
    _record(report, "numeric.weight2_character",
            "measured weight-2 character equals the diagonal-sum formula",
            formula_ok and values == {1, -1},
            {"samples": len(mats2), "values_seen": sorted(values)})

    mats3 = numeric.conditioned_samples(Subgroup.chi_kernel(), 20, seed=seed + 300,
                                        word_length=8, max_entry=5, nonzero_c=8)
    trivial_ok = all(
        numeric.character_law_check("cusp_form", m, numeric.pulled_back_point(m, base)) == 1
        for m in mats3
    )
    _record(report, "numeric.weight3_trivial_character",
            "weight-3 law with trivial character on the index-two kernel",
            trivial_ok, {"samples": len(mats3)})

    low = SpMat.from_blocks(((1, 0), (0, 1)), ((0, 0), (0, 0)),
                            ((2, 2), (2, 2)), ((1, 0), (0, 1)))
    low_sign = numeric.character_law_check("theta_product", low, _rand_point(rng))
    _record(report, "numeric.lower_triangular_sign",
            "the all-twos lower translation negates the weight-2 product",
            low_sign == -1, {"measured": low_sign})

    diag_points = [(1j, 2j), (0.5 + 1j, 3j), (0.3 + 1.5j, 1.2j),
                   (2j, 1j), (-0.4 + 1.1j, 0.25 + 1.3j)]
    diag_ok = all(numeric.diagonal_vanishing_check(t1, t2, tol=1e-10)
                  for t1, t2 in diag_points)
    _record(report, "numeric.diagonal_vanishing",
            "the weight-3 product vanishes along the diagonal",
            diag_ok, {"points": len(diag_points)})

    # fixed, not N: the dropped-terms bound at this point certifies from
    # truncation 9 on
    dual_point = numeric.SiegelPoint(3j, 0j, 3j)
    dual_truncation = 12
    worst_dual = max(
        numeric.series_numeric_consistency(m, dual_point, dual_truncation)
        for m in evens
    )
    _record(report, "numeric.dual_engine",
            "lattice sums agree with the exact expansions",
            worst_dual < tol, {"worst_deviation": f"{worst_dual:.3e}",
                               "truncation": dual_truncation})


SELECTORS = {
    "chars": [run_chars],
    "series": [run_series],
    "relations": [run_relations],
    "boundary": [run_boundary],
    "variety": [run_variety],
    "numeric": [run_numeric],
}
SELECTORS["all"] = [fn for key in
                    ("chars", "series", "relations", "boundary", "variety", "numeric")
                    for fn in SELECTORS[key]]


def run_suite(selector: str, truncation: int = 12, seed: int = 0,
              tol: float = 1e-8) -> SuiteReport:
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; "
                         f"choose from {', '.join(sorted(SELECTORS))}")
    if truncation < 4:
        raise ValueError(f"truncation must be at least 4, got {truncation}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    report = SuiteReport(truncation=truncation, seed=seed, tol=tol)
    for fn in SELECTORS[selector]:
        _guarded(report, f"{fn.__name__}.crashed", fn.__name__,
                 lambda f=fn: f(report))
    report.registries.clear()  # scratch state of this run, not part of the report
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
