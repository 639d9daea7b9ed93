from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from siegelcy import modforms
from siegelcy.cli import main
from siegelcy.suite import CHECKS, emit_report, run_suite


def test_unknown_selector_raises():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_empty_report_has_zero_summary():
    from siegelcy.suite import SuiteReport

    empty = SuiteReport(truncation=12, seed=0, tol=1e-8)
    assert empty.summary == {"pass": 0, "fail": 0, "report": 0}
    assert empty.exit_ok


def test_chars_selector_all_pass():
    report = run_suite("chars")
    assert report.exit_ok
    assert report.summary["fail"] == 0
    assert all(c.status == "pass" for c in report.checks)


def test_boundary_selector_records():
    report = run_suite("boundary", truncation=8)
    by_id = {c.id: c for c in report.checks}
    dist = by_id["boundary.distribution"]
    assert dist.status == "pass"
    assert dist.data["total"] == 15
    assert dist.data["distribution"]["(0, 0, 0)"] == 8
    per_sextuple = dist.data["orders_by_sextuple"]
    assert len(per_sextuple) == 15
    assert per_sextuple["0100.0110.1000.1001.1100.1111"] == [1, 1, 1]


def test_relations_selector_passes_and_controls_detect():
    report = run_suite("relations", truncation=12)
    by_id = {c.id: c for c in report.checks}
    assert by_id["relations.falsification_controls"].status == "pass"
    assert by_id["relations.falsification_controls"].data["undetected"] == []
    assert len(by_id["relations.falsification_controls"].data["mutations"]) == 8
    for c in report.checks:
        assert c.status == "pass", c.id


def test_relations_are_nonvacuous_at_default_truncation():
    report = run_suite("relations", truncation=12)
    relations = [c for c in report.checks if "matched_coefficients" in c.data]
    assert len(relations) == 8
    for c in relations:
        assert c.data["matched_coefficients"] > 0, c.id
    by_id = {c.id: c for c in relations}
    assert by_id["relations.second_kind_quartic"].data["truncation"] == 32
    assert by_id["relations.igusa_quartic"].data["truncation"] == 12


@pytest.mark.parametrize("truncation", [4, 12, 16, 32])
def test_each_control_is_detected_at_its_relations_truncation(truncation, monkeypatch):
    # a planted mutation reads the registry of its own relation's record,
    # max(N, nonvacuous_from), and its residual is nonzero there
    controls = []
    verify = modforms.verify_identity

    def recorded(name, registry, mutated=False):
        residual = verify(name, registry, mutated)
        if mutated:
            controls.append((name, registry.truncation, residual.is_zero()))
        return residual

    monkeypatch.setattr(modforms, "verify_identity", recorded)
    by_id = {c.id: c for c in run_suite("relations", truncation=truncation).checks}
    expected = [(name, max(truncation, relation.nonvacuous_from), False)
                for name, relation in modforms.RELATIONS.items()]
    assert controls == expected
    assert [(name, by_id[f"relations.{name}"].data["truncation"], False)
            for name in modforms.RELATIONS] == expected
    assert by_id["relations.falsification_controls"].status == "pass"


def test_series_selector_flags_table_mismatch():
    report = run_suite("series", truncation=12)
    by_id = {c.id: c for c in report.checks}
    table = by_id["series.substitution_table"]
    assert table.status == "fail"
    mismatches = table.data["mismatches"]
    assert set(mismatches) == {"translate_z0[F5]", "translate_z2[F5]"}
    for v in mismatches.values():
        assert v["measured"] == [-1, 5] and v["tabulated"] == [1, 5]
    others = [c for c in report.checks if c.id != "series.substitution_table"]
    assert all(c.status == "pass" for c in others)


def test_substitution_table_does_not_depend_on_truncation():
    tables = [next(c for c in run_suite("series", truncation=n).checks
                   if c.id == "series.substitution_table") for n in (6, 12)]
    assert tables[0] == tables[1]
    assert tables[0].data["truncation"] == 12
    assert set(tables[0].data["mismatches"]) == {"translate_z0[F5]",
                                                 "translate_z2[F5]"}


@pytest.mark.parametrize("truncation", [4, 8])
def test_numeric_battery_runs_below_the_dual_engine_truncation(truncation):
    report = run_suite("numeric", truncation=truncation)
    ids = [c.id for c in report.checks]
    assert len([i for i in ids if i.startswith("numeric.")]) == 6
    assert not any("error" in c.data for c in report.checks)
    dual = next(c for c in report.checks if c.id == "numeric.dual_engine")
    assert dual.data["truncation"] == 12


def test_json_report_is_byte_identical_across_runs(tmp_path):
    a = emit_report(run_suite("chars", seed=3), "json")
    b = emit_report(run_suite("chars", seed=3), "json")
    assert a == b
    payload = json.loads(a)
    assert payload["params"] == {"N": 12, "seed": 3, "tol": 1e-8}
    assert set(payload["summary"]) == {"pass", "fail", "report"}
    for check in payload["checks"]:
        assert set(check) == {"id", "paper_ref", "status", "data"}


def test_emit_report_writes_files(tmp_path):
    report = run_suite("chars")
    out = tmp_path / "report.json"
    emit_report(report, "json", path=str(out))
    loaded = json.loads(out.read_text())
    assert loaded["summary"]["fail"] == 0
    txt = emit_report(report, "text")
    assert "chars.even_count" in txt
    assert "ten even characteristics" in txt
    with pytest.raises(ValueError):
        emit_report(report, "xml")


def test_cli_exit_codes_and_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["chars", "--json", str(out)])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "summary:" in captured.out

    code = main(["series"])
    assert code == 1  # the substitution table carries two documented misprints


ROOT = Path(__file__).resolve().parents[1]

#: a child process in which every import of mpmath fails
_WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None
from siegelcy.cli import main
# start-up loads no dataclasses (which imports inspect), and neither does a run
assert not {"dataclasses", "inspect"} & sys.modules.keys()
assert main(["all", "--seed", "0", "--json", sys.argv[1]]) == 1
assert main(["numeric", "--seed", "1001", "--json", sys.argv[2]]) == 0
assert not {"dataclasses", "inspect"} & sys.modules.keys()
"""


def test_cli_runs_without_mpmath(tmp_path):
    # `all` exits 1 by design (criteria 5 and 8); numeric seed 1001 sums to
    # radius 45
    reports = [tmp_path / "all.json", tmp_path / "numeric.json"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", _WITHOUT_MPMATH, *map(str, reports)],
                   env=env, check=True, capture_output=True)
    assert reports[0].read_bytes() == (ROOT / "tests/golden/all_seed0.json").read_bytes()
    assert reports[1].read_bytes() == (ROOT / "tests/golden/numeric_1001.json").read_bytes()


#: the siegelcy modules a fresh interpreter loads with each import: an
#: engine loads only what it uses, and the package itself nothing
_LOADED = {
    "siegelcy": set(),
    "siegelcy.numeric": {"characteristics", "equations", "symplectic", "numeric"},
    "siegelcy.modforms": {"characteristics", "equations", "qseries", "modforms"},
    "siegelcy.variety": {"equations", "mpoly", "variety"},
    "siegelcy.mpoly": {"equations", "mpoly"},
    "siegelcy.cli": {"characteristics", "cli", "equations", "modforms", "mpoly",
                     "numeric", "qseries", "suite", "symplectic", "variety"},
}


@pytest.mark.parametrize("module", sorted(_LOADED))
def test_imports_load_only_what_they_use(module):
    code = (f"import sys, {module}\n"
            "print(' '.join(sorted(name.removeprefix('siegelcy.') for name in sys.modules\n"
            "                      if name.startswith('siegelcy.'))))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert set(out.split()) == _LOADED[module]


def test_cli_rejects_bad_selector(capsys):
    with pytest.raises(SystemExit):
        main(["nonsense"])


@pytest.mark.parametrize("argv", [
    ["relations", "--truncation", "2"],
    ["numeric", "--tol", "0"],
    ["numeric", "--tol", "-1"],
    ["numeric", "--tol", "inf"],
    ["numeric", "--tol", "nan"],
    ["chars", "--json", "/nonexistent/dir/r.json"],
    ["chars", "--json", "."],
    ["chars", "--json", "{dangling}"],
])
def test_cli_refuses_bad_parameters(argv, tmp_path, capsys):
    out = tmp_path / "r.json"
    # a symlink into a missing directory sits in a directory that exists
    dangling = tmp_path / "dangling.json"
    dangling.symlink_to(tmp_path / "no_such_dir" / "r.json")
    argv = [a.format(dangling=dangling) for a in argv]
    # a --json of the case itself comes later and wins
    assert main([argv[0], "--json", str(out), *argv[1:]]) == 2
    assert not out.exists()
    assert not (tmp_path / "no_such_dir").exists()
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert not captured.out  # and no text report either


def test_crash_reason_is_on_the_text_line(monkeypatch, capsys):
    from siegelcy import characteristics

    def broken(quadruple):
        raise RuntimeError("planted failure")

    # the scan is setup that two checks share: both fail, and only they
    monkeypatch.setattr(characteristics, "quadruple_scan", broken)
    report = run_suite("chars")
    by_id = {c.id: c for c in report.checks}
    assert len(by_id) == 7
    scanning = {"chars.orbit_transitive", "chars.stabilizer"}
    for check_id in scanning:
        assert by_id[check_id].status == "fail"
        assert by_id[check_id].data == {"error": "RuntimeError: planted failure"}
    assert all(c.status == "pass" for c in report.checks if c.id not in scanning)
    assert main(["chars"]) == 1
    line = next(line for line in capsys.readouterr().out.splitlines()
                if "chars.stabilizer" in line)
    assert line.startswith("[FAIL  ] chars.stabilizer")
    assert line.endswith("RuntimeError: planted failure")


def test_one_run_scans_once_and_lists_the_sextuples_once(monkeypatch):
    from siegelcy import characteristics

    calls = []
    for name in ("quadruple_scan", "all_sextuples"):
        def counted(*args, genuine=getattr(characteristics, name), name=name):
            calls.append(name)
            return genuine(*args)
        monkeypatch.setattr(characteristics, name, counted)
    run_suite("all")
    assert sorted(calls) == ["all_sextuples", "quadruple_scan"]


def test_a_crashing_check_hides_no_other_check(monkeypatch):
    from siegelcy import variety

    def broken():
        raise RuntimeError("planted failure")

    monkeypatch.setattr(variety, "omega_stabilizer", broken)
    checks = run_suite("variety").checks
    assert [c.id for c in checks] == [f"variety.{name}" for name in (
        "coordinate_change", "symmetry_closure", "omega_generator_signs",
        "omega_stabilizer", "singular_curves", "smooth_control", "rational_jacobian",
        "bordered_jacobian", "blowup_line_blowup", "blowup_axis_blowup")]
    for c in checks:
        if c.id in ("variety.omega_stabilizer", "variety.singular_curves"):
            assert c.status == "fail"
            assert c.data == {"error": "RuntimeError: planted failure"}
        else:
            usual = "fail" if c.id == "variety.bordered_jacobian" else "pass"
            assert c.status == usual, c.id
            assert "error" not in c.data, c.id


def test_rational_jacobian_records_the_measured_falsification(monkeypatch):
    from siegelcy import variety

    monkeypatch.setattr(variety, "jacobian_identity_check", lambda scale=4: True)
    record = next(c for c in run_suite("variety").checks
                  if c.id == "variety.rational_jacobian")
    assert record.status == "fail"
    assert record.data == {"falsification_scale_5_detected": False}


def test_failed_coordinate_change_is_a_fail_record(monkeypatch):
    from siegelcy import variety

    rows = [list(row) for row in variety.COORD_MATRIX]
    rows[0][3] = 3
    monkeypatch.setattr(variety, "COORD_MATRIX", tuple(map(tuple, rows)))
    assert variety.coord_matrix_det() != 0  # still invertible
    checks = run_suite("variety").checks
    record = next(c for c in checks if c.id == "variety.coordinate_change")
    assert record.status == "fail"
    assert record.data["failed_step"] == "quadric_scalar_multiple"
    assert record.data["quadric_scalar"] is None
    assert not any("error" in c.data for c in checks)


def test_a_cached_inverse_does_not_hide_a_patched_matrix(monkeypatch):
    # the inverse of the change matrix is kept per matrix: a genuine run
    # first, then the patch of test_failed_coordinate_change_is_a_fail_record
    # must still reach the inverse direction
    from siegelcy import variety

    genuine = next(c for c in run_suite("variety").checks
                   if c.id == "variety.coordinate_change")
    assert genuine.status == "pass"
    assert genuine.data["inverse_quadric_scalar"] is not None
    rows = [list(row) for row in variety.COORD_MATRIX]
    rows[0][3] = 3
    monkeypatch.setattr(variety, "COORD_MATRIX", tuple(map(tuple, rows)))
    record = next(c for c in run_suite("variety").checks
                  if c.id == "variety.coordinate_change")
    assert record.status == "fail"
    assert record.data["inverse_quadric_scalar"] is None


@pytest.mark.parametrize("method, changed, relation", [
    ("y_quadric", 1, "relations.y_quadric"),
    # x4^2 = F5^2 starts at weight 16, where f6_quadric lifts its comparison
    ("x_quadric", 31, "relations.f6_quadric"),
])
def test_one_changed_equation_fails_both_of_its_checks(method, changed, relation,
                                                       monkeypatch):
    # the presentations and the relation sides are one code: one changed
    # coefficient reaches the ideal check and the series check alike
    from siegelcy import equations

    genuine = getattr(equations.Equations, method)
    monkeypatch.setattr(equations.Equations, method,
                        lambda self, c=changed: genuine(self, c))
    status = {c.id: c.status for c in run_suite("all").checks}
    assert status["variety.coordinate_change"] == "fail"
    assert status[relation] == "fail"
    assert status["relations.falsification_controls"] == "pass"


def test_changed_x_quartic_fails_the_quartic_membership(monkeypatch):
    from siegelcy import variety

    presentation_x = variety.presentation_x

    def changed():
        pres = presentation_x()
        x4 = variety.MPoly.var(variety.X_VARS, "x4")
        return variety.Presentation(pres.variables, pres.quartic + x4 ** 4, pres.quadric)

    monkeypatch.setattr(variety, "presentation_x", changed)
    record = next(c for c in run_suite("variety").checks
                  if c.id == "variety.coordinate_change")
    assert record.status == "fail"
    assert record.data["failed_step"] == "quartic_membership"
    assert record.data["quadric_scalar"] == "2"


def test_solver_fault_is_a_fail_record_not_a_non_member(monkeypatch):
    from siegelcy import mpoly

    solve_exact = mpoly.solve_exact

    def perturbed(columns, target):
        solution = solve_exact(columns, target)
        if solution is not None:
            solution[0] += 1
        return solution

    monkeypatch.setattr(mpoly, "solve_exact", perturbed)
    record = next(c for c in run_suite("variety").checks
                  if c.id == "variety.coordinate_change")
    assert record.status == "fail"
    assert record.data["error"].startswith("ArithmeticError")


def test_integral_coefficients_fails_on_a_non_real_phase(monkeypatch):
    from siegelcy import qseries

    theta_qexp = qseries.theta_qexp

    def translated_theta(m, truncation):
        # Z -> Z + diag(1, 0) gives the a1 = 1 thetas odd powers of zeta,
        # which translate_action refuses rather than store
        return qseries.translate_action(theta_qexp(m, truncation), ((1, 0), (0, 0)))

    monkeypatch.setattr(qseries, "theta_qexp", translated_theta)
    record = next(c for c in run_suite("series").checks
                  if c.id == "series.integral_coefficients")
    assert record.status == "fail"
    assert record.data["error"].startswith("ValueError")


def test_batteries_in_threads_write_the_serial_reports():
    # the README's concurrency claim: the six batteries, run at once in six
    # threads that switch every microsecond, write the reports of a serial run
    def report(battery):
        return run_suite(battery, truncation=32, seed=3).as_dict()

    rounds = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            with ThreadPoolExecutor(max_workers=len(CHECKS)) as pool:
                rounds.append(list(pool.map(report, CHECKS, timeout=60)))
    finally:
        sys.setswitchinterval(interval)
    # the serial run comes last, so that the threads also fill the caches
    # the batteries share when the test runs on its own
    serial = [report(battery) for battery in CHECKS]
    assert all(reports == serial for reports in rounds)
