"""Workload definitions for the siegelcy benchmark.

A workload is a list of invocations.  Each invocation is one fresh child
process that imports `siegelcy.cli` and calls `siegelcy.cli.main` once per
argument list, in order, exactly as that many `siegelcy ...` commands would
(except that several batteries may share one process, as stated per
workload).  Every suite seed is derived from the benchmark seed (see
`suite_seed`).

Later issues cite workloads and metrics by the names used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: spans that must record work on this workload (see tracing.SPANS)
    exercises: tuple[str, ...]
    #: benchmark seed -> one list of CLI argument lists per child process
    invocations: Callable[[int], list[list[list[str]]]]


def suite_seed(seed: int) -> int:
    """The suite seed of all_default (and the seed recorded by
    relations_deep) for a benchmark seed.

    Sampling work depends on the neighbourhood of the suite seed, not on the
    seed itself, because `numeric.conditioned_samples` walks `seed + offset`:
    the numeric battery makes 397k-400k word products for every seed in
    0-9, but 196k at 500 and 382k at 600.  Keeping every suite seed in one
    window of ten makes runs at any two benchmark seeds do the same work.
    """
    return seed % 10


def numeric_sweep_seeds(seed: int) -> tuple[int, int]:
    """Two suite seeds in the window 1000-1019 (182k-195k word products
    each), unlike all_default's and unlike those of the other nine
    benchmark seeds of the window."""
    k = suite_seed(seed)
    return 1000 + 2 * k, 1001 + 2 * k


def _all_default(seed: int) -> list[list[list[str]]]:
    return [[["all", "--truncation", "12", "--seed", str(suite_seed(seed))]]]


def _relations_deep(seed: int) -> list[list[list[str]]]:
    return [[[battery, "--truncation", "48", "--seed", str(suite_seed(seed))]
             for battery in ("relations", "series", "boundary")]]


def _numeric_sweep(seed: int) -> list[list[list[str]]]:
    return [[["numeric", "--truncation", "12", "--seed", str(s)]]
            for s in numeric_sweep_seeds(seed)]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # all_default: `siegelcy all` at N=12, suite seed = suite_seed(seed).
    # Why: the ROADMAP's end-to-end number.  Nearly all of it is mpoly exact
    # elimination (variety) plus symplectic rejection sampling (numeric);
    # qseries does little work here, but uses many small sparse series and
    # their translate / unimodular / reflection actions, so a dense series
    # representation that speeds up large products but slows these shows.
    # Should move with: suite, cli, mpoly, variety, symplectic, numeric,
    # characteristics.  When the quartic check is raised to N>=32 the
    # relations time here rises on purpose; the workload stays as it is.
    Workload(
        name="all_default",
        why="siegelcy all at N=12: the end-to-end verdict, dominated by "
            "mpoly elimination (variety) and symplectic sampling (numeric)",
        exercises=("suite.chars", "suite.series", "suite.relations",
                   "suite.boundary", "suite.variety", "suite.numeric",
                   "cli.emit_json", "modforms.registry",
                   "modforms.verify_identity", "qseries.mul",
                   "qseries.theta_qexp", "mpoly.graded_membership",
                   "mpoly.solve_exact", "mpoly.threeform_pullback",
                   "variety.curve_checks", "variety.omega_stabilizer",
                   "variety.coordinate_change", "symplectic.sample_element",
                   "numeric.conditioned_samples", "numeric.theta_eval_batch",
                   "numeric.siegel_transform",
                   "characteristics.sp4f2_elements"),
        invocations=_all_default,
    ),
    # relations_deep: relations, series and boundary at N=48 in one process.
    # Why: N=48 is above 32, the smallest truncation at which the
    # doubled-argument quartic is not vacuously true, so the relations
    # compare real coefficients and deep q-series products dominate.
    # Should move with: qseries (mul, theta_qexp), modforms (registry,
    # verify_identity), and run_s / peak_rss_mb.  mpoly, symplectic and
    # numeric do no work here: their optimisations must leave it flat.
    Workload(
        name="relations_deep",
        why="relations, series and boundary at N=48 in one process: deep "
            "q-series products; no mpoly, symplectic or numeric work",
        exercises=("suite.relations", "suite.series", "suite.boundary",
                   "cli.emit_json", "modforms.registry",
                   "modforms.verify_identity", "qseries.mul",
                   "qseries.theta_qexp"),
        invocations=_relations_deep,
    ),
    # numeric_sweep: the numeric battery at two suite seeds derived from the
    # benchmark seed, one process each, both unlike all_default's seed.
    # Why: symplectic sampling and numeric mpmath lattice sums do almost all
    # the work, with no mpoly and almost no qseries.  Rejection rates depend
    # on the seed, so a sampler change tuned to one seed is caught here.
    # Should move with: symplectic, numeric.
    Workload(
        name="numeric_sweep",
        why="numeric battery at two derived seeds: symplectic rejection "
            "sampling and mpmath lattice sums; no mpoly work",
        exercises=("suite.numeric", "cli.emit_json",
                   "symplectic.sample_element", "numeric.conditioned_samples",
                   "numeric.theta_eval_batch", "numeric.siegel_transform"),
        invocations=_numeric_sweep,
    ),
)}
