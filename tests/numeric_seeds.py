"""Numeric statuses at the seeds the benchmark runs.

The Gamma2,0[2] and Gamma_n samples are corrected words, so every seed the
benchmark runs must still see both signs of the weight-2 character and pass
every other numeric law.  The report at each seed must also be the one the
whole-box lattice walk of `box_reference` gives in place of the kernel.
Prints one line and exits 1 if a seed has a record that does not pass or a
report that differs.  Needs mpmath.  Run from the root of the repository:

    PYTHONPATH=src:tests python tests/numeric_seeds.py
"""

from __future__ import annotations

from unittest import mock

import box_reference
from siegelcy import numeric
from siegelcy.suite import run_suite

SEEDS = [*range(40), 500, *range(1000, 1020)]


def main() -> int:
    bad, differ = [], []
    for s in SEEDS:
        report = run_suite("numeric", seed=s)
        bad += [(s, c.id, c.status) for c in report.checks if c.status != "pass"]
        with mock.patch.object(numeric, "theta_eval_batch", box_reference.theta_eval_batch):
            if run_suite("numeric", seed=s).as_dict() != report.as_dict():
                differ.append(s)
    print(f"{len(SEEDS)} seeds, not passing: {bad}, "
          f"reports differing from the box walk: {differ}")
    return 1 if bad or differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
