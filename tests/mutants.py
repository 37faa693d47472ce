"""Recorded mutants of the package: each is one edit of one module in
src/mirrorcalc, the exact text it replaces and the text it puts there,
and the tier-1 tests that must fail once it is made.  Most guard a
shortcut that skips work on passing data (decide at p_0, read a record,
make an entry on read), which a report on the hypergeometric data, always
Euler data, cannot tell apart from a shortcut that also skips a check.

Run as a script, it makes each mutant in turn on a copy of src/ in a
temporary directory, runs the mutant's tests there in a subprocess, and
names every test that passed; it exits 1 if any did:

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mirrorcalc"


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/mirrorcalc
    old: str  # occurs exactly once in that file
    new: str
    tests: tuple  # pytest ids, each of which must fail


EULER = "tests/test_eulerdata.py::"
MUTANTS = [
    # verdicts by orbit, and entries made on read
    Mutant("degree bound by orbit on a table with no record", "eulerdata.py",
           "if tbl._symmetric and p0[0]", "if p0[0]",
           (EULER + "test_report_pins_failures_and_inconclusive[degree_bound]",)),
    Mutant("degree bound prints p_0's alpha denominator at p_k", "eulerdata.py",
           "tbl._symmetric and p0[0] is not None", "tbl._symmetric",
           (EULER + "test_degree_bound_prints_the_alpha_denominator_of_each_point",)),
    Mutant("to_table substitutes a rule with a lam on read", "eulerdata.py",
           "return values if lam_free else dict(values)", "return values",
           (EULER + "test_to_table_raises_where_it_did",)),
    Mutant("bulk passes without deciding the representatives", "eulerdata.py",
           'if all(r.status == "pass" for r in reps.results) and all(', "if all(",
           (EULER + "test_mutated_data_fails_gluing_and_reciprocity[drop-st0-2]",
            EULER + "test_mutated_data_fails_gluing_and_reciprocity[shift-st2-1]")),
    Mutant("bulk passes under keys the per-point route does not make", "eulerdata.py",
           "for k, _ in identities(points, points, False)]",
           "for k, _ in identities(points, points[1:], False)]",
           ("tests/test_values.py::test_report_json_is_pinned[False-quintic]",
            "tests/test_values.py::test_verify_sweep_is_pinned")),
    # the symmetry record: a bool that only the builders decide
    Mutant("bulk passes on tables that hold no record", "eulerdata.py",
           "all(tbl._symmetric for tbl in tables)", "True",
           (EULER + "test_orbit_route_sees_one_changed_value[denominator-at-p_n]",
            EULER + "test_orbit_route_needs_the_stabilizer_of_p0")),
    Mutant("linking by orbit when either table holds a record", "eulerdata.py",
           "all(tbl._symmetric for tbl in tables)", "any(tbl._symmetric for tbl in tables)",
           (EULER + "test_linking_takes_the_orbit_only_when_both_tables_hold_a_record",)),
    Mutant("to_table records a lam-free rule without testing Omega", "eulerdata.py",
           "lam_free and _point_symmetric([[w] for w in omega.values()])", "lam_free",
           (EULER + "test_to_table_decides_an_omega_that_is_not_symmetric"
                    "[lam_i*(lam_i + i*alpha)]",)),
    Mutant("mirror_transform skips its multiplier test", "eulerdata.py",
           "seq._symmetric and _point_symmetric([[c for c in f if not c.is_zero()]] * (n + 1))",
           "seq._symmetric",
           (EULER + "test_orbit_transform_and_lagrange_match_the_per_point_route",)),
    Mutant("mirror_transform tests only the zero multiplier coefficients", "eulerdata.py",
           "[c for c in f if not c.is_zero()]", "[c for c in f if c.is_zero()]",
           (EULER + "test_orbit_transform_and_lagrange_match_the_per_point_route",
            EULER + "test_transform_values_and_lagrange_reports_are_pinned")),
    Mutant("lagrange_map records any sequence", "eulerdata.py",
           "symmetric = seq._symmetric\n", "symmetric = True\n",
           (EULER + "test_orbit_transform_and_lagrange_match_the_per_point_route",)),
    # the mirror transform's sums by Horner's rule in the blocks
    Mutant("Horner skips the block between two terms", "eulerdata.py",
           "acc = acc if acc is None else acc * block(r)", "acc = acc",
           (EULER + "test_transform_values_and_lagrange_reports_are_pinned",)),
    Mutant("Horner drops the final block(d)", "eulerdata.py",
           "acc * block(len(terms)) + last", "acc + last",
           (EULER + "test_linked_mirror_transform",
            EULER + "test_transform_values_and_lagrange_reports_are_pinned",
            "tests/test_acceptance.py::test_criterion_09_mirror_group")),
    # int moves
    Mutant("_weight drops r*alpha", "eulerdata.py",
           '{f"lam{i}": 1, "alpha": r}', '{f"lam{i}": 1}',
           (EULER + "test_gluing_local_p2", EULER + "test_gluing_endpoint_data")),
    Mutant("_alpha_binding with q = 1", "eulerdata.py",
           '{f"lam{j}": 1, f"lam{i}": -1}, d)', '{f"lam{j}": 1, f"lam{i}": -1}, 1)',
           (EULER + "test_reciprocity_multicover",)),
    Mutant("_alpha_binding with its signs swapped", "eulerdata.py",
           '{f"lam{j}": 1, f"lam{i}": -1}', '{f"lam{j}": -1, f"lam{i}": 1}',
           (EULER + "test_reciprocity_line_data_by_hand",
            EULER + "test_reciprocity_report_pins_failures_and_inconclusive")),
    Mutant("_moved ignores q on a RationalFunction", "algebra.py",
           "{ring.units[w]: c for w, c in target}, q)", "{ring.units[w]: c for w, c in target}, 1)",
           (EULER + "test_linked_mirror_transform",
            EULER + "test_mirror_linked_fails_where_omega_involves_alpha")),
    Mutant("_move keeps the pairs in the form's order", "eulerdata.py",
           "tuple(sorted((ring.index[u], c) for u, c in form.items() if c))",
           "tuple((ring.index[u], c) for u, c in form.items() if c)",
           (EULER + "test_moves_share_the_images_of_the_polynomial_bindings",)),
    Mutant("moves read lam_i as variable i and alpha by position", "eulerdata.py",
           "(ring.index[u], c) for u, c in form.items() if c",
           '(ring.nvars - 3 if u == "alpha" else int(u[3:]), c) for u, c in form.items() if c',
           (EULER + "test_checks_read_each_variable_by_name[False]",
            EULER + "test_checks_read_each_variable_by_name[True]")),
]


def passed(tests, output):
    """The ids of tests that output, pytest's report with -rf, does not
    list as failed.  Each id is matched against a whole summary line,
    ``FAILED <id>`` or ``FAILED <id> - <message>``: a parametrized id may
    hold a space."""
    lines = output.splitlines()
    return [test for test in tests if not any(
        line == f"FAILED {test}" or line.startswith(f"FAILED {test} - ") for line in lines)]


def survivors(mutant):
    """The tests of mutant that pass on a copy of src/ with it made."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(SRC.parent, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "mirrorcalc" / mutant.module
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: the old text is not in {mutant.module} once")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=900)
    return passed(mutant.tests, proc.stdout)


def main():
    alive = 0
    for mutant in MUTANTS:
        passed = survivors(mutant)
        alive += bool(passed)
        print(f"{'SURVIVED' if passed else 'killed'}: {mutant.name}"
              + "".join(f"\n  passed: {test}" for test in passed), flush=True)
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
