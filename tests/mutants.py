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
import re
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
           "tbl._symmetric and tbl._symmetric()", "True",
           (EULER + "test_report_pins_failures_and_inconclusive[degree_bound]",)),
    Mutant("degree bound prints p_0's alpha denominator at p_k", "eulerdata.py",
           "orbit and p0[0] is not None", "orbit",
           (EULER + "test_degree_bound_prints_the_alpha_denominator_of_each_point",)),
    Mutant("to_table substitutes a rule with a lam on read", "eulerdata.py",
           "return values if lam_free else dict(values)", "return values",
           (EULER + "test_to_table_raises_where_it_did",)),
    Mutant("bulk passes without deciding the representatives", "eulerdata.py",
           'if all(r.status == "pass" for r in reps.results) and (', "if (",
           (EULER + "test_mutated_data_fails_gluing_and_reciprocity[drop-st0-2]",
            EULER + "test_mutated_data_fails_gluing_and_reciprocity[shift-st2-1]")),
    Mutant("bulk passes under keys the per-point route does not make", "eulerdata.py",
           "for k, _ in identities(points, points, False)]",
           "for k, _ in identities(points, points[1:], False)]",
           ("tests/test_values.py::test_report_json_is_pinned[False-quintic]",
            "tests/test_values.py::test_verify_sweep_is_pinned")),
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
    failed = set(re.findall(r"^FAILED (\S+)", proc.stdout, re.M))
    return [test for test in mutant.tests if test not in failed]


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
