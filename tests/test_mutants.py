"""The recorded mutants of tests/mutants.py stay current: each one's old
text occurs exactly once in today's source, each test it names exists,
and one mutant, made on a copy of src/, is killed by its tests in a
subprocess; the runner reads pytest's summary of failures whole.
``python tests/mutants.py`` runs them all."""

from mutants import MUTANTS, ROOT, SRC, passed, survivors

OMEGA = "tests/test_eulerdata.py::test_to_table_decides_an_omega_that_is_not_symmetric"

# pytest -q -rf on a mutant that kills the first id of OMEGA only, and one
# more failure whose message follows its id
CAPTURED = f"""\
F..F                                                                     [100%]
=================================== FAILURES ===================================
_ test_to_table_decides_an_omega_that_is_not_symmetric[lam_i*(lam_i + i*alpha)] _
=========================== short test summary info ============================
FAILED {OMEGA}[lam_i*(lam_i + i*alpha)]
FAILED tests/test_eulerdata.py::test_gluing_local_p2 - assert False
2 failed, 2 passed in 0.33s
"""


def test_each_old_text_occurs_once():
    stale = [m.name for m in MUTANTS
             if (SRC / m.module).read_text(encoding="utf-8").count(m.old) != 1]
    assert not stale


def test_each_test_a_mutant_names_exists():
    # a renamed test is never reported failed, so its mutant would read as a survivor
    missing = []
    for mutant in MUTANTS:
        for test in mutant.tests:
            path, name = test.split("::")
            source = ROOT / path
            if not source.is_file() or f"def {name.split('[')[0]}(" not in source.read_text():
                missing.append((mutant.name, test))
    assert not missing


def test_a_mutant_is_killed_end_to_end():
    # the degree bound taking the orbit on a table that holds no record
    assert survivors(MUTANTS[0]) == []
    assert survivors(MUTANTS[0]._replace(new=MUTANTS[0].old)) == list(MUTANTS[0].tests)


def test_failures_are_read_by_whole_id():
    # an id that holds a space is read whole, and an id that is only the
    # start of a failed one's is not taken for it
    tests = (f"{OMEGA}[lam_i*(lam_i + i*alpha)]", f"{OMEGA}[lam_i*(lam0 + alpha)]",
             "tests/test_eulerdata.py::test_gluing_local_p2",
             "tests/test_eulerdata.py::test_gluing")
    assert passed(tests, CAPTURED) == [tests[1], tests[3]]
    assert passed(tests, "") == list(tests)
