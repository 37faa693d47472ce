"""The recorded mutants of tests/mutants.py stay current: each one's old
text occurs exactly once in today's source, and one mutant, made on a
copy of src/, is killed by its tests in a subprocess.  ``python
tests/mutants.py`` runs them all."""

from mutants import MUTANTS, SRC, survivors


def test_each_old_text_occurs_once():
    stale = [m.name for m in MUTANTS
             if (SRC / m.module).read_text(encoding="utf-8").count(m.old) != 1]
    assert not stale


def test_a_mutant_is_killed_end_to_end():
    # the degree bound taking the orbit on a table that holds no record
    assert survivors(MUTANTS[0]) == []
    assert survivors(MUTANTS[0]._replace(new=MUTANTS[0].old)) == list(MUTANTS[0].tests)
