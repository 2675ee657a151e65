"""The mutant list in tests/mutants.py still applies to the source.

Running the mutants takes minutes, so tier-1 checks only that each entry
can be applied: its old text occurs exactly once in its module, its
replacement differs, and the test files it names exist.
"""

from mutants import MUTANTS, SRC, TESTS


def test_every_mutant_applies_once_and_names_its_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (SRC / m.module).read_text().count(m.old) == 1, m.name
        assert m.new != m.old and m.reason, m.name
        assert m.tests and all((TESTS / f).is_file() for f in m.tests), m.name
