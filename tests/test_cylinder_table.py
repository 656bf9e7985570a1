"""`cyl` output against the word-by-word reference, byte for byte.

`measures.cylinder_table` walks the admissible words once, on integer
vectors, and writes each row as a tuple.  The reference lists the same words
with `word_reference.enumerate_words`, builds one `CylinderReport` and one
dict per word (`measure_reference.cylinder_rows`) and writes them with the
standard library's CSV and JSON writers.  Both must give the same stdout,
exit code and stderr on every base, in both formats and at every precision,
and name the same word where the automaton admits one whose cylinder has no
interior.
"""

import pytest

from negabeta import measures, shiftgraph
from negabeta.algebraic import IntPolynomial, make_algebraic
from negabeta.cli import main
from negabeta.measures import InadmissibleWord
from negabeta.shiftgraph import automaton_for
from negabeta.transform import MinusBetaSystem

import measure_reference
from measure_reference import cylinder_rows, cylinder_text
from pisot_bases import BASES
from test_cylinder_walk import NON_PISOT, _spec
from test_language_gap import _mutated

BIG = ((-2, 0, 2, -1, -2, 1), 2, 3)  # x^5 - 2x^4 - x^3 + 2x^2 - 2, 52 states
MAXLEN = 5
# beta = 11 and beta = 5 + sqrt(26): digits up to 10 or more, so words are
# written with commas; 1,464 and 1,256 rows at depth 3
WIDE = [((-11, 1), 10, 12, 3), ((-1, -10, 1), 10, 11, 3)]
SWEEP = [(*base, MAXLEN) for base in BASES + NON_PISOT + [BIG]] + WIDE
DIGITS = (1, 15, 60)


@pytest.mark.parametrize("coeffs, lo, hi, maxlen", SWEEP, ids=[str(c) for c, *_ in SWEEP])
def test_cyl_matches_the_reference(coeffs, lo, hi, maxlen, capsys):
    system = MinusBetaSystem(make_algebraic(IntPolynomial(coeffs), lo, hi))
    for digits in DIGITS:
        rows = cylinder_rows(system, maxlen, digits)
        for fmt in ("csv", "json"):
            code = main(["cyl", "--beta", _spec(coeffs, lo, hi), "--maxlen", str(maxlen),
                         "--digits", str(digits), "--format", fmt])
            assert (code, *capsys.readouterr()) == (0, cylinder_text(rows, fmt), ""), (digits, fmt)


@pytest.mark.parametrize("edge, last", [
    ((1, 0, 0), (0, 0, 1, 0, 1)),
    # at depth 4 the first word is 1000, in the subtree of 100, not its sibling 101
    ((1, 1, 0), (0, 1, 1, 0, 1)),
], ids=["101", "1000"])
def test_refusal_matches_the_reference(edge, last, monkeypatch, capsys):
    """An automaton that admits 101, whose cylinder has no interior: both name
    the same first word in preorder at every depth."""
    system = MinusBetaSystem(make_algebraic(IntPolynomial((-1, -1, 0, 1)), 1, 2))
    mutated = _mutated(automaton_for(system), add=[edge])
    for module in (shiftgraph, measures, measure_reference):
        monkeypatch.setattr(module, "automaton_for", lambda system: mutated)
    for maxlen in range(1, MAXLEN + 1):
        try:
            expected = 0, cylinder_text(cylinder_rows(system, maxlen, 15), "csv"), ""
        except InadmissibleWord as exc:
            expected = 1, "", f"property violation: {exc}\n"
        code = main(["cyl", "--beta", "poly:-1,-1,0,1;interval:1,2", "--maxlen", str(maxlen),
                     "--format", "csv"])
        assert (code, *capsys.readouterr()) == expected, maxlen
    assert expected == (1, "", f"property violation: no interior in the cylinder of word {last}\n")
