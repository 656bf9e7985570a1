"""The depth-first cylinder walk against the backward pullback it replaced.

`measure_reference.reference_interval` and `reference_example31` are the
pullbacks the walk replaced: each word is pulled back from [0, 1] through the
inverse branches, last digit first, dividing by the slope at every step.  The
reports of `measure_reference.cylinder_walk` must reproduce them exactly: the
same words in the same order, the same exact endpoints and the same closure
flags (test_cylinder_table ties `measures.cylinder_table` to those reports
byte for byte).  Stepping the image table over any word refuses exactly the
words the pullback refuses and gives the same lengths.  The image table is
checked against the paper's point set, computed here from the orbit of 1
under `map_reference.apply_map`.
"""

import itertools
from fractions import Fraction

import pytest

from negabeta.algebraic import (
    AlgebraicNumber, FieldElement, IntPolynomial, make_algebraic, parse_beta_spec,
)
from negabeta.cli import main
from negabeta.intervalmaps import example31_measure_bounds, example31_system
from negabeta.measures import ImageTable, InadmissibleWord, cylinder_table, image_table
from negabeta.shiftgraph import automaton_for
from negabeta.transform import MinusBetaSystem

from map_reference import apply_map
from measure_reference import (
    cylinder_walk, image_walk, reference_example31, reference_interval, word_image,
)
from pisot_bases import BASES as POOL_BASES
from word_reference import enumerate_admissible, enumerate_words

BASES = {
    "cubic": ((-1, -1, 0, 1), 1, 2),  # x^3 - x - 1
    "two": ((-2, 1), 1, 3),
    "three": ((-3, 1), 2, 4),
    "golden": ((-1, -1, 1), 1, 2),  # x^2 - x - 1
    "silver": ((-1, -2, 1), 2, 3),  # x^2 - 2x - 1
    "defective": ((-1, -1, -2, 1), 2, 3),  # x^3 - 2x^2 - x - 1: d(1) = 21(2), so "20" is inadmissible
    # Yrrap but not Pisot: the image table is finite because the orbit of 1 is
    "quartic": ((-1, -1, 0, 0, 1), 1, 2),  # x^4 - x - 1
    "salem": ((1, -1, -1, -1, 1), 1, 2),  # x^4 - x^3 - x^2 - x + 1
}
NON_PISOT = [BASES["quartic"], BASES["salem"], ((-1, 0, -1, 0, 0, 1), 1, 2)]  # and x^5 - x^2 - 1


@pytest.fixture(scope="module", params=sorted(BASES))
def system(request):
    coeffs, lo, hi = BASES[request.param]
    sys = MinusBetaSystem(make_algebraic(IntPolynomial(coeffs), lo, hi))
    sys.expansion_of_one()
    return sys


def _fields(interval):
    return interval.lo, interval.hi, interval.lo_closed, interval.hi_closed


def test_walk_matches_pullback(system):
    one, beta = system.beta.one(), system.beta_element
    lower = one - system.b / beta
    scales = [one]  # beta^-n
    for _ in range(7):
        scales.append(scales[-1] / beta)
    words = list(enumerate_admissible(system, 7))
    reports = list(cylinder_walk(system, 7))
    assert [r.word for r in reports] == words
    for report in reports:
        scale = scales[len(report.word)]
        ref = reference_interval(system, report.word)
        assert ref is not None
        assert _fields(report.interval) == ref
        length = ref[1] - ref[0]
        assert report.length == length
        assert report.upper_bound_ok == (length <= scale)
        if report.lower_bound_applicable:
            assert report.lower_bound_ok == (length >= lower * scale)
        else:
            assert report.lower_bound_ok is None


def _steps_like_pullback(table, word, ref):
    """The table refuses the word exactly when the pullback ref has no interior,
    and otherwise reads ref's length off the word's image."""
    if ref is None or ref[0] == ref[1]:
        with pytest.raises(InadmissibleWord):
            word_image(table, word)
    else:
        assert table.length(len(word), word_image(table, word)) == ref[1] - ref[0], word


def test_fold_matches_pullback_on_every_word(system):
    """Every digit string up to length 4, admissible or not, stepped through the image table."""
    table = image_table(system)
    for n in range(5):
        for word in itertools.product(range(system.b + 1), repeat=n):
            _steps_like_pullback(table, word, reference_interval(system, word))


def test_example31_fold_matches_pullback():
    """The same on Example 3.1's half-open cells, every word up to length 5."""
    fmap, _ = example31_system()
    for n in range(6):
        for word in itertools.product(range(5), repeat=n):
            _steps_like_pullback(fmap.image_table, word, reference_example31(fmap, word))


def test_example31_walk_matches_pullback():
    """Each word, listed one by one, has the length and bounds of its counted class."""
    fmap, presentation = example31_system()
    reports = {(r.n, r.image): r for r in example31_measure_bounds(7)}
    for word, _, image in image_walk(fmap.image_table, enumerate_words(presentation.graph, 7)):
        report = reports[len(word), image]
        lo, hi, _, _ = reference_example31(fmap, word)
        scale = Fraction(1, 3 ** len(word))
        assert report.length == hi - lo
        assert report.upper_ok == (hi - lo <= scale)
        assert report.lower_ok == (scale / 2 <= hi - lo)


def _system(coeffs, lo, hi):
    return MinusBetaSystem(make_algebraic(IntPolynomial(coeffs), lo, hi))


@pytest.mark.parametrize("coeffs, lo, hi", POOL_BASES + NON_PISOT,
                         ids=[str(c) for c, _, _ in POOL_BASES + NON_PISOT])
def test_image_table_is_the_orbit_of_one(coeffs, lo, hi):
    """P = {0, 1} + {k/beta} + the orbit of 1, with at most b+u+v+2 points."""
    system = _system(coeffs, lo, hi)
    points = image_table(system).points
    assert list(points) == sorted(points) and len(set(points)) == len(points)
    expected = {system.beta.zero(), system.beta.one()}
    expected |= {system.beta_inverse * k for k in range(1, system.b + 1)}
    x = system.beta.one()
    while (x := apply_map(system, x)) not in expected:
        expected.add(x)
    assert set(points) == expected
    s = system.expansion_of_one()
    assert len(points) <= system.b + s.u + s.v + 2


SWEEP_DEPTH = 4  # the reference pullback's sign tests take about 3 s here, 9 s at depth 5


def test_walk_matches_pullback_on_every_base():
    for coeffs, lo, hi in POOL_BASES:
        system = _system(coeffs, lo, hi)
        reports = list(cylinder_walk(system, SWEEP_DEPTH))
        assert [r.word for r in reports] == list(enumerate_admissible(system, SWEEP_DEPTH))
        for report in reports:
            assert _fields(report.interval) == reference_interval(system, report.word), coeffs


def test_no_word_needs_a_sign_test(monkeypatch):
    """The table's sign tests, formatting aside, build the image table and
    decide each image's bounds once, so their count stops growing with the
    depth."""
    sign = FieldElement.sign
    calls = [0]

    def counted(self):
        calls[0] += 1
        return sign(self)

    monkeypatch.setattr(FieldElement, "sign", counted)
    monkeypatch.setattr(FieldElement, "decimal", lambda self, digits: "")
    counts = []
    for n in (8, 12):
        system = _system(*BASES["cubic"])
        automaton_for(system)
        before = calls[0]
        cylinder_table(system, n, 15)
        counts.append(calls[0] - before)
    assert counts[0] == counts[1]


def test_each_image_steps_once(monkeypatch):
    """The table keeps each image's children, so cylinder_table's digit steps
    stop growing with the depth once every image has been met."""
    step = ImageTable.step
    calls = [0]

    def counted(self, image, digit):
        calls[0] += 1
        return step(self, image, digit)

    monkeypatch.setattr(ImageTable, "step", counted)
    counts = []
    for n in (8, 12):
        system = _system(*BASES["cubic"])
        before = calls[0]
        cylinder_table(system, n, 15)
        counts.append(calls[0] - before)
    assert counts[0] == counts[1]


def _spec(coeffs, lo, hi):
    return f"poly:{','.join(map(str, coeffs))};interval:{lo},{hi}"


def test_cyl_inverts_no_field_element(monkeypatch, capsys):
    """1/beta comes off the minimal polynomial and both slopes are passed in,
    so no `cyl` table runs a field inversion."""
    calls = []
    inverse = FieldElement.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counted)
    for coeffs, lo, hi in POOL_BASES + NON_PISOT:
        assert main(["cyl", "--beta", _spec(coeffs, lo, hi), "--maxlen", "4",
                     "--format", "csv"]) == 0, coeffs
        capsys.readouterr()
    assert calls == []


@pytest.mark.parametrize("name", ["cubic", "golden"])
def test_table_builds_no_element_per_row(name, monkeypatch):
    """Endpoints, lengths and the per-depth constants are integer vectors over
    one denominator, formatted straight from the vector: canonical field
    elements are built once per image, not per depth, row or endpoint."""
    maxlen = 12
    # the images, read on a system of their own, so the counted table starts fresh
    images = len({(r.image[0], r.image[2]) for r in cylinder_walk(_system(*BASES[name]), maxlen)})
    system = _system(*BASES[name])
    automaton_for(system)
    image_table(system)  # built before the count starts
    element = AlgebraicNumber._element
    calls = [0]

    def counted(self, nums, den):
        calls[0] += 1
        return element(self, nums, den)

    monkeypatch.setattr(AlgebraicNumber, "_element", counted)
    rows = cylinder_table(system, maxlen, 15)
    # per image, its width and two bound comparisons; and the lower-bound
    # constant 1 - b/beta
    budget = 3 * images + 2
    assert calls[0] <= budget < len(rows)


@pytest.mark.parametrize("spec", [
    *(_spec(*base) for base in POOL_BASES + NON_PISOT),
    "poly:-2,0,-2,1;interval:2,3",  # x^3 - 2x^2 - 2: c_0 = -2, so 1/beta is not in Z[beta]
    "decimal:2", "decimal:3", "decimal:2.5",  # rational: 1/beta = -c_1/c_0
])
def test_beta_inverse_is_read_off_the_minimal_polynomial(spec):
    system = MinusBetaSystem(parse_beta_spec(spec))
    beta = system.beta_element
    assert system.beta_inverse == system.beta.one() / beta
    assert system.beta_inverse * beta == 1
