"""The image table read off its caller's point set, against the closure it replaced.

`measures.ImageTable` takes its point set P from the caller: the cell
endpoints and the orbit of 1 for the negative-beta map, the cell endpoints
alone for Example 3.1.  `measure_reference.closure_table` finds P the way the
program did before, as the closure of {0, 1} and the cell endpoints under the
branches in exact arithmetic; both must give the same points, cells, maps and
root.  `measures._depth_vectors` steps the depth constants as integer vectors
over one denominator D; each must equal the field product it stands for.
"""

from fractions import Fraction

import pytest

from negabeta.intervalmaps import example31_system
from negabeta.measures import ImageTable, PointsNotClosed, _depth_vectors, image_table
from negabeta.transform import MinusBetaSystem

from measure_reference import closure_table
from test_cylinder_table import BIG, WIDE
from test_cylinder_walk import NON_PISOT, POOL_BASES, _system

ALL = POOL_BASES + NON_PISOT + [BIG]
WIDE_BASES = [base[:3] for base in WIDE]  # beta = 11 and 5 + sqrt(26)


def _table_fields(table: ImageTable) -> tuple:
    return table.points, table.cells, table.maps, table.root


def _closure(system: MinusBetaSystem) -> tuple:
    cells = system.partition()
    return closure_table(cells, [a + 1 for a in range(len(cells))], -system.beta_element,
                         system.beta.one())


@pytest.mark.parametrize("coeffs, lo, hi", ALL, ids=[str(c) for c, _, _ in ALL])
def test_image_table_equals_the_closure(coeffs, lo, hi):
    system = _system(coeffs, lo, hi)
    assert _table_fields(image_table(system)) == _closure(system)


def test_example31_table_equals_the_closure():
    fmap, _ = example31_system()
    branches = fmap.branches
    expected = closure_table(branches, [br.intercept for br in branches], Fraction(3),
                             Fraction(1))
    assert _table_fields(fmap.image_table) == expected


@pytest.mark.parametrize("coeffs, lo, hi", ALL + WIDE_BASES,
                         ids=[str(c) for c, _, _ in ALL + WIDE_BASES])
def test_depth_step_never_truncates(coeffs, lo, hi):
    """D*s_n*p and D*s_n*(a+1), stepped by the companion map of -1/beta, are
    the field products s_n*p and s_n*(a+1) over D, up to depth 12."""
    maxlen = 12
    system = _system(coeffs, lo, hi)
    table = image_table(system)
    den, ends, terms = _depth_vectors(system, maxlen)
    field = system.beta
    scale = field.one()
    for n in range(maxlen + 1):
        assert [field._element(v, den) for v in ends[n]] == [scale * p for p in table.points], n
        assert [field._element(v, den) for v in terms[n]] == \
            [scale * (a + 1) for a in range(len(table.cells))], n
        scale = scale * table.inv_slope


def test_table_refuses_a_point_set_missing_the_orbit():
    """The cell endpoints alone are not closed under the cubic's branches."""
    system = _system((-1, -1, 0, 1), 1, 2)
    cells = system.partition()
    with pytest.raises(PointsNotClosed):
        ImageTable(cells, [a + 1 for a in range(len(cells))], -system.beta_element,
                   -system.beta_inverse, True, {x for cell in cells for x in (cell.lo, cell.hi)})


def test_table_refuses_a_point_set_missing_a_cell_endpoint():
    fmap, _ = example31_system()
    branches = fmap.branches
    points = {x for br in branches for x in (br.lo, br.hi)} - {Fraction(2, 3)}
    with pytest.raises(PointsNotClosed):
        ImageTable(branches, [br.intercept for br in branches], Fraction(3), Fraction(1, 3),
                   False, points)

