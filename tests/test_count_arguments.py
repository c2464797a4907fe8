"""Counts, degrees, powers and dimensions are ints, never bools or floats.

exterior._is_count is the one test ("an int, not a bool, in [low, high]");
each call below reaches it through its own site, which raises its own
error type.  A bool is an int in Python, so without the test True passes
as 1 and False as 0; a float would reach comb() or range() and raise a
bare TypeError there.  A dimension is also held to [1, MAX_DIMENSION],
and a verify seed, which may be negative, must be an int too.
"""

from fractions import Fraction

import pytest

from doubleforms import (
    DegreeError,
    DoubleFormError,
    build_invariant_report,
    decompose,
    einstein_tensor,
    make_constant_curvature,
    make_g,
    power,
    set_cell_budget,
    star_bianchi,
    star_in_components,
    weyl_invariant,
)
from doubleforms.core import cell_budget
from doubleforms.curvature import Frame, FrameError, pq_curvature_tensor, pq_sectional
from doubleforms.decomposition import divide_g_power, g_power_matrix, map_rank
from doubleforms.exterior import MAX_DIMENSION, _is_count
from doubleforms.verify import UsageError, run_verify

R = make_constant_curvature(4, 1)

REFUSED = {
    "power": (lambda: power(R, True), DegreeError),
    "weyl_invariant": (lambda: weyl_invariant(R, True), DegreeError),
    "einstein_tensor": (lambda: einstein_tensor(R, True), DegreeError),
    "build_invariant_report": (lambda: build_invariant_report(R, True), DegreeError),
    "pq_curvature_tensor p": (lambda: pq_curvature_tensor(R, True, 1), DegreeError),
    "pq_curvature_tensor q": (lambda: pq_curvature_tensor(R, 1, True), DegreeError),
    "pq_sectional p": (lambda: pq_sectional(R, False, 1, None), DegreeError),
    "pq_sectional q": (lambda: pq_sectional(R, 0, True, None), DegreeError),
    "mul_g_power": (lambda: make_g(4).mul_g_power(True), DegreeError),
    "contract": (lambda: R.form.contract(True), DegreeError),
    "divide_g_power": (lambda: divide_g_power(R.form, True), DegreeError),
    "map_rank": (lambda: map_rank(4, 1, 1, True), DegreeError),
    "g_power_matrix p": (lambda: g_power_matrix(4, True, 1, 1), DegreeError),
    "g_power_matrix float power": (lambda: g_power_matrix(4, 1, 1, 1.5), DegreeError),
    "star_bianchi float k": (lambda: star_bianchi(R.form, 2.0), DegreeError),
    "star_bianchi bool k": (lambda: star_bianchi(make_g(4), True), DegreeError),
    "star_in_components bool": (lambda: star_in_components(decompose(R.form), True), DegreeError),
    "star_in_components float": (lambda: star_in_components(decompose(R.form), 1.5), DegreeError),
    "set_cell_budget": (lambda: set_cell_budget(True), DoubleFormError),
    "run_verify trials": (lambda: run_verify("hodge", 4, True, 0), UsageError),
    "run_verify bool seed": (lambda: run_verify("hodge", 4, 1, True), UsageError),
    "run_verify str seed": (lambda: run_verify("hodge", 4, 1, "0"), UsageError),
    "run_verify n past MAX_DIMENSION": (
        lambda: run_verify("hodge", MAX_DIMENSION + 1, 1, 0), UsageError),
    "g_power_matrix float n": (lambda: g_power_matrix(4.0, 1, 1, 1), DegreeError),
    "g_power_matrix bool n": (lambda: g_power_matrix(True, 1, 1, 0), DegreeError),
    "map_rank bool n": (lambda: map_rank(True, 1, 1, 0), DegreeError),
    "map_rank n past MAX_DIMENSION": (lambda: map_rank(MAX_DIMENSION + 1, 0, 0, 0), DegreeError),
    "Frame.coordinate n past MAX_DIMENSION": (
        lambda: Frame.coordinate(MAX_DIMENSION + 1, (0,)), FrameError),
    "Frame.coordinate n = 0": (lambda: Frame.coordinate(0, ()), FrameError),
}


@pytest.fixture(autouse=True)
def keep_cell_budget():
    # set_cell_budget(True) once set a budget of 1 for every later test
    previous = cell_budget()
    yield
    set_cell_budget(previous)


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_bool_and_float_counts_are_refused_by_their_site(name):
    call, error = REFUSED[name]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "value, accepted",
    [(1, True), (4, True), (True, False), (False, False), (1.0, False), (Fraction(2), False),
     (0, False), (5, False)],
)
def test_is_count_takes_only_ints_in_range(value, accepted):
    assert _is_count(value, 1, 4) is accepted


def test_the_same_calls_take_int_counts():
    assert power(R, 1).form == R.form
    assert weyl_invariant(R, 1) == 6
    assert map_rank(4, 1, 1, 1) == 16
    assert star_in_components(decompose(R.form), 1) == R.form.mul_g_power(1).hodge()
    assert run_verify("hodge", 4, 1, 0).trials == 1
    assert run_verify("hodge", 4, 1, -3).seed == -3
    assert g_power_matrix(MAX_DIMENSION, 0, 0, 0) == [[1]]
    assert Frame.coordinate(MAX_DIMENSION, (0,)).n == MAX_DIMENSION
