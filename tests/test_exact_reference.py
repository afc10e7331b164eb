"""The float oracle against exact rational values at eps = ln 2 (``exact_reference``).

Every value must lie within ULPS ulps of max(|exact|, 1).  The bound is a
first-order rounding analysis of the oracle's operations, with u = 2^-53
and every value counted in units of u * max(|exact|, 1):

* inputs: e^eps = 2 and both normalisers are exact; a law entry takes one
  rounded division (collision) or two (CoCo's weight, then / Omega), so
  it is within 2u; an orbit weight perm * 2^k / total is one correctly
  rounded int division and their fsum is within 2u of 1; 1/t is within
  u.  CoCo's p_ow goes through log1p, expm1 (each within one ulp) and
  four rounded steps, within 10u absolutely; its error cancels in
  p_t + p_o.
* denominators: collision's D = e^eps/Omega - 1/t is within
  u ((e^eps/Omega + 1/t)/D + 1) relatively; CoCo's p_t - p_o within
  u (5 + 13/(1 - p_ow)) and p_t + p_o - 2 p_f within
  u ((4 (e^eps + 1)/Omega + 2/t)/D + 1).  Each is a common factor of the
  values it divides, so it scales the mean by its error once and the
  variance twice.
* hit probabilities: at the read point each hit's table average is the
  fsum over the tables of rounded weight * law products (each within
  4u), one more u, then one rounded division by the total weight (within
  2u of 1), so within 8u relatively; at an unread point each hit is 1/t,
  within u.  P[none] = 1 - (sum of the hits) is
  within the hits' errors, one rounded sum if paired and u P[none],
  absolutely.
* per outcome o (a hit on the probed point, on its pair partner, or
  none): the value v_o, apart from its denominator, within a few u of
  the magnitudes it is formed from, including the (nm +- m)/2 of CoCo's
  event frequencies, and v_o^2 one more rounding; then one product with
  P[o] and a sum over the two or three outcomes, the square of the mean
  and the final subtraction.

That gives |mean error| <= u kappa |mean| + sum_o (pi_o |v_o| + P[o] r_o)
+ n sum_o P[o] |v_o|, with pi_o the error of P[o], r_o that of v_o and n
the number of outcomes, and a like sum for the variance.  Evaluated
exactly over this grid (no float oracle value involved), the largest is
297 u * max(|exact|, 1), at CoCo's non-missing mean at d = s = 3, t = 8.
ULPS is that, rounded up with room; second-order terms are below one
ulp.  ``verify_ldp`` needs 8 (a ratio of two laws, then one log).
"""

import math
from fractions import Fraction

import pytest

from ldpvec.aggregate import MECHANISMS
from ldpvec.collision import collision_params
from ldpvec.domain import EventId, MechanismParams, TernaryVector
from ldpvec.oracle import exact_estimator_moments, verify_ldp
import exact_reference

ULPS = 320
LN2 = math.log(2)
# the criteria 1-2 grids at eps = ln 2, plus CoCo at s = d
GRID = [("collision", collision_params(4, 2, LN2, t)) for t in (4, 5, 6)]
GRID += [("coco", MechanismParams(d=4, s=s, epsilon=LN2, t=t)) for s in (1, 2) for t in (6, 8)]
GRID += [("coco", MechanismParams(d=2, s=2, epsilon=LN2, t=t)) for t in (6, 8)]
GRID += [("coco", MechanismParams(d=3, s=3, epsilon=LN2, t=8))]
IDS = [f"{m}-d{p.d}-s{p.s}-t{p.t}" for m, p in GRID]


def _ulps(got: float, exact: Fraction) -> Fraction:
    return abs(Fraction(got) - exact) / Fraction(math.ulp(float(max(abs(exact), 1))))


def _probes(mechanism: str, d: int):
    """(estimator, hash point, probe keywords) of every probe of an input."""
    if mechanism == "collision":
        return [("indicator", code, {"event": EventId.from_code(code)}) for code in range(1, 2 * d + 1)]
    return [(name, j, {"dim": j}) for j in range(1, d + 1) for name in ("mean", "nonmissing")]


def test_the_exact_reference_reads_the_registered_layouts():
    assert exact_reference.MECHANISMS == {name: MECHANISMS[name].paired for name in exact_reference.MECHANISMS}


@pytest.mark.parametrize("mechanism, params", GRID, ids=IDS)
def test_oracle_moments_lie_within_the_derived_bound_of_exact(mechanism, params):
    assert math.exp(math.log(2)) == 2.0
    worst = Fraction(0)
    for support in exact_reference.sparse_supports(params.d, params.s):
        x, signs = TernaryVector(params.d, support), dict(support)
        for estimator, point, probe in _probes(mechanism, params.d):
            exact = exact_reference.moments(mechanism, params.d, params.s, params.t, support, estimator, point)
            if mechanism == "collision":  # unbiased, exactly
                assert exact[0] == (point in exact_reference.read_points(support, False))
            else:
                assert exact[0] == (signs.get(point, 0) if estimator == "mean" else point in signs)
            got = exact_estimator_moments(mechanism, params, x, estimator, **probe)
            worst = max(worst, *map(_ulps, got, exact))
    assert worst <= ULPS, float(worst)


@pytest.mark.parametrize("mechanism, params", GRID, ids=IDS)
def test_verify_ldp_lies_within_the_derived_bound_of_exact(mechanism, params):
    assert math.exp(math.log(2)) == 2.0
    exact = exact_reference.worst_ratio(mechanism, params.d, params.s, params.t)
    assert exact <= 2
    assert _ulps(verify_ldp(mechanism, params), Fraction(math.log(exact))) <= ULPS


@pytest.mark.parametrize("mechanism, params", GRID, ids=IDS)
def test_verify_ldp_lies_within_the_derived_bound_of_the_exact_certificate(mechanism, params):
    # the exact certificate takes every sign pattern on dims 1..s, so it checks the oracle's sign fold, not assumes it
    exact = exact_reference.certificate_ratio(mechanism, params.s, params.t)
    assert _ulps(verify_ldp(mechanism, params), Fraction(math.log(exact))) <= ULPS
    # an upper bound on the pairwise worst ratio, and equal to it here, CoCo at s = d included: both are e^eps
    assert exact == exact_reference.worst_ratio(mechanism, params.d, params.s, params.t) == 2
