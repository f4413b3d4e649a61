import math

import numpy as np
import pytest

from masterop import verify_ratio_c1, verify_ratio_c2_c3, verify_ratio_step2
from masterop.regions import (
    delta_of,
    sample_past_points,
    sample_region,
    shift_of,
    step1_predicates,
    step2_predicates,
)


# --- scales -------------------------------------------------------------------

def test_scale_definitions():
    R = 1000.0
    assert delta_of(R) == pytest.approx(0.1, rel=1e-14)
    assert shift_of(R) == pytest.approx(R ** 1.5, rel=1e-15)


# --- partitions at single points ----------------------------------------------

def only_label(preds):
    """The one label whose predicate holds at the single point given."""
    hits = [label for label, hit in preds.items() if hit[0]]
    assert len(hits) == 1, hits
    return hits[0]


def step1_label(y, tau, x, t, R):
    return only_label(step1_predicates(np.atleast_2d(y), np.array([tau]), x, t, R))


def step2_label(y, tau, t, R):
    return only_label(step2_predicates(np.atleast_2d(y), np.array([tau]), t, R))


def test_classify_step1_examples():
    R = 10.0
    x, t = np.array([1.0]), 0.0
    assert step1_label(np.array([5.0]), -50.0, x, t, R) == "Interior"
    assert step1_label(np.array([20.0]), t - 1.0, x, t, R) == "A"
    assert step1_label(np.array([5.0]), -2 * R * R, x, t, R) == "C"
    # deep past at moderate radius beyond R: |y - x| < delta (t - tau)
    d = delta_of(R)
    tau = t - 2.0 * 19.0 / d
    assert step1_label(np.array([20.0]), tau, x, t, R) == "B"


def test_classify_step1_tie_breaks():
    R = 10.0
    x, t = np.zeros(1), 0.0
    d = delta_of(R)
    y = np.array([20.0])
    tau = t - 20.0 / d          # exactly |y - x| = delta (t - tau)
    assert step1_label(y, tau, x, t, R) == "A"
    assert step1_label(np.array([10.0]), -5.0, x, t, R) == "Interior"
    assert step1_label(np.array([10.0]), -R * R, x, t, R) == "Interior"


def test_classify_step2_examples():
    R = 10.0
    t = 0.0
    y = np.array([20.0])
    assert step2_label(y, t - math.sqrt(R) * 20.0, t, R) == "D"
    assert step2_label(y, t - 1.0, t, R) == "F"
    assert step2_label(np.array([1.0]), -4 * R * R, t, R) == "C"
    # between the parabola and the shift line
    t0 = shift_of(R)
    assert step2_label(np.array([30.0]), -2.0 * t0, t, R) == "E"


def test_classify_step2_tie_breaks():
    R = 10.0
    t = 0.0
    y = np.array([20.0])
    assert step2_label(y, t - math.sqrt(R) * 20.0, t, R) == "D"
    assert step2_label(y, -shift_of(R), t, R) == "E"


@pytest.mark.parametrize("n", [1, 2])
def test_partition_exactness_100k(n, rng):
    R, t = 100.0, 3.0
    ys, taus = sample_past_points(rng, n, t, R, 100_000)
    x = np.zeros(n)
    p1 = step1_predicates(ys, taus, x, t, R)
    counts = sum(np.asarray(v, dtype=int) for v in p1.values())
    assert int(np.sum(counts != 1)) == 0
    p2 = step2_predicates(ys, taus, t, R)
    counts = sum(np.asarray(v, dtype=int) for v in p2.values())
    assert int(np.sum(counts != 1)) == 0


@pytest.mark.parametrize("region", ["A", "B", "C"])
def test_step1_samplers_land_in_region(region, rng):
    R, t = 100.0, 2.0
    x = np.array([1.0])
    ys, taus = sample_region(rng, region, 1, x, t, R, 300)
    preds = step1_predicates(ys, taus, x, t, R)
    assert np.all(preds[region])


@pytest.mark.parametrize("region", ["C", "D", "E", "F"])
def test_step2_samplers_land_in_region(region, rng):
    R, t = 100.0, 2.0
    ys, taus = sample_region(rng, region, 1, None, t, R, 300)
    preds = step2_predicates(ys, taus, t, R)
    assert np.all(preds[region])


# --- ratio verifiers ----------------------------------------------------------

def test_ratio_c1_decreasing_and_within_envelope(p_half):
    x = np.array([1.0])
    maxima = []
    for R in (1e2, 1e3, 1e4):
        rep = verify_ratio_c1(x, 0.0, R, 1000, p_half)
        assert rep.passed
        assert rep.max_log_ratio <= rep.envelope_log + 1e-9
        maxima.append(rep.max_log_ratio)
    assert maxima[0] > maxima[1] > maxima[2]


def test_ratio_c1_boundary_sample_closed_form(p_half):
    # on the slope boundary |y - x| = delta (t - tau) in n = 1, the shifted
    # ratio collapses to exp(-(2(y-x) - delta^{-2}) / (4 (t-tau) delta^2))
    import masterop.kernel as K
    R = 1000.0
    d = delta_of(R)
    x, t = 1.0, 0.0
    y = 2.0 * R
    a = (y - x) / d                 # t - tau exactly on the boundary
    num = K.kernel_log_eval(np.array([x - y]), a, p_half)
    den = K.kernel_log_eval(np.array([x + 1.0 / d ** 2 - y]), a, p_half)
    got = num - den
    want = -(2.0 * (y - x) - d ** -2) / (4.0 * a * d * d)
    assert got == pytest.approx(want, rel=1e-12)
    assert got <= -(2.0 / math.sqrt(1.0) - 1.5 * d) / 4.0 / d   # chain envelope


def test_ratio_c1_precondition_and_degenerate(p_half):
    with pytest.raises(ValueError):
        verify_ratio_c1(np.array([50.0]), 0.0, 100.0, 10, p_half)
    for verify in (lambda m: verify_ratio_c1(np.array([1.0]), 0.0, 100.0, m, p_half),
                   lambda m: verify_ratio_c2_c3(np.array([1.0]), 0.0, 100.0, m, p_half),
                   lambda m: verify_ratio_step2(1.0, 100.0, m, p_half)):
        with pytest.raises(ValueError, match="samples"):
            verify(0)


def test_ratio_c2_c3_envelopes(p_half):
    reps = verify_ratio_c2_c3(np.array([1.0]), 0.0, 1e4, 1000, p_half)
    byname = {r.region: r for r in reps}
    assert byname["B"].passed and byname["C"].passed
    # the B envelope is the printed delta (|x|/2 + 3 |x|^2 / 4)
    assert byname["B"].envelope_log == pytest.approx(
        1e4 ** (-1 / 3.0) * (0.5 + 0.75), rel=1e-12)


def test_ratio_c2_c3_zero_offset(p_half):
    reps = verify_ratio_c2_c3(np.zeros(1), 0.0, 1e4, 200, p_half)
    for rep in reps:
        assert rep.max_log_ratio == 0.0


def test_ratio_step2_envelopes(p_half):
    R = 1e4
    reps = verify_ratio_step2(math.sqrt(R), R, 1000, p_half)
    byname = {r.region: r for r in reps}
    for name in ("C", "D", "E", "F"):
        assert byname[name].passed
    # shift-by-t0 comparisons decay; the c/R^2 and c/R shapes stay tiny
    assert byname["C"].envelope_log <= 10.0 / R
    assert byname["D"].envelope_log <= 10.0 / math.sqrt(R)
    assert math.exp(byname["E"].max_log_ratio) <= 10.0 * math.exp(-math.sqrt(R) / 8.0)
    assert math.exp(byname["F"].max_log_ratio) <= 10.0 / math.sqrt(R)


def test_ratio_step2_zero_time_is_exact(p_half):
    reps = verify_ratio_step2(0.0, 1e4, 200, p_half)
    byname = {r.region: r for r in reps}
    assert byname["C"].max_log_ratio == 0.0
    assert byname["D"].max_log_ratio == 0.0


def test_ratio_step2_precondition(p_half):
    with pytest.raises(ValueError):
        verify_ratio_step2(1e8, 1e4, 10, p_half)


@pytest.mark.parametrize("t, message", [(1e4, "R > 3"), (math.nan, "must be finite")],
                         ids=["t-is-R-squared", "t-is-nan"])
def test_ratio_verifiers_refuse_points_outside_q_r3(t, message, p_half):
    R = 100.0
    for verify in (lambda: verify_ratio_c1(np.array([1.0]), t, R, 10, p_half),
                   lambda: verify_ratio_c2_c3(np.array([1.0]), t, R, 10, p_half),
                   lambda: verify_ratio_step2(t, R, 10, p_half)):
        with pytest.raises(ValueError, match=message):
            verify()


def test_ratio_step2_decay_improves_with_R(p_half):
    e_vals = []
    for R in (1e3, 1e4):
        reps = verify_ratio_step2(math.sqrt(R), R, 500, p_half)
        byname = {r.region: r for r in reps}
        e_vals.append(byname["E"].max_log_ratio)
    assert e_vals[1] < e_vals[0]
