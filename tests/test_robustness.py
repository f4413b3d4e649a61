"""Error paths and dimension edge cases across the package."""
import math

import numpy as np
import pytest

from masterop import (
    QuadSpec,
    SupportBox,
    constant,
    defect_estimate,
    fractional_laplacian,
    from_callable,
    kernel_constants,
    marchaud,
    master_op,
    phi_family,
    psi_family,
    spatial,
    tail_functional,
    temporal,
    w_family,
    zero,
)
from masterop.handles import (
    GROWTH_BOUNDED,
    GROWTH_DECAYING,
    GROWTH_FORWARD_POLY,
    FunctionHandle,
    combine,
    shifted,
)
from masterop.quadrature import integrate_difference, window_uM_integral


def test_handle_dimension_checks():
    with pytest.raises(ValueError, match="dimension"):
        FunctionHandle(evaluator=lambda p, t: t, dim=4)
    u = constant(1.0, 2)
    with pytest.raises(ValueError, match="dimension"):
        u(np.zeros((3, 1)), np.zeros(3))


def test_support_box_validation():
    with pytest.raises(ValueError):
        SupportBox(radius=-1.0)
    with pytest.raises(ValueError):
        SupportBox(radius=1.0, t_lo=2.0, t_hi=1.0)


def test_constant_rejects_non_finite():
    # the operator of a constant is an exact 0, which would hide a nan
    for v in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            constant(v, 1)


def test_kernel_function_dimension_mismatch(p_half, q_default):
    u = constant(1.0, 2)
    with pytest.raises(ValueError, match="dimension"):
        integrate_difference(u, (np.zeros(2), 0.0), p_half, q_default)


def test_nonfinite_point_rejected(p_half, q_default):
    u = w_family(4, 1.0, 0.5)
    with pytest.raises(ValueError, match="finite"):
        master_op(u, (np.array([math.inf]), 0.0), p_half, q_default)


def test_growth_marker_is_validated():
    with pytest.raises(ValueError, match="unknown growth marker 'decayin'"):
        temporal(np.exp, growth="decayin")


def test_fractional_laplacian_dimension_mismatch(p_half, q_default):
    # a 2-D profile under an n = 1 kernel
    with pytest.raises(ValueError, match="dimension"):
        fractional_laplacian(phi_family(4, 1.0, 1.0, dim=2), np.zeros(2), p_half, q_default)


def test_tail_functional_point_dimension_mismatch(p_half, q_default):
    with pytest.raises(ValueError, match="dimension"):
        tail_functional(w_family(4, 1.0, 0.5), (np.zeros(2), 0.0), 6.0, p_half, q_default)


def test_marchaud_rejects_nan_time(p_half, q_default):
    with pytest.raises(ValueError, match="finite"):
        marchaud(psi_family(4, 0.5, 1.0), math.nan, p_half, q_default)


def test_combine_validation():
    with pytest.raises(ValueError):
        combine([1.0], [])
    with pytest.raises(ValueError, match="dimension"):
        combine([1.0, 1.0], [constant(1.0, 1), constant(1.0, 2)])


def test_combine_keeps_the_weakest_declared_growth():
    # a support box without a time bound once dropped the marker, so the
    # full-space window of the combination was refused as unbounded
    cos = spatial(lambda pts: np.cos(pts[:, 0]), support=SupportBox(radius=math.inf))
    one = combine([1.0], [cos])
    assert one.growth == GROWTH_BOUNDED and one.past_integrable()
    p, at = kernel_constants(1, 0.5), (np.zeros(1), 0.1)
    bare = window_uM_integral(cos, at, p, QuadSpec(), 1.0, math.inf)
    assert bare.value > 0.0
    got = window_uM_integral(one, at, p, QuadSpec(), 1.0, math.inf)
    assert (got.value, got.err_estimate) == pytest.approx((bare.value, bare.err_estimate))
    decaying = temporal(lambda tt: np.exp(tt), growth=GROWTH_DECAYING)
    assert combine([1.0, 1.0], [decaying, cos]).growth == GROWTH_BOUNDED
    assert combine([1.0, 1.0], [cos, w_family(4, 1.0, 0.5)]).growth == GROWTH_FORWARD_POLY
    # psi declares no envelope: it vanishes before its time window
    assert combine([1.0, 1.0], [decaying, psi_family(4, 1.0, 1.0)]).growth == GROWTH_DECAYING
    unbounded = temporal(lambda tt: tt)
    assert combine([1.0, 1.0], [cos, unbounded]).growth is None


def test_shifted_preserves_values():
    u = w_family(4, 1.0, 0.5)
    v = shifted(u, np.array([2.0]), 1.0)
    assert v.at(np.array([10.0]), 0.5) == pytest.approx(
        u.at(np.array([8.0]), -0.5), rel=1e-14)
    assert v.time_kinks == (1.0,)


def test_n2_defect_machinery():
    # the tail functional and the defect are dimension-agnostic up to n = 3
    p = kernel_constants(2, 0.5)
    q = QuadSpec()
    w8 = w_family(8, 1.0, 0.5, n=2)
    at = (np.zeros(2), 0.0)
    m = master_op(w8, at, p, q)
    assert m.value == pytest.approx(-1.0, abs=5e-2)
    F = tail_functional(w8, at, 10.0, p, q)
    assert F.value == pytest.approx(-m.value, rel=1e-3)
    probes = [(np.zeros(2), 0.0), (np.array([0.5, -0.5]), 0.5)]
    rep = defect_estimate(lambda j: w_family(j, 1.0, 0.5, n=2), zero(2),
                          probes, [6.0, 12.0], [4, 8, 16], p, q)
    assert rep.converged
    assert rep.b_estimate == pytest.approx(1.0, abs=5e-2)


def test_n3_master_symbol():
    p = kernel_constants(3, 0.5)
    q = QuadSpec(horizon=40.0, gh_order=16)
    u = from_callable(lambda pts, tt: np.exp(tt) * np.cos(pts[:, 0]), 3,
                      growth="decaying")
    r = master_op(u, (np.zeros(3), 0.0), p, q)
    assert r.value == pytest.approx(math.sqrt(2.0), rel=1e-3)


def test_defect_jobs_matches_serial(p_half, q_default):
    probes = [(np.zeros(1), 0.0), (np.array([1.0]), 1.0)]
    kw = dict(p=p_half, q=q_default)
    a = defect_estimate(lambda j: w_family(j, 1.0, 0.5), zero(1), probes,
                        [6.0, 12.0], [8, 16], jobs=1, **kw)
    b = defect_estimate(lambda j: w_family(j, 1.0, 0.5), zero(1), probes,
                        [6.0, 12.0], [8, 16], jobs=4, **kw)
    assert a.samples == b.samples
    assert a.converged and b.converged
    assert a.b_estimate == b.b_estimate
