import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from masterop import kernel_constants, kernel_decay_check, kernel_eval
from masterop.kernel import (
    KernelParams,
    NORMALIZED,
    RAW,
    decay_grid,
    fit_lambda,
    kernel_log_eval,
    kernel_log_ratio,
)


def raw_params(n, s):
    return kernel_constants(n, s, RAW)


def test_kernel_eval_origin_is_one_raw():
    p = raw_params(1, 0.5)
    assert kernel_eval(np.array([0.0]), 1.0, p) == pytest.approx(1.0, abs=1e-15)


def test_kernel_eval_exponential_factor():
    p = raw_params(1, 0.5)
    got = kernel_eval(np.array([2.0]), 1.0, p)
    assert got == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_kernel_eval_time_power_n2():
    p = raw_params(2, 0.5)
    got = kernel_eval(np.array([0.0, 0.0]), 4.0, p)
    assert got == pytest.approx(4.0 ** -2.5, rel=1e-14)
    assert got == pytest.approx(0.03125, rel=1e-14)


@pytest.mark.parametrize("dt", [0.0, -1.0])
def test_kernel_eval_rejects_nonpositive_duration(dt):
    p = kernel_constants(1, 0.5)
    with pytest.raises(ValueError):
        kernel_eval(np.array([0.0]), dt, p)


def test_kernel_underflows_to_exact_zero():
    p = kernel_constants(1, 0.5)
    assert kernel_eval(np.array([10.0]), 0.01, p) == 0.0
    # the log route still reports the exact exponent
    assert kernel_log_eval(np.array([10.0]), 0.01, p) < -2000


def test_kernel_positive_on_grid():
    p = kernel_constants(1, 0.5)
    rho, dt = decay_grid(grid=20)
    vals = kernel_eval(rho[..., None], dt, p)
    assert np.all(vals >= 0.0)
    assert np.all(vals[rho ** 2 < 100 * dt] > 0.0)


def test_constants_closed_forms():
    p = kernel_constants(1, 0.5)
    assert p.c_ns == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)
    assert p.C_s == pytest.approx(0.5 / math.sqrt(math.pi), rel=1e-12)
    assert p.C_s == pytest.approx(0.28209479177387814, rel=1e-12)
    assert p.C_ns_lap == pytest.approx(1.0 / math.pi, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_constants_positive_finite(n, s):
    for normalization in (RAW, NORMALIZED):
        p = kernel_constants(n, s, normalization)
        for v in (p.c_ns, p.C_s, p.C_ns_lap, p.Lambda):
            assert v > 0.0 and math.isfinite(v)
        assert p.Lambda >= p.constant


@pytest.mark.parametrize("bad_s", [0.0, 1.0, -0.3, 1.7, math.nan, 1e-310])
def test_constants_reject_bad_order(bad_s):
    with pytest.raises(ValueError):
        kernel_constants(1, bad_s)


@pytest.mark.parametrize("n, smallest", [(1, 1.971920364530142e-308),
                                         (2, 6.99027568758092e-308),
                                         (3, 2.477988212268801e-307)])
def test_smallest_order_keeps_the_constants_positive(n, smallest):
    # below it (4 pi)^{n/2} |Gamma(-s)| overflows and c_{n,s} would be 0
    with pytest.raises(ValueError, match="too small"):
        kernel_constants(n, math.nextafter(smallest, 0.0))
    for normalization in (RAW, NORMALIZED):
        p = kernel_constants(n, smallest, normalization)
        for v in (p.c_ns, p.C_s, p.C_ns_lap, p.Lambda):
            assert v > 0.0 and math.isfinite(v)


def test_constants_reject_bad_dimension():
    with pytest.raises(ValueError):
        kernel_constants(4, 0.5)


def test_marchaud_constant_exponential_identity(p_half, q_horizon):
    # d_t^s e^t = e^t pins C_s = s / Gamma(1-s)
    from masterop import marchaud
    from masterop.handles import GROWTH_DECAYING, temporal
    u = temporal(lambda tt: np.exp(tt), dim=1, growth=GROWTH_DECAYING)
    got = marchaud(u, 0.0, p_half, q_horizon)
    assert got.value == pytest.approx(1.0, rel=1e-6)


def test_decay_bound_full_grid(p_half):
    rho, dt = decay_grid()
    dx = rho[..., None]
    value, majorant, ok = kernel_decay_check(dx, dt, p_half)
    assert ok
    assert np.all(value <= majorant)


def test_decay_equality_at_origin():
    p = kernel_constants(1, 0.5)
    # rescaled to Lambda = c_ns the bound is tight at x = 0 up to the t-power split
    value, majorant, ok = kernel_decay_check(np.array([0.0]), 2.0, p)
    assert value * p.Lambda / p.c_ns == pytest.approx(majorant, rel=1e-14)
    assert ok


def test_decay_far_field_majorant_dominates(p_half):
    value, majorant, ok = kernel_decay_check(np.array([10.0]), 0.01, p_half)
    assert ok
    assert value < 1e-100
    assert majorant > value


def test_constants_follow_the_order():
    assert replace(kernel_constants(1, 0.5), s=0.3) == kernel_constants(1, 0.3)
    with pytest.raises(TypeError):
        KernelParams(n=1, s=0.5, Lambda=0.01)


def test_only_dimension_order_and_normalization_are_settable():
    assert [f.name for f in fields(KernelParams) if f.init] == ["n", "s", "normalization"]


def test_log_ratio_examples(p_half):
    assert kernel_log_ratio(np.array([1.0]), np.array([1.0]), 3.0, p_half) == 0.0
    got = kernel_log_ratio(np.array([0.0]), np.array([2.0]), 1.0, p_half)
    assert got == pytest.approx(1.0, rel=1e-15)


@given(a=st.floats(-50, 50), b=st.floats(-50, 50),
       dt=st.floats(1e-3, 1e3))
def test_log_ratio_antisymmetric(a, b, dt):
    p = kernel_constants(1, 0.5)
    lr = kernel_log_ratio(np.array([a]), np.array([b]), dt, p)
    rl = kernel_log_ratio(np.array([b]), np.array([a]), dt, p)
    assert lr == -rl


def test_log_ratio_matches_exponentiated_kernels(p_half):
    dx1, dx2, dt = np.array([1.0]), np.array([2.0]), 0.7
    lr = kernel_log_ratio(dx1, dx2, dt, p_half)
    ratio = kernel_eval(dx1, dt, p_half) / kernel_eval(dx2, dt, p_half)
    assert math.exp(lr) == pytest.approx(ratio, rel=1e-12)


def test_log_ratio_step1_slab_bound(rng, p_half):
    # with |x| <= R/3 and |y-x| <= delta (t-tau) the log ratio against the
    # origin kernel stays within delta (|x|/2 + 3 |x|^2 / 4)
    R = 1e4
    delta = R ** (-1.0 / 3.0)
    x = np.array([1.0])
    for _ in range(200):
        y = np.array([R * (1.0 + 3.0 * rng.uniform())])
        y *= rng.choice([-1.0, 1.0])
        a = abs(y[0] - x[0]) / delta * (1.0 + 10.0 * rng.uniform())
        lr = kernel_log_ratio(x - y, -y, a, p_half)
        assert abs(lr) <= delta * (0.5 + 0.75) + 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("dt", [0.25, 1.0, 9.0])
def test_spatial_integral_identity(n, dt):
    # int M(x, dt) dx = const (4 pi)^{n/2} dt^{-(1+s)}, by Gauss-Hermite
    # after the substitution x = 2 sqrt(dt) z
    from masterop.quadrature import _gh_tensor
    p = kernel_constants(n, 0.3)
    Z, W = _gh_tensor(24, n)
    xs = 2.0 * math.sqrt(dt) * Z
    vals = kernel_eval(xs, dt, p)
    got = float(np.dot(W, vals * np.exp(np.sum(Z * Z, axis=1)))) \
        * (2.0 * math.sqrt(dt)) ** n
    want = p.constant * (4.0 * math.pi) ** (n / 2.0) * dt ** (-(1.0 + p.s))
    assert got == pytest.approx(want, rel=1e-10)


def test_fitted_lambda_has_headroom():
    lam = fit_lambda(1, 0.5)
    lam_tight = fit_lambda(1, 0.5, headroom=0.0)
    assert lam == pytest.approx(lam_tight * 1.01, rel=1e-12)
    assert lam_tight >= kernel_constants(1, 0.5).c_ns
