"""The declared frozen past: its propagation, and the shell rules that evaluate
u once where it has stopped changing in time."""
import dataclasses
import math

import numpy as np
import pytest

from masterop import (
    FunctionHandle,
    QuadSpec,
    constant,
    from_callable,
    kernel_constants,
    phi_family,
    psi_family,
    rescale,
    spatial,
    tail_functional,
    temporal,
    w_family,
    zero,
)
from masterop import quadrature
from masterop.funcdsl import parse, to_handle
from masterop.handles import NumericError, combine, shifted


# --- propagation of the declaration --------------------------------------------

def test_constructors_declare_the_frozen_past():
    w = w_family(4, 1.0, 0.5, n=2)
    assert w.frozen_until == 0.0
    assert spatial(lambda pts: pts[:, 0]).frozen_until == math.inf
    assert phi_family(4, 1.0, 1.0).frozen_until == math.inf
    assert constant(2.0, 2).frozen_until == math.inf and zero(3).frozen_until == math.inf
    assert temporal(lambda tt: tt).frozen_until is None
    assert psi_family(4, 1.0, 1.0).frozen_until is None
    assert from_callable(lambda pts, tt: tt, 1).frozen_until is None


def test_rescale_and_shifted_map_the_frozen_past_like_a_kink():
    w = w_family(4, 1.0, 0.5, n=2)
    # v(x, t) = u(3 x, 9 t - 1) is frozen while 9 t - 1 <= 0
    assert rescale(w, 2.0, 3.0, np.zeros(2), -1.0).frozen_until == pytest.approx(1.0 / 9.0)
    assert shifted(w, np.array([0.0, 0.3]), 1.5).frozen_until == 1.5
    assert shifted(phi_family(4, 1.0, 1.0), np.ones(1), 2.0).frozen_until == math.inf


def test_combine_takes_the_earliest_frozen_past():
    w = w_family(4, 1.0, 0.5)
    assert combine([1.0, -2.0], [shifted(w, np.zeros(1), 1.5), w]).frozen_until == 0.0
    assert combine([1.0, 1.0], [w, phi_family(4, 1.0, 1.0)]).frozen_until == 0.0
    assert combine([1.0, 1.0], [w, psi_family(4, 1.0, 1.0)]).frozen_until is None


def test_dsl_family_atom_inherits_the_frozen_past():
    assert to_handle(parse("w(8,1)"), 2, s=0.5).frozen_until == 0.0
    assert to_handle(parse("phi(4,1,1)"), 1, growth="bounded").frozen_until == math.inf
    assert to_handle(parse("2*w(8,1)"), 2, s=0.5).frozen_until is None
    assert to_handle(parse("3"), 1).frozen_until == math.inf


def test_frozen_until_nan_is_refused():
    with pytest.raises(ValueError, match="frozen_until"):
        FunctionHandle(evaluator=lambda pts, tt: tt, dim=1, frozen_until=math.nan)


# --- the shell rules ------------------------------------------------------------

@pytest.mark.parametrize("n, x_bar", [(1, None), (2, None), (3, None), (2, (1.5, 0.0))],
                         ids=["n1-radial", "n2-radial", "n3-radial", "n2-tensor"])
def test_tail_functional_evaluates_a_frozen_past_once_per_rule(n, x_bar, monkeypatch):
    # the frozen past is one radial integral against the kernel's closed-form
    # time integral, the undeclared one a time mesh of shells, so the two
    # values agree within their estimates, not to the last bit.  At t = -0.3
    # the near window is frozen whole, at t = 0.5 only beyond a = 0.5 (the
    # kernel reaches r = 6 from a = 5.7^2 / 200 = 0.16 on)
    u = w_family(4, 1.0, 0.5, n=n)
    if x_bar is not None:
        u = shifted(u, np.array(x_bar), 0.0)
    assert u.radial == (x_bar is None)
    # every moving shell block ends in one _row_dots over its kernel's elements
    formed, row_dots = [0], quadrature._row_dots

    def counting(m, w):
        formed[0] += m.size
        return row_dots(m, w)

    monkeypatch.setattr(quadrature, "_row_dots", counting)
    for t in (-0.3, 0.5):
        args = ((np.full(n, 0.3), t), 6.0, kernel_constants(n, 0.5), QuadSpec())
        formed[0] = 0
        frozen = tail_functional(u, *args)
        frozen_formed, formed[0] = formed[0], 0
        moving = tail_functional(dataclasses.replace(u, frozen_until=None), *args)
        assert frozen.value > 0.0
        assert abs(frozen.value - moving.value) <= frozen.err_estimate + moving.err_estimate, t
        assert frozen.nodes_used < moving.nodes_used
        assert frozen_formed < formed[0]
        assert (frozen_formed == 0) == (t < 0.0)


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "moving"])
def test_nan_in_the_hole_of_u_stops_the_tail_functional(frozen):
    # the kernel skips the columns where u is 0, but a NaN is not 0: with
    # its hole |y| < 32 undeclared, u is still evaluated at |y| < 20, and
    # the evaluation refuses it
    base = w_family(16, 1.0, 0.5, n=2)

    def evaluator(pts, tt):
        vals = base.evaluator(pts, tt)
        return np.where(np.linalg.norm(pts, axis=-1) < 20.0, math.nan, vals)

    u = dataclasses.replace(base, evaluator=evaluator,
                            support=dataclasses.replace(base.support, inner=0.0),
                            frozen_until=base.frozen_until if frozen else None)
    with pytest.raises(NumericError, match="non-finite value of u"):
        tail_functional(u, (np.full(2, 0.3), 0.1), 6.0, kernel_constants(2, 0.5), QuadSpec())
