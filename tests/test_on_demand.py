"""Partitions and rate bounds are arrays; ``FrequencyBand`` and ``RateBound``
objects are built only where the public API hands one out.

No build, solve or report path builds one, and the worst-bound check over
the bounds record picks the same band and value as a ``max`` over
``RateBound`` objects with a Python key.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shannop as sp
from shannop.bands import FrequencyBand
from shannop.errors import BoundViolationError
from shannop.generate import random_field
from shannop.precond import RateBound, RateBounds, given_entries, leray_sampled
from shannop.solver import _check_bounds


def refuse(self, *args, **kwargs):
    raise AssertionError(f"a {type(self).__name__} was built")


def test_no_band_or_bound_object_on_build_solve_and_report_paths(monkeypatch):
    monkeypatch.setattr(FrequencyBand, "__init__", refuse)
    monkeypatch.setattr(RateBound, "__init__", refuse)
    grid = sp.GridSpec((16, 16, 16))
    part = sp.refine_packet(sp.build_tensorial_partition(grid), 2)
    sp.refine_packet(sp.build_mra_partition(grid), 2)
    sp.dump_partition(part)

    sym = sp.ImplicitLaplacian(1e6)
    pc = sp.implicit_laplacian_precond(1e6, part)
    sp.implicit_laplacian_precond(1e6, part, mode_exact=True)
    sp.scalar_optimal(sym, part)
    given_entries(sym, part, pc.entries)
    pc.with_scaled_entry(part.ids[0], 0.5)
    leray_sampled(part)
    _, report = sp.richardson_solve(sym, pc, random_field(grid, 1, seed=1))
    report.to_json()
    _, _, report = sp.helmholtz_decompose(random_field(grid, 3, seed=2), part)
    report.to_json()

    spec = sp.forward_transform(random_field(grid, 2, seed=3))
    banded = sp.analyze(spec, part)
    banded.total_energy()
    sp.synthesize(banded)
    sp.synthesize(sp.apply_lemarie_derivative(banded, 1))
    sp.apply_lemarie_integral(banded, 2)

    # The patches hold: the on-demand paths do build objects.
    with pytest.raises(AssertionError, match="FrequencyBand"):
        part.band(part.ids[0])
    with pytest.raises(AssertionError, match="RateBound"):
        pc.rate_bounds()


def max_over_a_key(bounds: list, strict: bool) -> float:
    """The worst-bound check as a max over ``RateBound`` objects: a
    non-finite bound counts as the worst, and of equals the first wins."""

    def key(rb):
        return rb.rho if math.isfinite(rb.rho) else math.inf

    worst = max(bounds, key=key)
    if strict and key(worst) >= 1.0:
        raise BoundViolationError(worst.band_id, worst.rho)
    return worst.rho


def outcome(check, bounds, strict):
    """(band id named, rho) of a refusal, or (None, the returned value)."""
    try:
        return None, check(bounds, strict)
    except BoundViolationError as exc:
        return exc.band_id, exc.rho


rho_values = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 2.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(rho=st.lists(rho_values, min_size=1, max_size=12), strict=st.booleans())
def test_check_bounds_matches_a_max_over_a_python_key(rho, strict):
    n = len(rho)
    ids = [(i, (i % 3,)) for i in range(n)]
    bounds = RateBounds(ids, np.ones(n), np.full(n, 2.0), np.array(rho), ["f"] * n)
    got_id, got = outcome(_check_bounds, bounds, strict)
    want_id, want = outcome(max_over_a_key, bounds.tolist(), strict)
    assert got_id == want_id
    assert type(got) is float
    assert got == want or (math.isnan(got) and math.isnan(want))


@settings(max_examples=20, deadline=None)
@given(
    exps=st.integers(1, 3).flatmap(lambda d: st.tuples(*[st.integers(2, 5)] * d)),
    depth=st.integers(0, 2),
    alpha=st.sampled_from([1.0, 1e6]),
)
def test_a_record_built_from_rate_bounds_gives_the_same_list_back(exps, depth, alpha):
    grid = sp.GridSpec(tuple(2**e for e in exps))
    part = sp.refine_packet(sp.build_tensorial_partition(grid), depth)
    pc = sp.implicit_laplacian_precond(alpha, part)
    scaled = pc.with_scaled_entry(part.ids[-1], 1.5)
    lists = [pc.rate_bounds(), scaled.rate_bounds()]
    if grid.dim > 1:
        lists.append(sp.leray_rate_bounds(part))
    for listed in lists:
        record = RateBounds(
            [rb.band_id for rb in listed],
            np.array([rb.a for rb in listed]),
            np.array([rb.b for rb in listed]),
            np.array([rb.rho for rb in listed]),
            [rb.formula for rb in listed],
        )
        assert record.tolist() == listed
