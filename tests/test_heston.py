"""Characteristic function, gradient and cumulant checks.

The finite-difference and Monte Carlo comparisons here are deliberately
independent of the closed forms they validate.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swiftcal import (
    ChfOverflowError,
    HestonParams,
    MarketContext,
    chf_cui,
    chf_with_gradient,
    cumulants,
)
from swiftcal import heston
from swiftcal.fixtures import PARAM_SETS
from swiftcal.heston import (
    chf_cui_parts,
    chf_gradient_from_parts,
    chf_grid_terms,
)

from conftest import five_point_grad, textbook_cosh
from oracles import chf_schoutens


def heston_box(draw):
    """Draw parameters from a box around the tested regimes."""
    return HestonParams(
        kappa=draw(st.floats(0.2, 5.0)),
        v_bar=draw(st.floats(0.01, 0.5)),
        sigma=draw(st.floats(0.05, 1.5)),
        rho=draw(st.floats(-0.95, 0.95)),
        v0=draw(st.floats(0.01, 0.5)),
    )


def test_normalization_exact(theta1, theta2, ctx):
    for th in (theta1, theta2):
        for tau in (0.04, 1.0, 45.0):
            assert chf_cui(0.0, tau, th, ctx) == 1.0 + 0.0j
            assert chf_schoutens(0.0, tau, th, ctx) == 1.0 + 0.0j


def test_martingale_identity(theta1, ctx):
    # E[e^z | x] = e^{(r-q) tau} reads fhat(i) = e^{(r-q) tau}
    for tau in (0.04, 0.5, 2.0, 10.0):
        assert abs(chf_cui(1j, tau, theta1, ctx) - 1.0) < 1e-10
    ctx_r = MarketContext(spot=100.0, rate=0.03, dividend=0.01)
    for tau in (0.5, 5.0):
        want = np.exp(0.02 * tau)
        assert abs(chf_cui(1j, tau, theta1, ctx_r) - want) < 1e-10 * want


def test_hermitian_symmetry(theta1, ctx):
    u = np.linspace(0.05, 80.0, 64)
    plus = chf_cui(u, 0.7, theta1, ctx)
    minus = chf_cui(-u, 0.7, theta1, ctx)
    assert np.max(np.abs(minus - np.conj(plus))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_form_equivalence_property(data, ctx):
    th = heston_box(data.draw)
    u = data.draw(st.floats(0.01, 80.0))
    tau = data.draw(st.floats(0.02, 2.0))
    a = chf_cui(u, tau, th, ctx)
    b = chf_schoutens(u, tau, th, ctx)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_form_equivalence_long_maturity(theta1, stress_theta, ctx):
    u = np.linspace(0.05, 30.0, 50)
    for th in (theta1, stress_theta):
        a = chf_cui(u, 45.0, th, ctx)
        b = chf_schoutens(u, 45.0, th, ctx)
        assert np.max(np.abs(a - b)) < 1e-10


def test_cross_form_example(theta1, ctx):
    a = chf_cui(2.0, 0.5, theta1, ctx)
    b = chf_schoutens(2.0, 0.5, theta1, ctx)
    assert abs(a - b) < 1e-12


def test_naive_form_overflows_long_maturity(theta1, ctx):
    # the very failure mode the stabilized evaluation exists to remove: the
    # textbook form's cosh(d tau/2) leaves double range at u = 402
    u = np.array([200.0, 402.0])
    assert not np.isfinite(textbook_cosh(402.0, 45.0, theta1))
    stab = chf_cui(u, 45.0, theta1, ctx)
    assert np.all(np.isfinite(stab))


def test_naive_and_stabilized_agree_when_finite(theta1, ctx):
    # where every form is finite, the stabilized compact form matches the
    # independent branch-cut-free one
    u = np.linspace(0.1, 20.0, 40)
    reference = chf_schoutens(u, 2.0, theta1, ctx)
    stab = chf_cui(u, 2.0, theta1, ctx)
    assert np.max(np.abs(reference - stab)) < 1e-13


def test_gradient_zero_at_zero_frequency(theta1, ctx):
    value, grad = chf_with_gradient(0.0, 1.0, theta1, ctx)
    assert value == 1.0 + 0.0j
    assert grad.shape == (5,) and np.all(grad == 0.0)
    # and mixed arrays keep exact zeros in the right slot
    value, grad = chf_with_gradient(np.array([0.0, 1.0]), 1.0, theta1, ctx)
    assert value[0] == 1.0 + 0.0j
    assert np.all(grad[:, 0] == 0.0)
    assert np.all(np.abs(grad[:, 1]) > 0.0)


@pytest.mark.parametrize("tau", [0.5, 45.0])
@pytest.mark.parametrize("u", [1.3, 7.7])
def test_gradient_matches_finite_differences(theta1, ctx, tau, u):
    _, grad = chf_with_gradient(np.array([u]), tau, theta1, ctx)
    base = theta1.as_array()
    for i in range(5):
        fd = five_point_grad(
            lambda v: np.array([chf_cui(u, tau, HestonParams.from_array(v), ctx)]),
            base, i, rel_step=1e-3)[0]
        denom = max(abs(fd), 1e-12)
        assert abs(grad[i, 0] - fd) / denom < 1e-6


def test_gradient_randomized_grid(ctx):
    rng = np.random.default_rng(11)
    base_th = np.array([0.08, 0.1, 0.25, 3.0, -0.8])  # (v0, v_bar, sigma, kappa, rho)
    worst, checked = 0.0, 0
    while checked < 20:
        vec = base_th * rng.uniform(0.7, 1.3, 5)
        vec[4] = np.clip(vec[4], -0.95, 0.95)
        th = HestonParams.from_array(vec)
        u = rng.uniform(0.1, 50.0)
        tau = rng.uniform(0.05, 5.0)
        value, grad = chf_with_gradient(np.array([u]), tau, th, ctx)
        if abs(value[0]) < 1e-10:
            # the transform decays exponentially in u and tau; once it nears
            # the double-precision floor the FD stencil spans many e-folds of
            # the exponent and stops being a usable oracle
            continue
        checked += 1
        for i in range(5):
            fd = five_point_grad(
                lambda v: np.array([chf_cui(u, tau, HestonParams.from_array(v), ctx)]),
                vec, i, rel_step=1e-4)[0]
            rel = abs(grad[i, 0] - fd) / max(abs(fd), 1e-14)
            worst = max(worst, rel)
    assert worst < 1e-6

    # the largest grid a set2 fit to fx sweeps: m = 9, J_d = 16384.  Here
    # |h_i| runs from 1e-6 near u = 0 to 1e3 at the tail, so the error is
    # taken relative to max(|fd|, |fhat|): the log-derivative h_i to 1e-6
    # relative, or 1e-6 absolute where it is below one (the stencil's own
    # roundoff near u = 0)
    fx, tau, m, j_d = PARAM_SETS["fx"], 0.595238095238095, 9, 16384
    u = np.pi * (2 * np.arange(1, j_d + 1) - 1) / (2 * j_d) * 2.0**m
    value, grad = chf_with_gradient(u, tau, fx, ctx)
    keep = np.abs(value) >= 1e-10
    assert keep.sum() > 10000
    for i in range(5):
        fd = five_point_grad(
            lambda v: chf_cui(u[keep], tau, HestonParams.from_array(v), ctx),
            fx.as_array(), i, rel_step=1e-5)
        err = np.abs(grad[i, keep] - fd) / np.maximum(np.abs(fd), np.abs(value[keep]))
        assert err.max() < 1e-6, (i, err.max())


def test_log_b_matches_two_log_form(ctx):
    # log B is evaluated as -log|1 + z| plus two separate arguments; it must
    # agree with log d - log q + (kappa - d) tau/2 taken literally, branch
    # included, on real and complex frequencies (u + 2i, u < 0, puts q in
    # the left half-plane for some parameter sets)
    rng = np.random.default_rng(5)
    worst, left = 0.0, 0
    for _ in range(300):
        th = HestonParams(kappa=rng.uniform(0.05, 5.0), v_bar=rng.uniform(0.01, 0.5),
                          sigma=rng.uniform(0.01, 2.0), rho=rng.uniform(-0.99, 0.99),
                          v0=rng.uniform(0.01, 0.5))
        tau = rng.choice([0.04, 0.5, 2.0, 10.0, 45.0])
        u = rng.uniform(0.0, 300.0, 40)
        u = np.concatenate([u, -u + 1j, rng.uniform(-300.0, 300.0, 40) + 2j])
        try:
            _, ((_, _, xi, _, d, decay, _, _, big_d),) = chf_cui_parts(u, tau, th, ctx)
        except ChfOverflowError:
            continue
        q = (d + xi) / 2.0 + (d - xi) * decay / 2.0
        direct = np.log(d) + (th.kappa - d) * tau / 2.0 - np.log(q)
        worst = max(worst, np.max(np.abs(big_d - direct) / np.maximum(np.abs(direct), 1.0)))
        left += int(np.sum(q.real < 0.0))
    assert left > 0
    assert worst < 1e-12


def test_chf_parts_with_grid_terms_bitwise(ctx):
    u = np.linspace(0.0, 300.0, 1001)
    grid = chf_grid_terms(u)
    for name in ("theta1", "fx", "eq"):
        th = PARAM_SETS[name]
        value, parts = chf_cui_parts(u, 1.3, th, ctx)
        value_g, parts_g = chf_cui_parts(u, 1.3, th, ctx, grid)
        assert np.array_equal(value, value_g)
        assert all(np.array_equal(a, b) for a, b in zip(parts, parts_g))
        assert np.array_equal(chf_gradient_from_parts(1.3, th, value, parts),
                              chf_gradient_from_parts(1.3, th, value_g, parts_g))


def test_chf_parts_with_tau_vector_bitwise(ctx):
    # one sweep over several maturities' grids, one tau per frequency, is the
    # per-maturity sweeps side by side: packed pricers rely on it bit for bit
    grids = [(0.12, np.linspace(0.0, 80.0, 257)), (1.3, np.linspace(0.5, 300.0, 1024)),
             (45.0, np.linspace(0.1, 20.0, 64))]
    u = np.concatenate([g for _, g in grids])
    tau = np.concatenate([np.full(g.size, t) for t, g in grids])
    for name in ("theta1", "fx", "ir", "eq", "stress"):
        th = PARAM_SETS[name]
        value, parts = chf_cui_parts(u, tau, th, ctx, chf_grid_terms(u))
        grad = chf_gradient_from_parts(tau, th, value, parts)
        start = 0
        for t, g in grids:
            cols = slice(start, start + g.size)
            value_t, parts_t = chf_cui_parts(g, t, th, ctx)
            assert np.array_equal(value[cols], value_t), (name, t)
            assert np.array_equal(grad[:, cols],
                                  chf_gradient_from_parts(t, th, value_t, parts_t)), (name, t)
            start = cols.stop


@pytest.mark.parametrize("m,j_d", [(9, 16384), (10, 32768)])
def test_chf_blocks_from_16384_frequencies_bitwise(ctx, m, j_d):
    # a small fx grid packed with a large one: from 256 KiB on numpy may
    # evaluate a product with a temporary in place, operands swapped, so
    # the chf writes those products with an explicit operand order
    grids = [(0.12, 6, 1024), (1.43, m, j_d)]
    freqs = [np.pi * (2 * np.arange(1, n + 1) - 1) / (2 * n) * 2.0**s
             for _, s, n in grids]
    u = np.concatenate(freqs)
    tau = np.concatenate([np.full(n, t) for t, _, n in grids])
    th = PARAM_SETS["fx"]
    value, parts = chf_cui_parts(u, tau, th, ctx)
    grad = chf_gradient_from_parts(tau, th, value, parts)
    start = 0
    for (t, _, n), g in zip(grids, freqs):
        cols = slice(start, start + n)
        value_t, parts_t = chf_cui_parts(g, t, th, ctx)
        assert np.array_equal(value[cols], value_t), t
        assert np.array_equal(grad[:, cols],
                              chf_gradient_from_parts(t, th, value_t, parts_t)), t
        start = cols.stop


@pytest.mark.parametrize("n", [8191, 8192, 16383, 16384, 16385, 47104])
def test_chunked_sweep_bitwise_one_chunk(ctx, monkeypatch, n):
    # a sweep split across threads is the one-chunk sweep bit for bit, for
    # a scalar and a per-frequency tau, with u = 0 (exact-zero gradient) in
    # the first chunk; a patched CPU count forces the split on a one-CPU host too
    u = np.linspace(0.0, 400.0, n)
    for name in ("fx", "ir", "eq"):
        th = PARAM_SETS[name]
        for tau in (1.3, np.linspace(0.05, 10.0, n)):
            out = {}
            for cap in (1, 4):
                monkeypatch.setattr(heston, "_usable_cpus", lambda: cap)
                value, parts = chf_cui_parts(u, tau, th, ctx)
                out[cap] = (value, chf_gradient_from_parts(tau, th, value, parts))
                assert len(parts) == (1 if cap == 1 else
                                      max(1, min(4, n // heston._CHUNK_FLOOR)))
                assert sum(chunk[0].size for chunk in parts) == n
            assert out[4][0].tobytes() == out[1][0].tobytes(), (n, name)
            assert out[4][1].tobytes() == out[1][1].tobytes(), (n, name)
            assert np.all(out[4][1][:, 0] == 0.0)


def test_concurrent_split_sweeps_keep_their_own_chunks(ctx, monkeypatch):
    # several caller threads split sweeps over the one executor at once, with
    # frequent thread switches: every result is its serial sweep bit for bit
    u = np.linspace(0.0, 300.0, 32768)
    thetas = [PARAM_SETS[name] for name in ("fx", "ir", "eq", "theta2", "stress")]
    monkeypatch.setattr(heston, "_usable_cpus", lambda: 1)
    want = []
    for th in thetas:
        value, parts = chf_cui_parts(u, 1.3, th, ctx)
        want.append((value, chf_gradient_from_parts(1.3, th, value, parts)))
    monkeypatch.setattr(heston, "_usable_cpus", lambda: 3)
    got = [None] * len(thetas)

    def sweep(k):
        for _ in range(3):
            value, parts = chf_cui_parts(u, 1.3, thetas[k], ctx)
            got[k] = (value, chf_gradient_from_parts(1.3, thetas[k], value, parts))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sweep, args=(k,)) for k in range(len(thetas))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (gv, gg), (wv, wg) in zip(got, want):
        assert gv.tobytes() == wv.tobytes() and gg.tobytes() == wg.tobytes()


def test_overflow_in_a_worker_chunk_is_raised_in_the_caller(ctx, monkeypatch):
    # the first chunk runs on a worker thread, the last on the caller: only
    # the first overflows here (E[(S_T/S_t)^a] explodes at u = a i, large a)
    monkeypatch.setattr(heston, "_usable_cpus", lambda: 2)
    th = PARAM_SETS["theta1"]
    u = np.linspace(0.0, 100.0, 32768).astype(np.complex128)
    u[:16384] = 500j
    with pytest.raises(ChfOverflowError):
        chf_cui_parts(u, 10.0, th, ctx)
    assert np.all(np.isfinite(chf_cui_parts(u[16384:], 10.0, th, ctx)[0]))


def test_underflowing_squares_are_named_failures(ctx):
    # a sigma whose square underflows leaves 2 kappa v_bar / sigma^2 without
    # a float value: the value and the gradient raise ChfOverflowError, not
    # ZeroDivisionError.  A kappa whose square underflows gives a non-finite
    # c2 without a numpy warning; swift.interval_params refuses it.
    u = np.linspace(0.5, 50.0, 64)
    flat = HestonParams(kappa=1.5, v_bar=0.04, sigma=1e-200, rho=-0.5, v0=0.04)
    with pytest.raises(ChfOverflowError, match="sigma = 1e-200 squares to zero"):
        chf_cui(u, 1.0, flat, ctx)
    value, parts = chf_cui_parts(u, 1.0, PARAM_SETS["theta1"], ctx)
    with pytest.raises(ChfOverflowError, match="squares to zero"):
        chf_gradient_from_parts(1.0, flat, value, parts)
    slow = HestonParams(kappa=1e-200, v_bar=0.04, sigma=0.5, rho=-0.5, v0=0.04)
    c1, c2 = cumulants(slow, 1.0, ctx)
    assert np.isfinite(c1) and not np.isfinite(c2)


def test_continuity_in_u_long_maturity(stress_theta, ctx):
    # a branch-cut jump would survive step refinement; smooth growth halves
    tau = 45.0
    diffs = {}
    for n in (2001, 4001):
        u = np.linspace(0.0, 500.0, n)
        vals = chf_cui(u, tau, stress_theta, ctx)
        diffs[n] = np.max(np.abs(np.diff(vals)))
    assert diffs[4001] <= 0.6 * diffs[2001] + 1e-12


def test_cumulants_deterministic_variance_limit(ctx):
    th = HestonParams(kappa=1.0, v_bar=0.04, sigma=1e-8, rho=0.0, v0=0.04)
    c1, c2 = cumulants(th, 1.0, ctx)
    assert abs(c2 - 0.04) < 1e-9
    assert abs(c1 + 0.02) < 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_c2_nonnegative_property(data, ctx):
    th = heston_box(data.draw)
    tau = data.draw(st.floats(0.01, 50.0))
    _, c2 = cumulants(th, tau, ctx)
    assert c2 >= 0.0


def test_cumulants_match_transform_derivatives(ctx):
    # -2 Re log fhat(h) / h^2 -> c2, -Im log fhat(h) / h -> c1
    for name, th in (
        ("fx", HestonParams(kappa=0.5, v_bar=0.04, sigma=1.0, rho=-0.9, v0=0.04)),
        ("eq", HestonParams(kappa=1.0, v_bar=0.09, sigma=1.0, rho=0.04, v0=0.09)),
        ("t2", HestonParams(kappa=1.5768, v_bar=0.0398, sigma=0.0175,
                            rho=-0.5711, v0=0.0175)),
    ):
        for tau in (0.119047619047619, 1.0, 45.0):
            c1, c2 = cumulants(th, tau, ctx)
            # pick h so the quadratic term is well above double-precision
            # noise in log fhat while Richardson still cancels the h^2 term
            h = np.sqrt(2e-4 / max(c2, 1e-12))
            lf1 = np.log(chf_cui(h, tau, th, ctx))
            lf2 = np.log(chf_cui(2 * h, tau, th, ctx))
            c1_num = (4.0 * (-np.imag(lf1) / h)
                      - (-np.imag(lf2) / (2 * h))) / 3.0
            c2_num = (4.0 * (-2.0 * np.real(lf1) / h**2)
                      - (-2.0 * np.real(lf2) / (2 * h)**2)) / 3.0
            assert abs(c1 - c1_num) < 1e-5 * max(1.0, abs(c1)), name
            assert abs(c2 - c2_num) < 1e-4 * max(1e-3, c2), name


def test_c1_against_monte_carlo(theta2, ctx):
    # Euler full-truncation simulation of the two-factor dynamics
    rng = np.random.default_rng(2024)
    tau, n_paths, n_steps = 1.0, 1_000_000, 256
    dt = tau / n_steps
    v = np.full(n_paths, theta2.v0)
    log_s = np.zeros(n_paths)
    sq_dt = np.sqrt(dt)
    for _ in range(n_steps):
        z1 = rng.standard_normal(n_paths)
        z2 = theta2.rho * z1 + np.sqrt(1 - theta2.rho**2) * rng.standard_normal(n_paths)
        v_pos = np.maximum(v, 0.0)
        sq_v = np.sqrt(v_pos)
        log_s += -0.5 * v_pos * dt + sq_v * sq_dt * z1
        v = v + theta2.kappa * (theta2.v_bar - v_pos) * dt + theta2.sigma * sq_v * sq_dt * z2
    c1, c2 = cumulants(theta2, tau, ctx)
    mc_mean = log_s.mean()
    se = log_s.std(ddof=1) / np.sqrt(n_paths)
    assert abs(mc_mean - c1) < 3.0 * se
    # second moment for free, looser band (Euler bias)
    assert abs(log_s.var(ddof=1) - c2) < max(5.0 * c2 / np.sqrt(n_paths) * 2, 1e-4)


def test_parameter_validation():
    with pytest.raises(ValueError):
        HestonParams(kappa=-1.0, v_bar=0.1, sigma=0.2, rho=0.0, v0=0.05)
    with pytest.raises(ValueError):
        HestonParams(kappa=1.0, v_bar=0.1, sigma=0.2, rho=-1.5, v0=0.05)
    with pytest.raises(ValueError):
        MarketContext(spot=-10.0)
    # a NaN or infinity never gets in to run silently
    base = dict(kappa=1.0, v_bar=0.1, sigma=0.2, rho=0.0, v0=0.05)
    for name in base:
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                HestonParams(**{**base, name: bad})
    for name in ("spot", "rate", "dividend"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=name):
                MarketContext(**{"spot": 1.0, name: bad})


def test_param_vector_round_trip(theta1):
    vec = theta1.as_array()
    assert np.array_equal(vec, [theta1.v0, theta1.v_bar, theta1.sigma,
                                theta1.kappa, theta1.rho])
    assert HestonParams.from_array(vec) == theta1
