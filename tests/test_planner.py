import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reuseguard.errors import InfeasibleError
from reuseguard.planner import (
    DEFAULT_REUSE_CURVE,
    LatencyModel,
    ReuseCurve,
    TRUSTED_MODEL,
    UNTRUSTED_MODEL,
    fit_model,
    format_coeffs_file,
    format_samples_file,
    optimize,
    parse_coeffs_file,
    parse_curve_file,
    parse_samples_file,
    predict_time,
    reuse_probability,
    tdr,
)


def test_reuse_probability_at_anchors():
    assert reuse_probability(DEFAULT_REUSE_CURVE, 1) == 0.343
    assert reuse_probability(DEFAULT_REUSE_CURVE, 10) == pytest.approx(0.409, abs=1e-9)
    assert reuse_probability(DEFAULT_REUSE_CURVE, 1000) == pytest.approx(0.4527, abs=1e-9)


def test_reuse_probability_clamps():
    assert reuse_probability(DEFAULT_REUSE_CURVE, 0.2) == 0.343
    assert reuse_probability(DEFAULT_REUSE_CURVE, 10**9) == 0.4677


def test_reuse_probability_log_interpolation():
    # Halfway in log space between anchors 10 and 100.
    x = math.sqrt(10 * 100)
    expected = (0.409 + 0.4305) / 2
    assert reuse_probability(DEFAULT_REUSE_CURVE, x) == pytest.approx(expected, abs=1e-9)


@given(st.floats(min_value=1.0, max_value=5000.0),
       st.floats(min_value=1.0, max_value=5000.0))
def test_reuse_probability_monotone(a, b):
    lo, hi = sorted((a, b))
    assert reuse_probability(DEFAULT_REUSE_CURVE, lo) <= \
        reuse_probability(DEFAULT_REUSE_CURVE, hi)


def test_curve_validation():
    with pytest.raises(ValueError):
        ReuseCurve(((1.0, 0.3),))
    with pytest.raises(ValueError):
        ReuseCurve(((2.0, 0.3), (1.0, 0.4)))
    with pytest.raises(ValueError):
        ReuseCurve(((1.0, 0.5), (2.0, 0.4)))
    with pytest.raises(ValueError):
        ReuseCurve(((1.0, 0.5), (2.0, 1.4)))


def test_tdr_reference_values():
    assert tdr(0.343, 1) == pytest.approx(0.343)
    assert tdr(0.77, 0) == 0.0
    assert tdr(0.343, 10) == pytest.approx(0.985, abs=1e-3)


def test_predict_time_reference_values():
    assert predict_time(TRUSTED_MODEL, 10, 1) == pytest.approx(0.01922, abs=1e-5)
    assert predict_time(UNTRUSTED_MODEL, 3, 10) == pytest.approx(1.6188, abs=1e-4)
    assert predict_time(UNTRUSTED_MODEL, 3, 10) <= 1.62
    assert predict_time(TRUSTED_MODEL, 0, 0) == TRUSTED_MODEL.c0


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=5000))
def test_predict_time_monotone_with_positive_coefficients(rho, n):
    t = predict_time(TRUSTED_MODEL, rho, n)
    assert predict_time(TRUSTED_MODEL, rho + 1, n) > t
    assert predict_time(TRUSTED_MODEL, rho, n + 1) > t


def _grid_samples(model, noise_sigma=0.0, reps=1, seed=0):
    rng = random.Random(seed)
    samples = []
    for rho in (1, 32, 64, 96, 128):
        for n in (128, 256, 512, 1024, 2048, 4096):
            for _ in range(reps):
                t = predict_time(model, rho, n) + rng.gauss(0.0, noise_sigma)
                samples.append((rho, n, t))
    return samples


def test_fit_model_exact_recovery():
    fit = fit_model(_grid_samples(UNTRUSTED_MODEL))
    for name in ("c0", "c1", "c2", "c3"):
        assert getattr(fit, name) == pytest.approx(getattr(UNTRUSTED_MODEL, name),
                                                   rel=1e-9)
    assert fit.rmse == pytest.approx(0.0, abs=1e-9)


def test_fit_model_with_noise_recovers_within_five_percent():
    for seed in range(5):
        fit = fit_model(_grid_samples(UNTRUSTED_MODEL, noise_sigma=0.05,
                                      reps=50, seed=seed))
        for name in ("c0", "c1", "c2", "c3"):
            rel = abs(getattr(fit, name) - getattr(UNTRUSTED_MODEL, name)) \
                / abs(getattr(UNTRUSTED_MODEL, name))
            assert rel < 0.05
        assert fit.rmse == pytest.approx(0.05, rel=0.15)


def test_fit_model_matches_floating_point_least_squares():
    samples = _grid_samples(UNTRUSTED_MODEL, noise_sigma=0.05, reps=10, seed=11)
    design = np.array([[1.0, n, rho, n * rho] for rho, n, _ in samples])
    times = np.array([t for _, _, t in samples])
    ref, _, _, _ = np.linalg.lstsq(design, times, rcond=None)
    ref_rmse = float(np.sqrt(np.mean((design @ ref - times) ** 2)))
    fit = fit_model(samples)
    for name, want in zip(("c0", "c1", "c2", "c3"), ref):
        assert getattr(fit, name) == pytest.approx(float(want), rel=1e-9)
    assert fit.rmse == pytest.approx(ref_rmse, rel=1e-9)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_fit_model_rejects_non_finite_samples(bad):
    samples = _grid_samples(TRUSTED_MODEL)
    samples[3] = (samples[3][0], samples[3][1], bad)
    with pytest.raises(ValueError):
        fit_model(samples)


def test_fit_model_requires_enough_spread():
    with pytest.raises(ValueError):
        fit_model([(1, 1, 0.1)] * 10)
    with pytest.raises(ValueError):
        fit_model([(1, 1, 0.1), (2, 2, 0.2)])


def test_fit_model_rejects_rank_deficiency():
    # rho == n everywhere: the interaction column is collinear.
    samples = [(v, v, 0.1 * v) for v in (1, 2, 3, 4, 5, 6, 7, 8)]
    with pytest.raises(ValueError):
        fit_model(samples)


def test_optimize_reference_cells():
    plan = optimize(0.02, 26, 0, TRUSTED_MODEL)
    assert (plan.n, plan.rho) == (1, 10)
    assert plan.tdr == pytest.approx(0.985, abs=2e-3)
    assert plan.t_predicted <= 0.02

    plan_b = optimize(1.62, 26, 9, UNTRUSTED_MODEL)
    assert (plan_b.n, plan_b.rho) == (10, 3)
    assert plan_b.tdr == pytest.approx(0.716, abs=2e-3)

    with pytest.raises(InfeasibleError):
        optimize(0.03, 26, 9, TRUSTED_MODEL)
    with pytest.raises(InfeasibleError):
        optimize(0.001, 26, 0, TRUSTED_MODEL)


def test_optimize_respects_multiples_of_seed_count():
    plan = optimize(0.05, 26, 4, TRUSTED_MODEL)
    assert plan.n % 5 == 0
    assert plan.d == 4


def test_optimize_never_returns_dominated_point():
    plan = optimize(0.04, 26, 0, TRUSTED_MODEL)
    for n in range(1, 60):
        for rho in range(1, 27):
            if predict_time(TRUSTED_MODEL, rho, n) <= 0.04:
                from reuseguard.planner import reuse_probability as rp
                other = tdr(rp(DEFAULT_REUSE_CURVE, n), rho)
                assert other <= plan.tdr + 1e-12


@settings(max_examples=60)
@given(st.floats(min_value=0.012, max_value=0.2),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=9))
def test_optimize_output_always_feasible(t_goal, r_a, d):
    try:
        plan = optimize(t_goal, r_a, d, TRUSTED_MODEL)
    except InfeasibleError:
        return
    assert plan.t_predicted <= t_goal
    assert 1 <= plan.rho <= r_a
    assert plan.n >= 1 and plan.n % (d + 1) == 0


def test_optimize_stops_at_the_last_anchor_when_time_is_flat_in_n():
    flat = LatencyModel(0.001, 0.0, 0.001, 0.0)
    plan = optimize(0.004, 8, 0, flat)
    assert (plan.n, plan.rho) == (5000, 3)
    assert optimize(0.004, 8, 2, flat).n == 15000


def test_parse_curve_file():
    curve = parse_curve_file("# comment\n1,0.3\n10,0.4\n\n100,0.45\n")
    assert curve.anchors == ((1.0, 0.3), (10.0, 0.4), (100.0, 0.45))


def test_parse_coeffs_file():
    text = "c0 = 1.5507\nc1 = 5.8834e-3\nc2 = 2.6209e-3\nc3 = 4.7135e-5\nrmse = 0.4547\n"
    model = parse_coeffs_file(text)
    assert model == UNTRUSTED_MODEL
    with pytest.raises(ValueError):
        parse_coeffs_file("c0 = 1.0\nc1 = 2.0\n")


def test_format_coeffs_file_is_what_parse_coeffs_file_reads():
    text = format_coeffs_file(UNTRUSTED_MODEL)
    assert text == ("c0 = 1.550700e+00\nc1 = 5.883400e-03\nc2 = 2.620900e-03\n"
                    "c3 = 4.713500e-05\nrmse = 0.4547\n")
    assert parse_coeffs_file(text) == UNTRUSTED_MODEL


_SAMPLE_FIELDS = st.one_of(st.floats().map(repr), st.integers().map(str),
                           st.sampled_from(["rho", "n", "time", " ", ""]),
                           st.text(max_size=5))
_SAMPLE_TEXT = st.one_of(
    st.text(max_size=80),
    st.lists(st.lists(_SAMPLE_FIELDS, min_size=1, max_size=4).map(",".join),
             max_size=6).map("\n".join),
)


@settings(max_examples=300)
@given(_SAMPLE_TEXT)
def test_any_samples_text_parses_to_float_triples_or_raises_value_error(text):
    try:
        samples = parse_samples_file(text)
    except ValueError:
        return
    assert all(len(s) == 3 and all(type(v) is float for v in s) for s in samples)
    # What the writer writes, the parser reads back exactly (nan included).
    again = parse_samples_file(format_samples_file(samples))
    assert [tuple(map(repr, s)) for s in again] == [tuple(map(repr, s)) for s in samples]


def test_model_is_plain_data():
    m = LatencyModel(1.0, 2.0, 3.0, 4.0)
    assert predict_time(m, 2, 5) == 1.0 + 10.0 + 6.0 + 40.0
