from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import newton_logistic_univariate

from patchcrew.evalkit.logistic import logistic_fit


def _synthetic(n: int, intercept: float, slope: float,
               seed: int) -> tuple[list[float], list[int]]:
    rng = random.Random(seed)
    xs, ys = [], []
    for _ in range(n):
        x = rng.gauss(0.0, 1.0)
        p = 1.0 / (1.0 + math.exp(-(intercept + slope * x)))
        xs.append(x)
        ys.append(1 if rng.random() < p else 0)
    return xs, ys


def test_recovers_known_coefficients_within_wald_bounds():
    truth = (-0.4, 1.3)
    xs, ys = _synthetic(500, *truth, seed=2024)
    fit = logistic_fit(xs, ys)
    assert fit.converged
    for est, se, true_value in zip(fit.coefficients, fit.std_errors, truth):
        assert abs(est - true_value) < 3 * se
        assert se > 0


def test_matches_independent_newton_solver():
    xs, ys = _synthetic(300, 0.7, -0.9, seed=77)
    fit = logistic_fit(xs, ys)
    coefficients, std_errors = newton_logistic_univariate(
        xs, [float(v) for v in ys])
    p_values = [math.erfc(abs(b / se) / math.sqrt(2.0))
                for b, se in zip(coefficients, std_errors)]
    assert fit.coefficients == pytest.approx(coefficients, abs=1e-6)
    assert fit.std_errors == pytest.approx(std_errors, rel=1e-6)
    assert fit.p_values == pytest.approx(p_values, rel=1e-6)


def test_log_likelihood_never_decreases():
    xs, ys = _synthetic(200, 0.2, 2.5, seed=5)
    fit = logistic_fit(xs, ys)
    history = fit.ll_history
    assert len(history) >= 2
    assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
    assert fit.log_likelihood == history[-1]
    assert fit.log_likelihood < 0


def _separated():
    xs = [float(i) for i in range(-10, 10)]
    return xs, [0 if x < 0 else 1 for x in xs]


def _null_signal():
    rng = random.Random(3)
    xs = [rng.gauss(0, 1) for _ in range(400)]
    ys = [rng.randint(0, 1) for _ in range(400)]
    return xs, ys


def _file_counts():
    """2,294 rows, SWE-bench's size, of a count feature like # Code Files."""
    rng = random.Random(2295)
    xs, ys = [], []
    for _ in range(2294):
        files = 1 + int(rng.expovariate(1.2))
        p = 1.0 / (1.0 + math.exp(-(0.8 - 0.35 * files)))
        xs.append(float(files))
        ys.append(1 if rng.random() < p else 0)
    return xs, ys


def test_perfect_separation_is_flagged():
    fit = logistic_fit(*_separated())
    assert not fit.converged
    assert "separation" in fit.diagnostic


def test_strong_signal_p_value_is_small():
    xs, ys = _synthetic(500, 0.0, 2.0, seed=11)
    fit = logistic_fit(xs, ys)
    assert fit.converged
    assert fit.p_values[1] < 1e-6
    assert 0.0 <= fit.p_values[0] <= 1.0


def test_null_signal_p_value_is_large():
    fit = logistic_fit(*_null_signal())
    assert fit.converged
    assert fit.p_values[1] > 0.01


# (coefficients, std_errors, p_values, iterations, converged, diagnostic)
# as numpy's LAPACK solve and inverse gave them in an earlier version of
# logistic_fit
_GOLDENS = {
    "separated": (
        (15.338675520504596, 30.67735104958008),
        (2141.661009045518, 3028.763091779498),
        (0.9942855626070766, 0.9919186263442171),
        20, False,
        "perfect separation suspected: fitted probabilities saturated"),
    "null_signal": (
        (-0.038064560290837726, 0.026003655564878648),
        (0.10030635222610816, 0.10035215093675184),
        (0.7043291902026267, 0.7955395307827038),
        3, True, ""),
    "file_counts": (
        (0.889942690298894, -0.42837177575597984),
        (0.09329469751131349, 0.059360972498021226),
        (1.4414807792972737e-21, 5.338681769461716e-13),
        4, True, ""),
}


@pytest.mark.parametrize("name,data", [
    ("separated", _separated),
    ("null_signal", _null_signal),
    ("file_counts", _file_counts),
])
def test_matches_numpy_goldens(name, data):
    coefficients, std_errors, p_values, iterations, converged, diagnostic = \
        _GOLDENS[name]
    fit = logistic_fit(*data())
    # 1e-11: summing file_counts' log-likelihood plainly instead of exactly
    # rounded moves its coefficients by about 1e-9
    assert fit.coefficients == pytest.approx(coefficients, rel=1e-11)
    assert fit.std_errors == pytest.approx(std_errors, rel=1e-11)
    assert fit.p_values == pytest.approx(p_values, rel=1e-11)
    assert fit.iterations == iterations
    assert fit.converged is converged
    assert fit.diagnostic == diagnostic


_ONE_PER_ROW = "one number per row"


# the cases of matrices and non-sequences keep the ids they had when their
# messages differed
@pytest.mark.parametrize("features,labels,message", [
    ([1.0, 2.0, 3.0], [0, 0, 0], "both classes"),
    ([1.0, 2.0, 3.0], [0, 1], "length"),
    ([1.0, float("nan"), 3.0], [0, 1, 0], "finite"),
    ([1.0, 2.0, 3.0], [0, 2, 1], "binary"),
    ([1.0], [1], "both classes"),
    pytest.param([[1.0, 2.0], [3.0, 4.0]], [0, 1], _ONE_PER_ROW,
                 id="features5-labels5-rows"),
    pytest.param([[1.0, 2.0], [3.0], [4.0, 5.0]], [0, 1, 0], _ONE_PER_ROW,
                 id="features6-labels6-same length"),
    pytest.param([[1.0], 2.0, [3.0]], [0, 1, 0], _ONE_PER_ROW,
                 id="features7-labels7-same length"),
    (["a", "b", "c"], [0, 1, 0], "numbers"),
    pytest.param([[1.0, "x"], [2.0, 3.0], [4.0, 5.0]], [0, 1, 0],
                 _ONE_PER_ROW, id="features9-labels9-numbers"),
    pytest.param([[[1.0]], [[2.0]], [[3.0]]], [0, 1, 0], _ONE_PER_ROW,
                 id="features10-labels10-2-d"),
    pytest.param(3.0, [0, 1, 0], _ONE_PER_ROW, id="3.0-labels11-2-d"),
    # a constant separates nothing, however its determinant rounds
    ([0.1] * 10, [0, 1] * 5, "singular information matrix"),
])
def test_input_validation(features, labels, message):
    with pytest.raises(ValueError, match=message):
        logistic_fit(features, labels)


@st.composite
def _count_feature(draw):
    """A count index like the complexity indices, shifted by an offset, and
    labels of the same length."""
    n = draw(st.integers(12, 60))
    offset = draw(st.integers(0, 1000))
    counts = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return [float(offset + c) for c in counts], labels


@settings(max_examples=150, deadline=None)
@given(_count_feature())
def test_agrees_with_newton_solver_on_count_features(data):
    xs, ys = data
    assume(min(xs) < max(xs) and 0 < sum(ys) < len(ys))
    fit = logistic_fit(xs, ys)
    assume(fit.converged)
    try:
        coefficients, std_errors = newton_logistic_univariate(
            xs, [float(v) for v in ys])
    except (ValueError, OverflowError):  # the oracle did not converge
        assume(False)
    assert fit.coefficients == pytest.approx(coefficients, abs=1e-6)
    assert fit.std_errors == pytest.approx(std_errors, rel=1e-6)
