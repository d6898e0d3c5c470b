"""Logistic regression on one feature: IRLS fit, Wald standard errors,
two-sided p-values.

The fit is Newton-Raphson on the log-likelihood (equivalently iteratively
reweighted least squares) with step halving, so the log-likelihood never
decreases across iterations. Perfect separation makes the MLE diverge;
that is detected (saturated fitted probabilities or runaway coefficients)
and reported as converged=False with a diagnostic instead of pretending
the estimates mean anything.

Pure Python. With an intercept and one feature x, the information matrix
is [[a, b], [b, c]] with a = sum(w), b = sum(w * x) and c = sum(w * x * x)
for the weights w = mu * (1 - mu), so each Newton step and the covariance
at the end are its closed-form 2 x 2 inverse, over the determinant
a * c - b * b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, log1p
from operator import mul

MAX_ITERATIONS = 100
CONVERGENCE_TOL = 1e-8
SEPARATION_COEF_BOUND = 30.0
_ETA_CLIP = 35.0


@dataclass(frozen=True)
class LogisticFit:
    coefficients: tuple[float, ...]  # intercept first
    std_errors: tuple[float, ...]
    p_values: tuple[float, ...]
    converged: bool
    iterations: int
    log_likelihood: float
    ll_history: tuple[float, ...]
    diagnostic: str = ""


def _linear(xs: list[float], beta: list[float]) -> list[float]:
    b0, b1 = beta
    return [b0 + b1 * x for x in xs]


def _log_likelihood(eta: list[float], y: list[float]) -> float:
    # sum y*eta - log(1 + exp(eta)), computed stably. The sum is exactly
    # rounded: a plain one is off by about 1e-10 over a few thousand rows,
    # more than the 1e-12 slack of step halving, which then rejects good
    # steps and ends the fit on a shrunken one
    return math.fsum([v * e - ((e if e > 0.0 else 0.0) + log1p(exp(-abs(e))))
                      for v, e in zip(y, eta)])


def _mean(eta: list[float]) -> list[float]:
    return [1.0 / (1.0 + exp(_ETA_CLIP if e < -_ETA_CLIP else
                             -_ETA_CLIP if e > _ETA_CLIP else -e))
            for e in eta]


def _information(xs: list[float],
                 mu: list[float]) -> tuple[float, float, float]:
    """(a, b, c) of the information matrix [[a, b], [b, c]]."""
    weights = [m * (1.0 - m) for m in mu]
    weighted = [x * w for x, w in zip(xs, weights)]
    return sum(weights), sum(weighted), sum(map(mul, xs, weighted))


def logistic_fit(feature, labels) -> LogisticFit:
    """Fit labels ~ intercept + feature.

    feature: n numbers, one per observation; labels: n binary values.
    Raises ValueError on degenerate inputs (single label class, NaN or inf
    values, rows that are not one number, a constant feature or another
    singular information matrix).
    """
    try:
        xs = [float(x) for x in feature]
    except TypeError:
        raise ValueError("feature must be one number per row") from None
    except ValueError as exc:
        raise ValueError(f"features must be numbers: {exc}") from None
    try:
        y = list(labels)
    except TypeError:
        raise ValueError("labels length must match feature rows") from None
    if len(y) != len(xs):
        raise ValueError("labels length must match feature rows")
    if not all(map(math.isfinite, xs)):
        raise ValueError("features must be finite")
    if not all(v in (0, 1) for v in y):
        raise ValueError("labels must be binary 0/1")
    y = [float(v) for v in y]
    if len(set(y)) < 2:
        raise ValueError("labels must contain both classes")
    # a constant is collinear with the intercept; rounding can leave its
    # determinant just off zero, and the fit would run away as if separated
    if min(xs) == max(xs):
        raise ValueError("singular information matrix")

    beta = [0.0, 0.0]
    eta = _linear(xs, beta)
    ll = _log_likelihood(eta, y)
    history = [ll]
    converged = False
    diagnostic = ""
    iterations = 0

    for iteration in range(1, MAX_ITERATIONS + 1):
        iterations = iteration
        mu = _mean(eta)
        residuals = [v - m for v, m in zip(y, mu)]
        g0, g1 = sum(residuals), sum(map(mul, xs, residuals))
        a, b, c = _information(xs, mu)
        det = a * c - b * b
        if not det > 0.0:
            if max(map(abs, beta)) > SEPARATION_COEF_BOUND / 3:
                diagnostic = ("perfect separation suspected: information "
                              "matrix became singular while coefficients "
                              "diverged")
                break
            raise ValueError("singular information matrix")
        step = [(c * g0 - b * g1) / det, (a * g1 - b * g0) / det]

        # step halving keeps the log-likelihood monotone; after 20 halvings
        # the step is taken whatever the log-likelihood
        scale = 2.0
        for _ in range(21):
            scale /= 2.0
            candidate = [v + scale * s for v, s in zip(beta, step)]
            cand_eta = _linear(xs, candidate)
            cand_ll = _log_likelihood(cand_eta, y)
            if cand_ll >= ll - 1e-12:
                break
        beta, eta, ll = candidate, cand_eta, cand_ll
        history.append(ll)

        saturated = all(m > 1.0 - 1e-8 if v == 1.0 else m < 1e-8
                        for v, m in zip(y, mu))
        if max(map(abs, beta)) > SEPARATION_COEF_BOUND or saturated:
            diagnostic = ("perfect separation suspected: fitted "
                          "probabilities saturated")
            break
        if max(abs(scale * s) for s in step) < CONVERGENCE_TOL:
            converged = True
            break

    if not converged and not diagnostic:
        diagnostic = f"no convergence within {MAX_ITERATIONS} iterations"

    a, b, c = _information(xs, _mean(eta))
    det = a * c - b * b
    if det > 0.0:
        variances = [c / det, a / det]
    elif diagnostic:
        variances = [math.inf, math.inf]
    else:
        raise ValueError("singular information matrix")
    std_errors = [math.sqrt(v) if v > 0 else math.inf for v in variances]
    p_values = []
    for coefficient, se in zip(beta, std_errors):
        z = coefficient / se
        p_values.append(math.erfc(abs(z) / math.sqrt(2.0))
                        if math.isfinite(z) else 1.0)

    return LogisticFit(
        coefficients=tuple(beta),
        std_errors=tuple(std_errors),
        p_values=tuple(p_values),
        converged=converged,
        iterations=iterations,
        log_likelihood=ll,
        ll_history=tuple(history),
        diagnostic=diagnostic,
    )
