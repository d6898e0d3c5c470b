"""Logistic regression: IRLS fit, Wald standard errors, two-sided p-values.

The fit is Newton-Raphson on the log-likelihood (equivalently iteratively
reweighted least squares) with step halving, so the log-likelihood never
decreases across iterations. Perfect separation makes the MLE diverge;
that is detected (saturated fitted probabilities or runaway coefficients)
and reported as converged=False with a diagnostic instead of pretending
the estimates mean anything.

Pure Python: the design matrix is kept as columns, every sum over the
observations runs down columns with zip, and the k x k systems (k is the
number of features plus one) are solved by Gaussian elimination with
partial pivoting.
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


class _SingularMatrix(Exception):
    pass


def _is_row(value) -> bool:
    return hasattr(value, "__iter__") and not isinstance(value, (str, bytes))


def _number(value) -> float:
    if _is_row(value):
        raise ValueError("features must be a 2-d matrix")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"features must be numbers, got {value!r}") from None


def _feature_columns(features) -> tuple[int, list[list[float]]]:
    """(rows, columns as floats) of a sequence of numbers (one column) or
    of a sequence of equal-length rows."""
    if not _is_row(features):
        raise ValueError("features must be a 2-d matrix")
    values = list(features)
    if not any(map(_is_row, values)):
        return len(values), [list(map(_number, values))]
    rows = [list(row) if _is_row(row) else None for row in values]
    if any(row is None or len(row) != len(rows[0]) for row in rows):
        raise ValueError("feature rows must all have the same length")
    return len(rows), [list(map(_number, column)) for column in zip(*rows)]


def _linear(design: list[list[float]], beta: list[float]) -> list[float]:
    eta = [beta[0]] * len(design[0])
    for b, column in zip(beta[1:], design[1:]):
        eta = [e + b * x for e, x in zip(eta, column)]
    return eta


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


def _information(design: list[list[float]],
                 mu: list[float]) -> list[list[float]]:
    """design.T @ diag(mu * (1 - mu)) @ design."""
    weights = [m * (1.0 - m) for m in mu]
    weighted = [weights] + [[x * w for x, w in zip(column, weights)]
                            for column in design[1:]]
    k = len(design)
    info = [[0.0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            info[a][b] = info[b][a] = sum(map(mul, design[a], weighted[b]))
    return info


def _solve(matrix: list[list[float]],
           rhs: list[list[float]]) -> list[list[float]]:
    """The solution x of matrix @ x = b for each vector b of rhs, by
    Gaussian elimination with partial pivoting. An exactly zero pivot
    raises _SingularMatrix."""
    k = len(matrix)
    rows = [list(row) + [b[i] for b in rhs] for i, row in enumerate(matrix)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(rows[r][col]))
        if rows[pivot][col] == 0.0:
            raise _SingularMatrix
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        for r in range(col + 1, k):
            factor = rows[r][col] / head[col]
            rows[r] = [v - factor * h for v, h in zip(rows[r], head)]
    solutions = []
    for j in range(k, k + len(rhs)):
        x = [0.0] * k
        for i in reversed(range(k)):
            x[i] = (rows[i][j] - sum(rows[i][c] * x[c]
                                     for c in range(i + 1, k))) / rows[i][i]
        solutions.append(x)
    return solutions


def logistic_fit(features, labels) -> LogisticFit:
    """Fit labels ~ intercept + features.

    features: n x p matrix (rows = observations), or a sequence of n numbers
    for p = 1; labels: n binary values.
    Raises ValueError on degenerate inputs (single label class, NaN or inf
    features, ragged or non-numeric rows, fewer rows than parameters,
    singular information matrix).
    """
    n, columns = _feature_columns(features)
    p = len(columns)
    try:
        y = list(labels)
    except TypeError:
        raise ValueError("labels length must match feature rows") from None
    if len(y) != n:
        raise ValueError("labels length must match feature rows")
    if not all(math.isfinite(x) for column in columns for x in column):
        raise ValueError("features must be finite")
    if not all(v in (0, 1) for v in y):
        raise ValueError("labels must be binary 0/1")
    y = [float(v) for v in y]
    if len(set(y)) < 2:
        raise ValueError("labels must contain both classes")
    if n < p + 1:
        raise ValueError(f"need at least {p + 1} rows for {p} features")

    design = [[1.0] * n] + columns
    k = p + 1
    beta = [0.0] * k
    eta = _linear(design, beta)
    ll = _log_likelihood(eta, y)
    history = [ll]
    converged = False
    diagnostic = ""
    iterations = 0

    for iteration in range(1, MAX_ITERATIONS + 1):
        iterations = iteration
        mu = _mean(eta)
        residuals = [v - m for v, m in zip(y, mu)]
        grad = [sum(map(mul, column, residuals)) for column in design]
        try:
            step, = _solve(_information(design, mu), [grad])
        except _SingularMatrix:
            if max(map(abs, beta)) > SEPARATION_COEF_BOUND / 3:
                diagnostic = ("perfect separation suspected: information "
                              "matrix became singular while coefficients "
                              "diverged")
                break
            raise ValueError("singular information matrix") from None

        # step halving keeps the log-likelihood monotone; after 20 halvings
        # the step is taken whatever the log-likelihood
        scale = 2.0
        for _ in range(21):
            scale /= 2.0
            candidate = [b + scale * s for b, s in zip(beta, step)]
            cand_eta = _linear(design, candidate)
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

    identity = [[float(i == j) for i in range(k)] for j in range(k)]
    try:
        covariance = _solve(_information(design, _mean(eta)), identity)
        variances = [covariance[j][j] for j in range(k)]
    except _SingularMatrix:
        if not diagnostic:
            raise ValueError("singular information matrix") from None
        variances = [math.inf] * k
    std_errors = [math.sqrt(v) if v > 0 else math.inf for v in variances]
    p_values = []
    for b, se in zip(beta, std_errors):
        z = b / se
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
