"""Regression fitting: OLS for hit counts, logistic (IRLS) for share decisions.

Both fitters take a :class:`DesignMatrix` (features plus response; an
intercept column is added internally) and return a :class:`FitResult`.
Because "variance explained" is ambiguous for a binary outcome, the
logistic fit reports McFadden's pseudo R-squared and, separately, the
R-squared of an OLS fit to the 0/1 response.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import InputError
from .decision import sigmoid_array


class SingularDesignError(ValueError):
    """The design matrix is rank-deficient after intercept augmentation."""


class DegenerateResponseError(ValueError):
    """A logistic response with only one class present."""


class UndefinedRSquaredError(ValueError):
    """R-squared is undefined because the response is constant (SST = 0)."""


@dataclass
class DesignMatrix:
    """n observations by k feature columns, plus the response vector."""

    features: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.response = np.asarray(self.response, dtype=np.float64)
        if self.features.ndim != 2:
            raise InputError("features must be a 2-D array")
        n, k = self.features.shape
        if self.response.shape != (n,):
            raise InputError(
                f"response length {self.response.shape} does not match {n} rows")
        if n <= k:
            raise InputError(f"need more observations than features (n={n}, k={k})")
        if not np.all(np.isfinite(self.features)) or not np.all(np.isfinite(self.response)):
            raise InputError("design matrix entries must be finite")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def k(self) -> int:
        return self.features.shape[1]

    def with_intercept(self) -> np.ndarray:
        return np.column_stack([np.ones(self.n), self.features])


@dataclass
class FitResult:
    """Coefficients (intercept first) plus goodness-of-fit diagnostics."""

    coefficients: tuple
    converged: bool
    iterations: int
    r_squared: float | None = None
    mcfadden_pseudo_r2: float | None = None
    ols_on_binary_r2: float | None = None
    log_likelihood: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "coefficients": list(self.coefficients),
            "converged": self.converged,
            "iterations": self.iterations,
        }
        if self.r_squared is not None:
            out["r_squared"] = self.r_squared
        if self.mcfadden_pseudo_r2 is not None:
            out["mcfadden_pseudo_r2"] = self.mcfadden_pseudo_r2
            out["ols_on_binary_r2"] = self.ols_on_binary_r2
            out["log_likelihood"] = self.log_likelihood
        return out

    def write_json(self, path):
        with open(path, "w", newline="") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------

def r_squared(y, y_hat) -> float:
    """1 - SSE/SST; raises when the response is constant."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise InputError(f"length mismatch: {y.shape} vs {y_hat.shape}")
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise UndefinedRSquaredError("response is constant; R-squared undefined")
    sse = float(np.sum((y - y_hat) ** 2))
    return 1.0 - sse / sst


def mcfadden(lnl: float, lnl0: float) -> float:
    """McFadden pseudo R-squared, 1 - lnL/lnL0."""
    if lnl < lnl0:
        raise InputError(f"model log-likelihood {lnl} below null {lnl0}")
    if lnl0 == 0.0:
        raise UndefinedRSquaredError("null log-likelihood is zero")
    return 1.0 - lnl / lnl0


def logistic_log_likelihood(coefficients, features, response) -> float:
    """Bernoulli log-likelihood of `coefficients` (intercept first)."""
    x = np.column_stack([np.ones(len(features)), np.asarray(features, dtype=np.float64)])
    y = np.asarray(response, dtype=np.float64)
    z = x @ np.asarray(coefficients, dtype=np.float64)
    # y*z - log(1 + e^z), evaluated stably for large |z|
    return float(np.sum(y * z - np.logaddexp(0.0, z)))


# ---------------------------------------------------------------------------
# Fitters
# ---------------------------------------------------------------------------

def ols_fit(data: DesignMatrix) -> FitResult:
    """Least squares via SVD; R-squared of the fitted values."""
    x = data.with_intercept()
    beta, _, rank, _ = np.linalg.lstsq(x, data.response, rcond=None)
    if rank < x.shape[1]:
        raise SingularDesignError(
            f"design is rank deficient (rank {rank} < {x.shape[1]} columns)")
    r2 = r_squared(data.response, x @ beta)
    return FitResult(coefficients=tuple(float(b) for b in beta),
                     converged=True, iterations=1, r_squared=r2)


def logistic_fit(data: DesignMatrix, ridge: float = 1e-6,
                 max_iter: int = 100, tol: float = 1e-8) -> FitResult:
    """Ridge-penalized Bernoulli MLE by IRLS with step halving.

    Converged means the penalized-likelihood gradient has infinity norm
    <= tol.  The intercept is never penalized.  With ridge = 0 on
    perfectly separated data the MLE sits at infinity, so the result is
    flagged converged = False (coefficients are still returned).
    """
    if ridge < 0:
        raise InputError(f"ridge must be >= 0, got {ridge}")
    y = data.response
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise InputError("logistic response must be binary 0/1")
    if len(classes) < 2:
        raise DegenerateResponseError("response contains a single class")

    x = data.with_intercept()
    n, p = x.shape
    penalty = np.full(p, ridge)
    penalty[0] = 0.0

    def penalized_ll(beta):
        z = x @ beta
        return float(np.sum(y * z - np.logaddexp(0.0, z))
                     - 0.5 * np.sum(penalty * beta * beta))

    beta = np.zeros(p)
    ll = penalized_ll(beta)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        mu = sigmoid_array(x @ beta)
        grad = x.T @ (y - mu) - penalty * beta
        if float(np.max(np.abs(grad))) <= tol:
            converged = True
            iterations -= 1
            break
        w = mu * (1.0 - mu)
        hess = x.T @ (w[:, None] * x) + np.diag(penalty)
        try:
            direction = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            direction, *_ = np.linalg.lstsq(hess, grad, rcond=None)
        # Step halving keeps IRLS from overshooting on ill-scaled problems.
        scale = 1.0
        for _ in range(40):
            candidate = beta + scale * direction
            cand_ll = penalized_ll(candidate)
            if cand_ll >= ll:
                beta = candidate
                ll = cand_ll
                break
            scale *= 0.5
        else:
            break  # no ascent possible at this point

    mu = sigmoid_array(x @ beta)
    if converged and ridge == 0.0:
        # Gradient-flat plus fitted probabilities pinned at the labels means
        # the unpenalized MLE ran off to infinity (perfect separation).
        margin = 1e-7
        if np.all(np.abs(y - mu) < margin):
            converged = False

    lnl = float(np.sum(y * (x @ beta) - np.logaddexp(0.0, x @ beta)))
    ybar = float(y.mean())
    lnl0 = data.n * (ybar * math.log(ybar) + (1.0 - ybar) * math.log(1.0 - ybar))
    pseudo = mcfadden(max(lnl, lnl0), lnl0)

    ols_beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    ols_r2 = r_squared(y, x @ ols_beta) if rank == p else None

    return FitResult(
        coefficients=tuple(float(b) for b in beta),
        converged=converged,
        iterations=iterations,
        mcfadden_pseudo_r2=pseudo,
        ols_on_binary_r2=ols_r2,
        log_likelihood=lnl,
    )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def load_design_csv(path) -> DesignMatrix:
    """Read an observation table: header row, features first, response last.

    Cells are decimal or exponent numbers, `nan` or `inf`, in ASCII,
    optionally double-quoted and surrounded by whitespace.  Blank lines are
    skipped and `#` is not a comment.  A bad row, including a cell with a
    byte that is not UTF-8, is an InputError naming `path:lineno`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    text = _text(raw)
    try:
        header = next(csv.reader(text))
    except StopIteration:
        raise InputError(f"{path}: empty file") from None
    if len(header) < 2:
        raise InputError(f"{path}: need at least one feature column plus a response")
    table = None
    # loadtxt strips \x1c-\x1f around a number, which float() rejects.
    if not any(ch in raw for ch in b"\x1c\x1d\x1e\x1f"):
        with warnings.catch_warnings():
            # loadtxt warns when it finds blank rows only.
            warnings.simplefilter("ignore", UserWarning)
            try:
                table = np.loadtxt(text, delimiter=",", quotechar='"', comments=None,
                                   ndmin=2)
            except ValueError:
                pass
    if table is None or table.shape[1] != len(header):
        table = _read_rows(path, raw, len(header))
    return DesignMatrix(features=table[:, :-1], response=table[:, -1])


def _text(raw: bytes):
    """`raw` as a text file; undecodable bytes become lone surrogates."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                            errors="surrogateescape", newline="")


def _read_rows(path, raw: bytes, width: int) -> np.ndarray:
    """The rows under the header read one cell at a time, or the
    InputError of the first bad row."""
    reader = csv.reader(_text(raw))
    next(reader)
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise InputError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        try:
            rows.append([_cell_value(v) for v in row])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _cell_value(cell: str) -> float:
    """float(cell) in the syntax loadtxt reads: no `_` and no non-ASCII digits."""
    number = cell.strip()
    if "_" in number or not number.isascii():
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)
