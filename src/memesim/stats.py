"""Regression fitting: OLS for hit counts, logistic (IRLS) for share decisions.

Both fitters take a :class:`DesignMatrix` (features plus response; an
intercept column is added internally) and return a :class:`FitResult`.
Because "variance explained" is ambiguous for a binary outcome, the
logistic fit reports McFadden's pseudo R-squared and, separately, the
R-squared of an OLS fit to the 0/1 response.

`logistic_fit` owns a `core.Helper`, whose job `_rows` runs the elementwise
passes of each IRLS candidate over half of the rows with the unwrapped
`decision.sigmoid_array`; products and sums run over all rows on the
calling thread, so no bit depends on the split.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import decision
from .core import Helper, InputError
from .decision import sigmoid_array


class SingularDesignError(InputError):
    """The design matrix is rank-deficient after intercept augmentation."""
    reason = "singular-design"


class DegenerateResponseError(InputError):
    """A logistic response with only one class present."""
    reason = "degenerate-response"


class UndefinedRSquaredError(InputError):
    """R-squared is undefined because the response is constant (SST = 0)."""
    reason = "r-squared-undefined"


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


_RIDGE = 1e-6
_MAX_ITER = 100
_TOL = 1e-8
# Relative rounding of the log-likelihood: its terms are <= 0, each within
# 12 ulps, and np.sum adds runs of 16, joins 8 runs in 3 levels, then pairs
# over log2(n / 128) levels: under 12 + 16 + 3 + 33 = 64 ulps to n = 2**40.
_LL_ROUNDING = 64 * np.finfo(np.float64).eps


def logistic_fit(data: DesignMatrix) -> FitResult:
    """Ridge-penalized Bernoulli MLE by IRLS with step halving.

    Every coefficient but the intercept carries the penalty _RIDGE, which
    keeps the optimum finite even on perfectly separated data.  Converged
    means the penalized-likelihood gradient reached infinity norm <= _TOL
    within _MAX_ITER iterations.  A full Newton step predicted to gain less
    than the log-likelihood's rounding error is taken unless the latter falls
    by more: rounding would decide, and halving stalls short of _TOL.
    """
    y = data.response
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise InputError("logistic response must be binary 0/1")
    if len(classes) < 2:
        raise DegenerateResponseError("response contains a single class")

    x = data.with_intercept()
    n, p = x.shape
    penalty = np.full(p, _RIDGE)
    penalty[0] = 0.0
    # The calling thread's rows start where a SIMD vector of all rows would.
    half = n // 2 // 64 * 64
    mu, w, terms = np.empty(n), np.empty(n), np.empty(n)

    with Helper() as helper:
        def evaluate(beta):
            """beta's log-likelihood, plain and penalized; mu and w become beta's."""
            columns = (y, x @ beta, mu, w, terms)
            helper.both(_rows, (decision.sigmoid_array, *(c[:half] for c in columns)),
                        (sigmoid_array, *(c[half:] for c in columns)))
            lnl = np.sum(terms)
            return float(lnl), float(lnl - 0.5 * np.sum(penalty * beta * beta))

        beta = np.zeros(p)
        lnl, ll = evaluate(beta)
        converged = False
        iterations = 0
        for iterations in range(1, _MAX_ITER + 1):
            grad = x.T @ (y - mu) - penalty * beta
            if float(np.max(np.abs(grad))) <= _TOL:
                converged = True
                iterations -= 1
                break
            hess = x.T @ (w[:, None] * x) + np.diag(penalty)
            try:
                direction = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                direction, *_ = np.linalg.lstsq(hess, grad, rcond=None)
            noise = _LL_ROUNDING * abs(ll)
            floor = ll - noise if 0.5 * float(grad @ direction) <= noise else ll
            # Step halving keeps IRLS from overshooting on ill-scaled problems.
            for halvings in range(40):
                cand_lnl, cand_ll = evaluate(candidate := beta + 0.5**halvings * direction)
                if cand_ll >= (ll if halvings else floor):
                    beta, lnl, ll = candidate, cand_lnl, cand_ll
                    break
            else:
                break  # no ascent possible at this point

    ybar = float(y.mean())
    lnl0 = data.n * (ybar * math.log(ybar) + (1.0 - ybar) * math.log(1.0 - ybar))
    pseudo = 1.0 - max(lnl, lnl0) / lnl0  # McFadden's pseudo R-squared

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


def _rows(sigmoid, y, z, mu, w, terms):
    """Into these rows: mu = sigmoid(z), w = mu (1 - mu), terms = log P(y)."""
    mu[...] = sigmoid(z)
    np.multiply(mu, 1.0 - mu, out=w)
    np.subtract(y * z, np.logaddexp(0.0, z), out=terms)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def load_design_csv(path) -> DesignMatrix:
    """Read an observation table: header row, features first, response last.

    Cells are decimal or exponent numbers, `nan` or `inf`, in ASCII,
    optionally double-quoted and surrounded by whitespace.  Blank lines are
    skipped and `#` is not a comment.  A bad row, including a cell with a
    byte that is not UTF-8 or over csv's field size limit, is an InputError
    naming `path:lineno`.  No handle holds the whole file: a text handle
    (UTF-8, bad bytes as lone surrogates) reads the header, then the rows
    cell by cell where np.loadtxt, reading `path`, cannot; a binary one
    scans for bytes 0x1C-0x1F, 1 MiB at a time.
    """
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        except csv.Error as exc:  # a field over csv's size limit
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None
        if len(header) < 2:
            raise InputError(f"{path}: need at least one feature column plus a response")
        table = None
        # loadtxt strips \x1c-\x1f around a number, which float() rejects.
        with open(path, "rb") as raw:
            separated = any(ch in part for part in iter(lambda: raw.read(1 << 20), b"")
                            for ch in b"\x1c\x1d\x1e\x1f")
        if not separated:
            with warnings.catch_warnings():
                # loadtxt warns when it finds blank rows only.
                warnings.simplefilter("ignore", UserWarning)
                try:
                    table = np.loadtxt(path, delimiter=",", quotechar='"', comments=None,
                                       ndmin=2, encoding="utf-8",
                                       skiprows=reader.line_num)  # the header's lines
                except ValueError:  # UnicodeDecodeError included
                    pass
        if table is None or table.shape[1] != len(header):
            table = _read_rows(path, reader, len(header))
    return DesignMatrix(features=table[:, :-1], response=table[:, -1])


def _read_rows(path, reader, width: int) -> np.ndarray:
    """The rows that csv `reader`, just past the header, reads, one cell at
    a time, or the InputError of the first bad row."""
    rows = []
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise InputError(f"{path}:{lineno}: expected {width} fields,"
                                 f" got {len(row)}")
            try:
                rows.append([_cell_value(v) for v in row])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
    except csv.Error as exc:  # a field over csv's size limit
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _cell_value(cell: str) -> float:
    """float(cell) in the syntax loadtxt reads: no `_` and no non-ASCII digits."""
    number = cell.strip()
    if "_" in number or not number.isascii():
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)
