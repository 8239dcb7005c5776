"""Regression layer: OLS, IRLS logistic, and goodness-of-fit measures."""

import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _helpers
from _helpers import run_python, watchdog  # noqa: F401 (a fixture)
from memesim import decision, stats
from memesim.cli import main
from memesim.core import InputError
from memesim.stats import (
    DegenerateResponseError,
    DesignMatrix,
    SingularDesignError,
    UndefinedRSquaredError,
    load_design_csv,
    logistic_fit,
    ols_fit,
    r_squared,
)


# ---------------------------------------------------------------------------
# r_squared
# ---------------------------------------------------------------------------

def test_r_squared_perfect_fit():
    y = np.array([1.0, 2.0, 3.0, 5.0])
    assert r_squared(y, y) == 1.0


def test_r_squared_mean_predictor_is_zero():
    y = np.array([1.0, 2.0, 3.0, 6.0])
    y_hat = np.full_like(y, y.mean())
    assert r_squared(y, y_hat) == pytest.approx(0.0, abs=1e-15)


def test_r_squared_constant_response_undefined():
    with pytest.raises(UndefinedRSquaredError):
        r_squared(np.ones(5), np.zeros(5))


def test_r_squared_length_mismatch():
    with pytest.raises(InputError):
        r_squared(np.ones(5), np.ones(4))


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------

def test_ols_noiseless_line_is_exact():
    x = np.linspace(-3, 3, 20).reshape(-1, 1)
    y = 2 * x[:, 0] + 1
    fit = ols_fit(DesignMatrix(x, y))
    assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-8)
    assert fit.coefficients[1] == pytest.approx(2.0, abs=1e-8)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_ols_constant_response_errors():
    x = np.arange(10, dtype=float).reshape(-1, 1)
    with pytest.raises(UndefinedRSquaredError):
        ols_fit(DesignMatrix(x, np.full(10, 3.0)))


def test_ols_rank_deficient_design_errors():
    x = np.ones((10, 1))  # duplicates the implicit intercept column
    y = np.arange(10, dtype=float)
    with pytest.raises(SingularDesignError):
        ols_fit(DesignMatrix(x, y))


def test_ols_monte_carlo_recovery():
    # Oracle: data generated from known coefficients (3, -2, 0.5) with
    # sigma = 0.1 noise; with n = 1000 the standard errors are ~0.003.
    rng = np.random.default_rng(20240917)
    x = rng.normal(size=(1000, 2))
    y = 3.0 - 2.0 * x[:, 0] + 0.5 * x[:, 1] + rng.normal(0, 0.1, size=1000)
    fit = ols_fit(DesignMatrix(x, y))
    assert fit.coefficients[0] == pytest.approx(3.0, abs=0.02)
    assert fit.coefficients[1] == pytest.approx(-2.0, abs=0.02)
    assert fit.coefficients[2] == pytest.approx(0.5, abs=0.02)
    assert fit.converged


def test_ols_normal_equation_residual():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        fit = ols_fit(DesignMatrix(x, y))
        xb = np.column_stack([np.ones(200), x])
        resid = xb.T @ (y - xb @ np.array(fit.coefficients))
        assert np.max(np.abs(resid)) <= 1e-8 * max(np.max(np.abs(xb.T @ y)), 1.0)


def test_ols_scale_equivariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(300, 2))
    y = 1.0 + x[:, 0] - 2 * x[:, 1] + rng.normal(0, 0.5, size=300)
    base = ols_fit(DesignMatrix(x, y))
    c = 37.5
    scaled_x = x.copy()
    scaled_x[:, 1] *= c
    scaled = ols_fit(DesignMatrix(scaled_x, y))
    assert scaled.coefficients[2] == pytest.approx(base.coefficients[2] / c, rel=1e-9)
    assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-10)


# ---------------------------------------------------------------------------
# Logistic
# ---------------------------------------------------------------------------

def test_logistic_null_model():
    # Response independent of the feature: coefficients near 0, tiny pseudo-R2.
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5000, 1))
    y = (rng.random(5000) < 0.5).astype(float)
    fit = logistic_fit(DesignMatrix(x, y))
    assert fit.converged
    assert abs(fit.coefficients[0]) < 0.1
    assert abs(fit.coefficients[1]) < 0.1
    assert fit.mcfadden_pseudo_r2 <= 0.01


def test_logistic_monte_carlo_recovery():
    # Oracle: y ~ Bernoulli(sigmoid(-1 + 2x)), n = 5000.
    rng = np.random.default_rng(12)
    x = rng.normal(size=(5000, 1))
    p = 1.0 / (1.0 + np.exp(-(-1.0 + 2.0 * x[:, 0])))
    y = (rng.random(5000) < p).astype(float)
    fit = logistic_fit(DesignMatrix(x, y))
    assert fit.converged
    assert fit.coefficients[0] == pytest.approx(-1.0, abs=0.15)
    assert fit.coefficients[1] == pytest.approx(2.0, abs=0.15)
    assert 0.0 <= fit.mcfadden_pseudo_r2 < 1.0
    assert fit.ols_on_binary_r2 is not None


def test_logistic_single_class_rejected():
    x = np.arange(10, dtype=float).reshape(-1, 1)
    with pytest.raises(DegenerateResponseError):
        logistic_fit(DesignMatrix(x, np.ones(10)))


def test_logistic_nonbinary_rejected():
    x = np.arange(10, dtype=float).reshape(-1, 1)
    with pytest.raises(InputError):
        logistic_fit(DesignMatrix(x, np.arange(10, dtype=float)))


def test_logistic_separated_data_gives_finite_fit(tmp_path):
    # Without the ridge the likelihood of perfectly separated data has no
    # finite maximum; with it the fit converges to the penalized optimum.
    x = np.array([[-2.0], [-1.0], [1.0], [2.0], [3.0], [-3.0]])
    y = (x[:, 0] > 0).astype(float)
    fit = logistic_fit(DesignMatrix(x, y))
    assert fit.converged
    beta = np.array(fit.coefficients)
    assert np.all(np.isfinite(beta))
    xb = np.column_stack([np.ones(6), x])
    mu = 1.0 / (1.0 + np.exp(-(xb @ beta)))
    grad = xb.T @ (y - mu) - np.array([0.0, 1e-6]) * beta
    assert np.max(np.abs(grad)) <= 1e-8

    data = tmp_path / "separated.csv"
    data.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in zip(x[:, 0], y)))
    assert main(["fit", "--data", str(data), "--model", "logistic",
                 "--out", str(tmp_path / "fit.json")]) == 0


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(800, 2))
    p = 1.0 / (1.0 + np.exp(-(0.5 - x[:, 0] + 0.7 * x[:, 1])))
    y = (rng.random(800) < p).astype(float)
    fit = logistic_fit(DesignMatrix(x, y))
    beta = np.array(fit.coefficients)
    xb = np.column_stack([np.ones(800), x])
    mu = 1.0 / (1.0 + np.exp(-(xb @ beta)))
    analytic = xb.T @ (y - mu)
    h = 1e-5
    for j in range(3):
        up, dn = beta.copy(), beta.copy()
        up[j] += h
        dn[j] -= h
        fd = (_helpers.logistic_log_likelihood(up, x, y)
              - _helpers.logistic_log_likelihood(dn, x, y)) / (2 * h)
        scale = max(abs(fd), 1.0)
        assert abs(analytic[j] - fd) / scale <= 1e-4


def test_logistic_scale_equivariance():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(2000, 2))
    p = 1.0 / (1.0 + np.exp(-(0.3 + 0.8 * x[:, 0] - 0.5 * x[:, 1])))
    y = (rng.random(2000) < p).astype(float)
    base = logistic_fit(DesignMatrix(x, y))
    c = 12.0
    scaled_x = x.copy()
    scaled_x[:, 0] *= c
    scaled = logistic_fit(DesignMatrix(scaled_x, y))
    assert scaled.coefficients[1] == pytest.approx(base.coefficients[1] / c, rel=1e-6)
    assert scaled.mcfadden_pseudo_r2 == pytest.approx(base.mcfadden_pseudo_r2,
                                                      abs=1e-10)
    assert scaled.ols_on_binary_r2 == pytest.approx(base.ols_on_binary_r2,
                                                    abs=1e-10)


def test_logistic_converges_with_gradient_below_tol():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(1000, 1))
    p = 1.0 / (1.0 + np.exp(-(0.2 + x[:, 0])))
    y = (rng.random(1000) < p).astype(float)
    fit = logistic_fit(DesignMatrix(x, y))
    assert fit.converged
    beta = np.array(fit.coefficients)
    xb = np.column_stack([np.ones(1000), x])
    mu = 1.0 / (1.0 + np.exp(-(xb @ beta)))
    grad = xb.T @ (y - mu) - np.array([0.0, 1e-6]) * beta
    assert np.max(np.abs(grad)) <= 1e-8


# Fits the benchmark's logistic tables of seeds 812 and 813 (300k rows
# each) and prints, per seed, whether the fit converged, its iterations and
# its largest coefficient error against the generator's tolerance.
_FIT_BENCHMARK_TABLES = """
import importlib.util, sys
from memesim import stats
spec = importlib.util.spec_from_file_location("gen", sys.argv[1])
gen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen)
for seed in (812, 813):
    path = f"{sys.argv[2]}/logistic{seed}.csv"
    truth = gen.make_fit_table(seed, "logistic", path)
    fit = stats.logistic_fit(stats.load_design_csv(path))
    error = max(abs(a - b) for a, b in zip(fit.coefficients, truth["coefficients"]))
    print(seed, fit.converged, fit.iterations, error <= truth["tolerance"])
"""


def test_logistic_takes_a_full_step_whose_gain_is_below_rounding(tmp_path):
    # On seed 813 a full Newton step is predicted to gain 5e-21 at a
    # log-likelihood of -1.6e5, whose ulp is 3e-11: comparing the two
    # log-likelihoods is rounding, and halving the step stalled the
    # gradient at 1.2e-8 for all 100 iterations.  Seed 812 takes the same
    # step with no halving.  In a child process with one BLAS thread, as
    # the benchmark runs it: the stall depends on the rounding of x @ beta.
    gen = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    proc = run_python("-c", _FIT_BENCHMARK_TABLES, str(gen), str(tmp_path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    (_, ok812, it812, near812), (_, ok813, it813, near813) = (
        line.split() for line in proc.stdout.splitlines())
    assert ok812 == near812 == ok813 == near813 == "True", proc.stdout
    assert int(it812) == 6 and int(it813) <= 8, proc.stdout


def test_rows_in_two_parts_match_one_pass():
    # Each element of a candidate's elementwise passes comes out the same
    # whichever part of the rows it is computed in.
    rng = np.random.default_rng(4)
    n = 64 * 41 + 13
    z = np.concatenate([[0.0, -0.0, 745.0, -745.0, 36.0, -36.0, 1e-300],
                        rng.normal(0, 8, n - 7)])
    y = (rng.random(n) < 0.5).astype(float)
    whole = [np.empty(n) for _ in range(3)]
    stats._rows(decision.sigmoid_array, y, z, *whole)
    parts = [np.empty(n) for _ in range(3)]
    for cut in (0, 64 * 20, n):
        stats._rows(decision.sigmoid_array, y[:cut], z[:cut], *(a[:cut] for a in parts))
        stats._rows(decision.sigmoid_array, y[cut:], z[cut:], *(a[cut:] for a in parts))
        for got, want in zip(parts, whole):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_logistic_fit_runs_its_rows_on_a_helper_it_joins(watchdog, monkeypatch):
    # The helper runs half of every candidate's rows, with the unwrapped
    # sigmoid: the name a profiler wraps, stats.sigmoid_array, runs on the
    # calling thread only, and no thread outlives the call.
    rows, sigmoids = [], []
    real_rows, real_sigmoid = stats._rows, stats.sigmoid_array

    def recorded_rows(sigmoid, *args):
        rows.append((threading.current_thread(), sigmoid))
        return real_rows(sigmoid, *args)

    def recorded_sigmoid(z):
        sigmoids.append(threading.current_thread())
        return real_sigmoid(z)

    monkeypatch.setattr(stats, "_rows", recorded_rows)
    monkeypatch.setattr(stats, "sigmoid_array", recorded_sigmoid)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5000, 2))
    y = (rng.random(5000) < 1 / (1 + np.exp(-x[:, 0]))).astype(float)
    before = threading.enumerate()
    fit = logistic_fit(DesignMatrix(x, y))
    assert threading.enumerate() == before
    assert fit.converged
    caller = threading.current_thread()
    assert {thread for thread, _ in rows} - {caller}
    assert all((thread is caller) == (sigmoid is recorded_sigmoid) for thread, sigmoid in rows)
    assert set(sigmoids) == {caller}


# Makes the helper's rows job raise, then prints what logistic_fit raised,
# whether every call ran on the main thread, and how many threads are left.
_FAILING_ROWS = """
import threading
import numpy as np
from memesim import stats
real, calls = stats._rows, []
def rows(*args):
    calls.append(threading.current_thread() is threading.main_thread())
    if not calls[-1]:
        raise FloatingPointError("rows failed")
    return real(*args)
stats._rows = rows
rng = np.random.default_rng(1)
x = rng.normal(size=(500, 2))
y = (rng.random(500) < 0.5).astype(float)
try:
    stats.logistic_fit(stats.DesignMatrix(x, y))
except FloatingPointError as exc:
    print(exc, all(calls), threading.active_count())
"""


def test_helper_error_is_raised_by_logistic_fit():
    # In a child process, so that a helper that hangs ends in the timeout
    # rather than hanging the session.
    proc = run_python("-c", _FAILING_ROWS, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rows failed False 1\n"


# ---------------------------------------------------------------------------
# DesignMatrix / CSV
# ---------------------------------------------------------------------------

def test_design_matrix_validation():
    with pytest.raises(InputError):
        DesignMatrix(np.ones((3, 3)), np.ones(3))  # n <= k
    with pytest.raises(InputError):
        DesignMatrix(np.array([[np.nan]] * 5), np.ones(5))
    with pytest.raises(InputError):
        DesignMatrix(np.ones((5, 1)), np.ones(4))


def test_load_design_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,y\n1,2,3\n4,5,6\n7,8,10\n0,1,2\n")
    design = load_design_csv(path)
    assert design.features.shape == (4, 2)
    assert list(design.response) == [3.0, 6.0, 10.0, 2.0]


def test_load_design_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n1,2\n3\n")
    with pytest.raises(InputError):
        load_design_csv(path)


@pytest.mark.parametrize("text,table", [
    # blank rows are skipped, whatever their line end
    ("x,y\n1,2\n\n3,4\r\n\r\n5,6\r\n\n", [[1, 2], [3, 4], [5, 6]]),
    # quoted numbers and surrounding whitespace
    ('x,y\n"1",2\n 3 ,"\t4 "\n5e0,+6.\n\u00a07,8\u2003\n',
     [[1, 2], [3, 4], [5, 6], [7, 8]]),
    ("x,y\n1,2\n3,4", [[1, 2], [3, 4]]),
    ("x,y\n1,2\n#3,4\n", ":3: could not convert string to float: '#3'"),
    ("x,y\n", ": no data rows"),
    ("x,y\n\n\r\n", ": no data rows"),
    ("x,y\n1,2\n3\n", ":3: expected 2 fields, got 1"),
    ("x,y\n1,2\n3,4,5\n", ":3: expected 2 fields, got 3"),
    ("x,y,z\n1,2\n3,4\n", ":2: expected 3 fields, got 2"),
    ("x,y\n1,2\n  \n", ":3: expected 2 fields, got 1"),
    ("x,y\n \r\n", ":2: expected 2 fields, got 1"),
    ("x,y\n1,2\n3,a\n", ":3: could not convert string to float: 'a'"),
    ("x,y\n1,2\n3,\n", ":3: could not convert string to float: ''"),
    ("x,y\n1,2\n3\x1c,4\n", ":3: could not convert string to float: '3\\x1c'"),
    ("y\n1\n2\n", ": need at least one feature column plus a response"),
    ("", ": empty file"),
], ids=["blank-rows", "quotes-and-whitespace", "no-final-newline",
        "hash-not-comment", "header-only", "header-and-blank-rows", "short-row",
        "long-row", "short-rows", "whitespace-row", "whitespace-only-row",
        "non-numeric", "empty-cell", "separator-control", "one-column",
        "empty-file"])
@pytest.mark.filterwarnings("error")
def test_load_design_csv_semantics(tmp_path, text, table):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    if isinstance(table, str):
        with pytest.raises(InputError) as err:
            load_design_csv(path)
        assert str(err.value) == f"{path}{table}"
    else:
        design = load_design_csv(path)
        assert design.features.tolist() == [row[:-1] for row in table]
        assert design.response.tolist() == [row[-1] for row in table]


def test_load_design_csv_holds_about_one_table(tmp_path):
    # The file is read by handles and loadtxt, never held whole beside the
    # table: the traced peak is within 1.6 times the returned arrays' bytes.
    path = tmp_path / "data.csv"
    x = np.random.default_rng(6).normal(size=(50_000, 4))
    path.write_text("a,b,c,y\n" + "".join(f"{a:.6f},{b:.6f},{c:.6f},{y:.6f}\n"
                                          for a, b, c, y in x.tolist()))
    tracemalloc.start()
    try:
        design = load_design_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(np.column_stack([design.features, design.response]), x, atol=1e-6)
    table_bytes = design.features.nbytes + design.response.nbytes
    assert peak <= 1.6 * table_bytes, (peak, table_bytes, path.stat().st_size)


@pytest.mark.parametrize("cell", ["7_0", "\u0663"])
def test_load_design_csv_reads_ascii_numbers_only(tmp_path, cell):
    # float() reads these; the table reader does not.
    path = tmp_path / "data.csv"
    path.write_text(f"x,y\n1,2\n{cell},4\n5,6\n", encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_design_csv(path)
    assert str(err.value) == f"{path}:3: could not convert string to float: {cell!r}"


def _cell_text(draw):
    value = draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
    style = draw(st.sampled_from([repr, "{:.6f}".format, "{:e}".format, "{:g}".format,
                                  lambda v: str(int(v)) if abs(v) < 1e15 else repr(v)]))
    text = style(value)
    pad = draw(st.sampled_from(["", " ", "\t", "\u00a0", "\u2003"]))
    text = pad + text + draw(st.sampled_from(["", pad]))
    return f'"{text}"' if draw(st.booleans()) else text


CELL_MUTATIONS = ["a", "", "#1", "1 2", "0x10", "nan", "-inf", "1_0", "\u0663",
                  "\x1c1", "1\x1f", '"1"5', '1"5', ' "1"', "1e", "\u00b2"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_design_csv_matches_csv_float_reference(tmp_path_factory, data):
    draw = data.draw
    width = draw(st.integers(2, 4))
    rows = [[_cell_text(draw) for _ in range(width)]
            for _ in range(draw(st.integers(1, 8)))]
    mutation = draw(st.sampled_from([None, "cell", "ragged", "blank", "spaces"]))
    i = draw(st.integers(0, len(rows) - 1))
    if mutation == "cell":
        rows[i][draw(st.integers(0, width - 1))] = draw(st.sampled_from(CELL_MUTATIONS))
    elif mutation == "ragged":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    lines = [",".join(row) for row in rows]
    if mutation in ("blank", "spaces"):
        lines.insert(i, "" if mutation == "blank" else " ")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join([",".join(f"x{j}" for j in range(width)), *lines])
    text += draw(st.sampled_from(["", end]))
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("utf-8"))

    def outcome(load):
        try:
            design = load(path)
        except InputError as exc:
            return "error", str(exc)
        return "ok", design.features.tolist(), design.response.tolist()

    new, reference = outcome(load_design_csv), outcome(_helpers.load_design_csv)
    if new != reference:
        # The one narrowing: cells with `_` separators or non-ASCII digits fail.
        assert new[0] == "error", (new, reference)
        assert "_" in text or any(ch.isdigit() and not ch.isascii() for ch in text)
