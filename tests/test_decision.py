"""Sharing model: the logistic share probability and the share decision.

Share probabilities are checked on the scalar contract path in _helpers,
which the engine's batched path must match bit for bit (test_engine).
"""

import numpy as np
import pytest

from _helpers import share_probability, sigmoid
from memesim.core import InputError, RngStream, StreamLabel
from memesim.decision import SharingModel, sigmoid_array
from memesim.engine import SimConfig


def _f(h=0.0, r=0.0, s=0.0):
    return (h, r, s)


# ---------------------------------------------------------------------------
# share_probability
# ---------------------------------------------------------------------------

def test_all_zero_coefficients_give_half():
    model = SharingModel(0, 0, 0, 0)
    assert share_probability(model, _f(3.0, -2.0, 0.5)) == 0.5


def test_humor_two_matches_high_precision_logistic():
    model = SharingModel(0, 1, 0, 0)
    # 1/(1 + e^-2) evaluated at 30 digits: 0.880797077977882444...
    assert share_probability(model, _f(h=2.0)) == pytest.approx(
        0.8807970779778823, abs=1e-12)


def test_monotone_in_positive_coefficient():
    model = SharingModel(-1.0, 0.7, 0.2, 0.1)
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = float(rng.normal())
        lo = share_probability(model, _f(h=a))
        hi = share_probability(model, _f(h=a + 1))
        assert hi > lo


def test_monotonicity_follows_coefficient_sign():
    rng = np.random.default_rng(1)
    for _ in range(100):
        coefs = rng.normal(size=4)
        model = SharingModel(*coefs)
        base = rng.normal(size=3)
        for j, w in enumerate(coefs[1:]):
            if w == 0:
                continue
            bumped = base.copy()
            bumped[j] += 0.5
            p0 = share_probability(model, _f(*base))
            p1 = share_probability(model, _f(*bumped))
            assert (p1 > p0) == (w > 0)


def test_logistic_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(100):
        model = SharingModel(*rng.normal(size=4))
        f = _f(*rng.normal(size=3))
        negated = SharingModel(-model.intercept, -model.w_humor,
                               -model.w_relevance, -model.w_selfref)
        total = share_probability(model, f) + share_probability(negated, f)
        assert total == pytest.approx(1.0, abs=1e-15)


def test_nonfinite_feature_rejected():
    model = SharingModel(0, 1, 1, 1)
    with pytest.raises(InputError):
        share_probability(model, _f(h=float("nan")))
    with pytest.raises(InputError):
        share_probability(model, _f(r=float("inf")))


def test_nonfinite_coefficient_rejected():
    # SharingModel is plain data: SimConfig.validate() names a bad coefficient.
    for value in (float("nan"), float("inf"), "x", True):
        bad = SimConfig(sharing_model=SharingModel(value, 0, 0, 0)).validate()
        assert bad == [("sharing_model.intercept", "must be a finite real")]


def test_extreme_intercept_saturates_cleanly():
    assert share_probability(SharingModel(-1e6, 0, 0, 0), _f()) == 0.0
    assert share_probability(SharingModel(1e6, 0, 0, 0), _f()) == 1.0


def test_sigmoid_array_matches_scalar():
    z = np.linspace(-40, 40, 401)
    vec = sigmoid_array(z)
    assert np.array_equal(vec, np.array([sigmoid(v) for v in z]))


def test_sigmoid_array_is_bitwise_the_two_division_formula():
    # One division of np.where(z >= 0, 1, t) by 1 + t is the same IEEE
    # operation on the same operands as the two-branch form it replaced.
    tiny = np.finfo(np.float64).tiny
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
               tiny, -tiny, tiny / 3, -tiny / 3, 36.7, -36.7, 709.8, -709.8,
               745.2, -745.2, 1e308, -1e308]
    z = np.concatenate([special, np.random.default_rng(3).normal(0, 30, 10_000)])
    t = np.exp(-np.abs(z))
    old = np.where(z >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    assert np.array_equal(sigmoid_array(z).view(np.uint64), old.view(np.uint64))


# ---------------------------------------------------------------------------
# Share decision: a pair with probability p shares when its decisions-stream
# uniform u satisfies u < p.
# ---------------------------------------------------------------------------

def _decide(rng, p, n):
    return rng.uniforms(n) < p


def test_decide_share_degenerate_probabilities():
    rng = RngStream(0, StreamLabel.DECISIONS)
    assert not _decide(rng, 0.0, 100).any()
    assert _decide(rng, 1.0, 100).all()


def test_decide_share_frequency():
    rng = RngStream(8, StreamLabel.DECISIONS)
    hits = int(_decide(rng, 0.5, 10_000).sum())
    assert abs(hits / 10_000 - 0.5) < 0.015  # 3-sigma binomial bound


def test_decide_share_reproducible():
    a = RngStream(77, StreamLabel.DECISIONS)
    b = RngStream(77, StreamLabel.DECISIONS)
    assert np.array_equal(_decide(a, 0.3, 50), _decide(b, 0.3, 50))


def test_decide_share_converges_at_binomial_rate():
    for p in (0.1, 0.7):
        rng = RngStream(5, StreamLabel.DECISIONS)
        n = 20_000
        freq = _decide(rng, p, n).mean()
        assert abs(freq - p) <= 3 * np.sqrt(p * (1 - p) / n)
