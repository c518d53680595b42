import numpy as np
import pytest

from bubblefem.oracles import gauss_rule


def legendre_value(n, x):
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p if n >= 1 else p_prev


def bisect_legendre_root(n, lo, hi, iters=200):
    """Independent root finder for the degree-n Legendre polynomial."""
    flo = legendre_value(n, lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = legendre_value(n, mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def test_one_point_rule_is_midpoint():
    rule = gauss_rule(1)
    assert rule.points.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]


def test_two_point_rule_matches_bisection_root():
    root = bisect_legendre_root(2, 0.1, 0.9)
    rule = gauss_rule(2)
    assert rule.points == pytest.approx([-root, root], abs=1e-14)
    assert abs(root - 0.5773502692) < 1e-9
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-14)


def test_five_point_rule_monomials():
    rule = gauss_rule(5)
    assert np.sum(rule.weights * rule.points**9) == pytest.approx(0.0, abs=1e-13)
    assert np.sum(rule.weights * rule.points**8) == pytest.approx(2.0 / 9.0, abs=1e-13)


@pytest.mark.parametrize("n", range(1, 11))
def test_exactness_up_to_degree(n):
    rule = gauss_rule(n)
    for k in range(2 * n):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        got = float(np.sum(rule.weights * rule.points**k))
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


@pytest.mark.parametrize("n", range(1, 11))
def test_weights_positive_symmetric_sum_two(n):
    rule = gauss_rule(n)
    assert np.all(rule.weights > 0)
    assert abs(np.sum(rule.weights) - 2.0) <= 1e-14
    assert rule.points == pytest.approx(-rule.points[::-1], abs=0)
    assert rule.weights == pytest.approx(rule.weights[::-1], abs=0)
    assert np.all(rule.points > -1) and np.all(rule.points < 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_against_numpy_leggauss(n):
    rule = gauss_rule(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert rule.points == pytest.approx(ref_x, abs=5e-15)
    assert rule.weights == pytest.approx(ref_w, abs=5e-15)


@pytest.mark.parametrize("n", [0, -1, 11])
def test_rule_size_out_of_range(n):
    with pytest.raises(ValueError):
        gauss_rule(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_rule_is_shared_and_read_only(n):
    first = gauss_rule(n)
    again = gauss_rule(np.int64(n))
    assert again.points.tolist() == first.points.tolist()
    assert again.weights.tolist() == first.weights.tolist()
    assert not first.points.flags.writeable and not first.weights.flags.writeable
    with pytest.raises(ValueError):
        first.points[0] = 0.5
    # validation still runs in front of the memoised rules
    for bad in (0, 11, 2.0, "3", None):
        with pytest.raises(ValueError):
            gauss_rule(bad)
