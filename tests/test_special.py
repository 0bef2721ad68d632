"""Special-function contracts: values, domains, and quadrature normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats as sp_stats

from bibeta.families import FamilySpec, closed_form_logpdf, complement, marginal_params
from bibeta.special import BetaParams, log_beta, std_normal_cdf

# ln Gamma(10.1) to 25 significant digits, frozen from a high-precision
# evaluation made before this implementation existed
LOG_GAMMA_10_1 = 13.0275267386332379585137010


def stirling_log_gamma(x: float) -> float:
    """Independent oracle: Stirling series with recurrence shift.

    For x >= 12 the truncated asymptotic series with seven Bernoulli terms
    is accurate far beyond 1e-12; smaller arguments are shifted up with
    ln Gamma(x) = ln Gamma(x+k) - sum ln(x+i).
    """
    shift = 0.0
    while x < 12.0:
        shift -= math.log(x)
        x += 1.0
    # B_2n / (2n (2n-1) x^(2n-1)) terms
    coeffs = [
        1.0 / 12.0,
        -1.0 / 360.0,
        1.0 / 1260.0,
        -1.0 / 1680.0,
        1.0 / 1188.0,
        -691.0 / 360360.0,
        1.0 / 156.0,
    ]
    series = sum(c / x ** (2 * i + 1) for i, c in enumerate(coeffs))
    return shift + (x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi) + series


class TestLogGamma:
    """ln Gamma oracles, checked through log_beta = ln G(a) + ln G(b) - ln G(a+b)."""

    def test_gamma_of_one(self):
        assert log_beta(1.0, 1.0) == 0.0
        # B(x, 1) = 1/x; at 1e4 the sum cancels ln Gamma values of ~8e4
        for x in (0.3, 1.0, 2.5, 10.1):
            assert log_beta(x, 1.0) == pytest.approx(-math.log(x), rel=1e-14, abs=1e-15)
        assert log_beta(1e4, 1.0) == pytest.approx(-math.log(1e4), abs=1e-10)

    def test_gamma_of_half(self):
        # B(1/2, 1/2) = Gamma(1/2)^2 = pi
        assert log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), abs=1e-14)

    def test_frozen_high_precision_value(self):
        # ln B(10.1, 1/2) = ln Gamma(10.1) + ln sqrt(pi) - ln Gamma(10.6)
        expected = LOG_GAMMA_10_1 + 0.5 * math.log(math.pi) - stirling_log_gamma(10.6)
        assert log_beta(10.1, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_against_stirling_oracle(self):
        """Absolute error <= 1e-10 up to x = 1e4; relative <= 1e-13 beyond.

        Above ~1e4 the magnitude of ln Gamma makes 1e-10 absolute finer than
        one float64 ULP of the result, so only a relative bound is meaningful.
        """

        def oracle(a, b):
            return stirling_log_gamma(a) + stirling_log_gamma(b) - stirling_log_gamma(a + b)

        for x in [1e-3, 0.01, 0.1, 0.3, 0.9999, 1.5, 2.0, 5.0, 10.1, 47.3, 123.0, 999.5, 1e4]:
            for y in (x, 1.5):
                assert log_beta(x, y) == pytest.approx(oracle(x, y), abs=1e-10)
        for x in [3.1e4, 1e5, 1e6]:
            assert log_beta(x, x) == pytest.approx(oracle(x, x), rel=1e-13)

    @given(st.floats(min_value=0.1, max_value=50.0), st.floats(min_value=0.1, max_value=50.0))
    def test_recurrence(self, x, y):
        """Gamma(x+1) = x Gamma(x), so B(x+1, y) = B(x, y) x / (x+y)."""
        assert log_beta(x + 1.0, y) - log_beta(x, y) == pytest.approx(
            math.log(x) - math.log(x + y), rel=1e-9, abs=1e-9
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain(self, bad):
        """Shapes are validated where they enter: beta parameters and family alphas."""
        with pytest.raises(ValueError):
            BetaParams(bad, 1.0)
        with pytest.raises(ValueError):
            FamilySpec.ol_plus(bad, 1.0, 1.0)


class TestBetaParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BetaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaParams(1.0, -2.0)

    def test_moments_consistency(self):
        p = BetaParams(3.0, 0.3)
        assert p.raw_moment(1) == pytest.approx(p.mean, rel=1e-14)
        assert p.raw_moment(2) - p.mean**2 == pytest.approx(p.variance, rel=1e-12)

    def test_raw_moment_against_quadrature(self):
        p = BetaParams(2.5, 1.5)
        for k in range(1, 5):
            val, _ = integrate.quad(lambda x: x**k * sp_stats.beta.pdf(x, p.a, p.b), 0.0, 1.0)
            assert p.raw_moment(k) == pytest.approx(val, rel=1e-9)

    def test_swapped(self):
        """X ~ B(a, b) implies 1-X ~ B(b, a)."""
        spec = FamilySpec.independent(BetaParams(2.0, 5.0), BetaParams(1.0, 1.0))
        assert marginal_params(complement(spec, "x"))[0] == BetaParams(5.0, 2.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            BetaParams(bad, 1.0)
        with pytest.raises(ValueError):
            BetaParams(1.0, bad)


PARAM_GRID = [0.3, 1.0, 3.0, 10.1]


def beta_density(x, p):
    """B(a, b) density at x: the indep closed form with a uniform second coordinate.

    closed_form_logpdf's contract is the open square, so endpoints give the
    IEEE value of the formula: 0 or inf where the exponent decides it, NaN
    where a zero exponent meets log 0, NaN outside [0, 1].
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.exp(closed_form_logpdf(FamilySpec.independent(p, BetaParams(1, 1)), x, 0.5))


def beta2_density(v, p):
    """Beta-of-the-second-kind density through v = x/(1-x): f_B(v/(1+v))/(1+v)^2."""
    return beta_density(v / (1.0 + v), p) / (1.0 + v) ** 2


class TestBetaPdf:
    def test_uniform(self):
        assert beta_density(0.3, BetaParams(1, 1)) == pytest.approx(1.0, rel=1e-14)

    def test_symmetric_two_two(self):
        assert beta_density(0.5, BetaParams(2, 2)) == pytest.approx(1.5, rel=1e-13)

    @pytest.mark.parametrize("a", PARAM_GRID)
    @pytest.mark.parametrize("b", PARAM_GRID)
    def test_normalization(self, a, b):
        val, err = integrate.quad(lambda x: beta_density(x, BetaParams(a, b)), 0.0, 1.0, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_endpoints(self):
        assert beta_density(0.0, BetaParams(3, 0.3)) == 0.0
        assert beta_density(1.0, BetaParams(2, 2)) == 0.0
        # a zero exponent: the finite limit is reached just inside the square
        assert beta_density(1e-300, BetaParams(1, 2)) == pytest.approx(2.0)
        assert beta_density(1.0, BetaParams(3, 0.3)) == np.inf  # unbounded limit
        assert np.isnan(beta_density(1.2, BetaParams(2, 2)))
        assert np.isnan(beta_density(-0.1, BetaParams(2, 2)))


class TestBeta2Pdf:
    def test_at_zero_uniform_shapes(self):
        assert beta2_density(1e-300, BetaParams(1, 1)) == pytest.approx(1.0, rel=1e-14)

    def test_at_one_uniform_shapes(self):
        assert beta2_density(1.0, BetaParams(1, 1)) == pytest.approx(0.25, rel=1e-14)

    def test_closed_point(self):
        # Gamma(5)/(Gamma(3)Gamma(2)) * 2^2 * 3^-5 = 48/243
        assert beta2_density(2.0, BetaParams(3, 2)) == pytest.approx(48.0 / 243.0, rel=1e-13)

    @pytest.mark.parametrize("a", PARAM_GRID)
    @pytest.mark.parametrize("b", PARAM_GRID)
    def test_normalization(self, a, b):
        val, err = integrate.quad(
            lambda x: beta2_density(x, BetaParams(a, b)), 0.0, np.inf, limit=400
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_domain(self):
        assert np.isnan(beta2_density(-0.5, BetaParams(1, 1)))
        assert beta2_density(0.0, BetaParams(0.5, 1)) == np.inf  # unbounded at 0


class TestStdNormalCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_screening_ground_truth_values(self):
        # these two quantiles fix the synthetic ground truth (0.773, 0.599)
        assert std_normal_cdf(-0.75) == pytest.approx(1.0 - 0.7733726476231318, abs=1e-12)
        assert 1.0 - std_normal_cdf(-0.75) == pytest.approx(0.773, abs=5e-4)
        assert std_normal_cdf(0.25) == pytest.approx(0.5987063256829237, abs=1e-12)
        assert std_normal_cdf(0.25) == pytest.approx(0.599, abs=5e-4)

    def test_accuracy_against_scipy(self):
        from scipy.special import ndtr

        z = np.linspace(-8.0, 8.0, 1601)
        ours = np.array([std_normal_cdf(v) for v in z])
        assert np.max(np.abs(ours - ndtr(z))) < 1e-7

    @given(st.floats(min_value=-40.0, max_value=40.0))
    def test_symmetry(self, z):
        assert std_normal_cdf(z) + std_normal_cdf(-z) == pytest.approx(1.0, abs=1e-12)
