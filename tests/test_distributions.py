import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from ordquant import distributions
from ordquant.distributions import _TAIL_CUTOFF, sample_gig, sample_trunc_normal, sld_cdf

from .oracles import gig_moment, ks_vs_cdf, ks_vs_log_kernel, sld_cdf_two_branch, sld_density


def rng(seed=0):
    return np.random.default_rng(seed)


class TestSldDensity:
    def test_at_zero(self):
        assert sld_density(0.0, 0.5) == pytest.approx(0.25)

    def test_median_unit_loss(self):
        assert sld_density(2.0, 0.5) == pytest.approx(0.25 * np.exp(-1.0))

    @pytest.mark.parametrize("theta", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_integrates_to_one(self, theta):
        # split at the kink so adaptive quadrature converges on each branch
        left, _ = quad(lambda e: sld_density(e, theta), -np.inf, 0.0, limit=200)
        right, _ = quad(lambda e: sld_density(e, theta), 0.0, np.inf, limit=200)
        assert left + right == pytest.approx(1.0, abs=1e-8)

    def test_finite_window_mass_at_midrange_theta(self):
        # over [-50, 50] at theta = 0.3 the missing mass is the analytic tails
        total, _ = quad(lambda e: sld_density(e, 0.3), -50, 50, limit=200)
        tails = 0.7 * np.exp(-0.3 * 50) + 0.3 * np.exp(-0.7 * 50)
        assert total == pytest.approx(1.0 - tails, abs=1e-8)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestSldCdf:
    def test_anchored_at_quantile_level(self):
        assert sld_cdf(np.array([0.0]), 0.25) == pytest.approx([0.25])

    def test_upper_limit(self):
        big, inf = sld_cdf(np.array([1e8, np.inf]), 0.5)
        assert big == pytest.approx(1.0)
        assert inf == 1.0

    def test_value_matches_quadrature(self):
        # integral of the density over (-inf, 1] at theta = 0.5
        left, _ = quad(lambda e: sld_density(e, 0.5), -60, 1.0, limit=200)
        cdf = sld_cdf(np.array([1.0]), 0.5)[0]
        assert cdf == pytest.approx(1.0 - 0.5 * np.exp(-0.5), abs=1e-12)
        assert cdf == pytest.approx(left, abs=1e-8)

    def test_monotone(self):
        e = np.linspace(-20, 20, 2001)
        assert np.all(np.diff(sld_cdf(e, 0.3)) >= 0.0)

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_theta(self, theta):
        with pytest.raises(ValueError, match="quantile level must lie in"):
            sld_cdf(np.array([1.0]), theta)

    @pytest.mark.parametrize("theta", [0.05, 0.25, 0.3, 0.5, 0.7, 0.95, 1e-9])
    def test_bits_match_two_branch_reference(self, theta):
        special = [-np.inf, np.inf, -0.0, 0.0, -5e-324, 5e-324, -1e308, 1e308, np.nan, -745.0, 745.0]
        eps = np.concatenate([special, np.random.default_rng(8).normal(0.0, 30.0, 20000 - len(special))])
        want = sld_cdf_two_branch(eps, theta)
        assert sld_cdf(eps, theta).tobytes() == want.tobytes()
        assert sld_cdf(eps.reshape(100, -1), theta).tobytes() == want.tobytes()
        assert [sld_cdf(np.array([e]), theta)[0] for e in special[:8]] == want[:8].tolist()

    @given(
        st.floats(-20, 20), st.floats(-20, 20),
        st.sampled_from([0.1, 0.3, 0.5, 0.8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_antiderivative_of_density(self, a, b, theta):
        lo, hi = min(a, b), max(a, b)
        # split at the kink; one adaptive pass across it can misjudge its error
        pieces = sorted({lo, hi, min(max(0.0, lo), hi)})
        integral = sum(
            quad(lambda e: sld_density(e, theta), u, w, limit=200)[0]
            for u, w in zip(pieces, pieces[1:])
        )
        at_lo, at_hi = sld_cdf(np.array([lo, hi]), theta)
        assert at_hi - at_lo == pytest.approx(integral, abs=1e-8)

    def test_mixture_representation_matches_cdf(self):
        # exponential-rate theta(1-theta) mixing plus conditional normal
        theta = 0.3
        g = rng(7)
        v = g.exponential(1.0 / (theta * (1.0 - theta)), size=100000)
        eps = g.normal((1.0 - 2.0 * theta) * v, np.sqrt(2.0 * v))
        assert ks_vs_cdf(eps, lambda e: sld_cdf(e, theta)) < 0.01


class TestSampleGig:
    def test_half_order_mean(self):
        draws = sample_gig(0.5, np.full(100000, 1.0), 1.0, rng(1))
        assert draws.mean() == pytest.approx(2.0, rel=0.02)

    def test_support(self):
        draws = sample_gig(0.5, np.full(20000, 0.3), 2.5, rng(2))
        assert np.all(draws > 0.0)

    def test_ks_against_quadrature_cdf(self):
        draws = sample_gig(0.5, np.full(100000, 2.0), 3.0, rng(3))
        lk = lambda x: -0.5 * np.log(x) - 0.5 * (4.0 / x + 9.0 * x)
        assert ks_vs_log_kernel(draws, lk, 1e-6, 15.0) < 0.01

    @pytest.mark.parametrize("rho1", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("rho2", [0.1, 1.0, 10.0])
    def test_moment_grid(self, rho1, rho2):
        draws = sample_gig(0.5, np.full(100000, rho1), rho2, rng(int(rho1 * 1000 + rho2 * 10)))
        assert draws.mean() == pytest.approx(gig_moment(1, rho1, rho2), rel=0.02)
        assert np.mean(draws ** 2) == pytest.approx(gig_moment(2, rho1, rho2), rel=0.02)

    @pytest.mark.parametrize("nu", [-0.5, 2.0])
    def test_other_orders_raise(self, nu):
        with pytest.raises(ValueError, match="nu = 1/2"):
            sample_gig(nu, np.full(10, 1.5), 0.8, rng(4))

    def test_vectorized_parameters(self):
        r1 = np.array([0.5, 1.0, 2.0])
        draws = sample_gig(0.5, r1, 1.0, rng(6))
        assert draws.shape == (3,)
        assert np.all(draws > 0.0)

    @pytest.mark.parametrize("rho1,rho2", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_invalid_parameters(self, rho1, rho2):
        with pytest.raises(ValueError):
            sample_gig(0.5, rho1, rho2, rng(0))


class TestSampleTruncNormal:
    def test_half_line_mean(self):
        draws = sample_trunc_normal(np.zeros(100000), 1.0, -np.inf, 0.0, rng(1))
        assert draws.mean() == pytest.approx(-np.sqrt(2.0 / np.pi), rel=0.02)
        assert np.all(draws < 0.0)

    def test_interval_support(self):
        draws = sample_trunc_normal(np.full(20000, 5.0), 4.0, 0.0, 1.0, rng(2))
        assert np.all((draws > 0.0) & (draws < 1.0))

    def test_symmetric_interval_mean(self):
        draws = sample_trunc_normal(np.zeros(100000), 1.0, -0.1, 0.1, rng(3))
        assert abs(draws.mean()) < 0.01

    def test_ks_in_body(self):
        draws = sample_trunc_normal(np.full(100000, 1.0), 4.0, -1.0, 2.5, rng(4))
        a, b = (-1.0 - 1.0) / 2.0, (2.5 - 1.0) / 2.0
        z = lambda x: (x - 1.0) / 2.0
        cdf = lambda x: (ndtr(z(x)) - ndtr(a)) / (ndtr(b) - ndtr(a))
        assert ks_vs_cdf(draws, cdf) < 0.01

    def test_ks_in_far_tail(self):
        draws = sample_trunc_normal(np.zeros(100000), 1.0, 6.0, 7.0, rng(5))
        lk = lambda x: -0.5 * x * x
        assert ks_vs_log_kernel(draws, lk, 6.0, 7.0) < 0.01

    def test_mass_zero_interval_is_finite_and_inside(self):
        # both bounds far beyond 8 sigma on the same side
        draws = sample_trunc_normal(np.zeros(5000), 1.0, 10.0, 10.5, rng(6))
        assert np.all(np.isfinite(draws))
        assert np.all((draws > 10.0) & (draws < 10.5))
        one = sample_trunc_normal(np.zeros(1), 1.0, -45.0, -44.0, rng(7))
        assert -45.0 < one[0] < -44.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            sample_trunc_normal(0.0, 1.0, 1.0, 1.0, rng(0))
        with pytest.raises(ValueError):
            sample_trunc_normal(0.0, -1.0, 0.0, 1.0, rng(0))

    def test_broadcasting(self):
        lower = np.array([-np.inf, 0.0, 5.0])
        upper = np.array([0.0, 1.0, np.inf])
        draws = sample_trunc_normal(0.0, 1.0, lower, upper, rng(8))
        assert draws.shape == (3,)
        assert np.all((draws > lower) & (draws <= upper))


class TestTruncNormalPaths:
    """All-body inputs take one unmasked inverse-CDF pass; any tail element
    switches to the masked path, which draws the body elements first."""

    def body_inputs(self, n=500):
        g = rng(11)
        mean = g.normal(size=n)
        variance = g.uniform(0.2, 3.0, size=n)
        lower = mean - g.uniform(0.0, 3.0, size=n) * np.sqrt(variance)
        upper = lower + g.uniform(0.01, 5.0, size=n)
        upper[::7] = np.inf
        lower[::5] = -np.inf
        return mean, variance, lower, upper

    def test_unmasked_path_matches_masked_path_bit_for_bit(self, monkeypatch):
        mean, variance, lower, upper = self.body_inputs()
        fast = sample_trunc_normal(mean, variance, lower, upper, rng(12))
        tails = []
        monkeypatch.setattr(distributions, "_tn_tail", lambda a, b, g: tails.append(a.size) or a + 0.5)
        # One interval 6 SDs out sends the call down the masked path; its
        # body draws come first, from the same stream.
        masked = sample_trunc_normal(np.append(mean, 0.0), np.append(variance, 1.0),
                                     np.append(lower, 6.0), np.append(upper, 7.0), rng(12))
        assert tails == [1]
        assert fast.tobytes() == masked[:-1].tobytes()

    def test_tail_elements_take_tail_branch_and_stay_inside(self, monkeypatch):
        mean, variance, lower, upper = self.body_inputs()
        far = np.arange(0, mean.size, 50)
        offset = (_TAIL_CUTOFF + 6.0) * np.sqrt(variance[far])
        width = 0.5 * np.sqrt(variance[far])
        lower[far], upper[far] = mean[far] + offset, mean[far] + offset + width
        low = far[::2]  # every other one sits in the lower tail instead
        lower[low], upper[low] = mean[low] - offset[::2] - width[::2], mean[low] - offset[::2]
        calls = []
        real_tail = distributions._tn_tail
        monkeypatch.setattr(distributions, "_tn_tail", lambda a, b, g: calls.append(a.size) or real_tail(a, b, g))
        draws = sample_trunc_normal(mean, variance, lower, upper, rng(13))
        assert calls == [far.size // 2, far.size // 2]  # upper tail, then lower tail
        assert np.all(np.isfinite(draws))
        assert np.all((draws > lower) & (draws < upper))


    @pytest.mark.parametrize("with_tail", [False, True])
    def test_final_clip_matches_clipping_every_draw(self, monkeypatch, with_tail):
        # Pre-clip draws placed at, one ulp inside and past each bound,
        # including bounds of -0.0 and 0.0 and infinite bounds.
        inf, up, down = np.inf, lambda v: np.nextafter(v, inf), lambda v: np.nextafter(v, -inf)
        cases = [  # (lower, upper, standardized draw)
            (1.0, 2.0, 1.0), (1.0, 2.0, 2.0), (1.0, 2.0, up(1.0)), (1.0, 2.0, down(2.0)),
            (1.0, 2.0, 0.5), (1.0, 2.0, 2.5), (-0.0, 1.0, 0.0), (-0.0, 1.0, -0.0),
            (0.0, 1.0, 5e-324), (-1.0, 0.0, -0.0), (-1.0, -0.0, 0.0), (-1.0, -0.0, -5e-324),
            (-inf, inf, 0.3), (-inf, inf, -inf), (-inf, inf, inf), (-inf, 0.5, 0.5), (0.5, inf, 0.5),
        ]
        lower, upper, values = (np.array(c) for c in zip(*cases))
        mean, variance = np.zeros(len(cases)), np.ones(len(cases))
        mean[:2], variance[:2] = 0.25, 2.0  # draw * sd + mean lands exactly on a bound
        lower[:2], upper[:2] = 0.25 + np.sqrt(2.0) * np.array([1.0, -1.0]), 0.25 + np.sqrt(2.0) * 2.0
        if with_tail:  # one interval beyond the cutoff takes the tail branch and lands on its bound
            mean, variance = np.append(mean, 0.0), np.append(variance, 1.0)
            lower, upper, values = np.append(lower, 6.0), np.append(upper, 7.0), np.append(values, 6.0)
        tail = lower - mean > _TAIL_CUTOFF * np.sqrt(variance)
        monkeypatch.setattr(distributions, "_tn_body", lambda a, b, g: values[~tail].copy())
        monkeypatch.setattr(distributions, "_tn_tail", lambda a, b, g: values[tail].copy())
        got = distributions._trunc_normal(mean, variance, lower, upper, rng(0))
        z = values * np.sqrt(variance) + mean
        want = np.clip(z, np.nextafter(lower, np.inf), np.nextafter(upper, -np.inf))
        assert got.tobytes() == want.tobytes()
        assert 0 < np.sum(want != z) < len(z)

class TestReproducibility:
    def test_identical_seed_identical_draws(self):
        a = sample_gig(0.5, np.full(100, 1.3), 0.9, rng(42))
        b = sample_gig(0.5, np.full(100, 1.3), 0.9, rng(42))
        np.testing.assert_array_equal(a, b)
        a = sample_trunc_normal(np.full(100, 0.5), 2.0, -1.0, 9.0, rng(42))
        b = sample_trunc_normal(np.full(100, 0.5), 2.0, -1.0, 9.0, rng(42))
        np.testing.assert_array_equal(a, b)
