import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanfuse import spectral
from ramanfuse.dataio import HyperspectralCube
from ramanfuse.errors import DegenerateFit, EmptyMask, SpectrumTooShort, ZeroVariance
from ramanfuse.spectral import (
    detect_bad_pixels,
    fit_pretreatment,
    median_spectrum,
    msc,
    parse_pretreatment,
    remove_fluorescence,
    savitzky_golay,
    snv,
    standard_menu,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestSnv:
    def test_reference_example(self):
        assert np.allclose(snv(np.array([2.0, 4.0, 6.0])), [-1.0, 0.0, 1.0])

    @given(st.lists(finite_floats, min_size=3, max_size=40))
    def test_matches_direct_formula(self, vals):
        x = np.asarray(vals)
        if np.std(x, ddof=1) < 1e-9:
            return
        expect = (x - x.mean()) / x.std(ddof=1)
        assert np.allclose(snv(x), expect)

    def test_idempotent_after_first_pass(self):
        x = np.random.default_rng(0).normal(size=50)
        once = snv(x)
        assert np.allclose(snv(once), once)

    def test_constant_rejected(self):
        with pytest.raises(ZeroVariance):
            snv(np.full(10, 3.7))

    def test_rowwise_matches_loop(self):
        X = np.random.default_rng(1).normal(size=(4, 20))
        rows = np.stack([snv(r) for r in X])
        assert np.allclose(snv(X), rows)


def polyfit_window_oracle(x, window, poly_order, deriv_order):
    """Reference Savitzky-Golay: explicit per-window least squares, with
    shrunken one-sided windows at the edges."""
    n = len(x)
    half = window // 2
    out = np.empty(n)
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        t = np.arange(lo, hi) - i
        coeffs = np.polyfit(t, x[lo:hi], poly_order)  # highest power first
        k = deriv_order
        out[i] = coeffs[::-1][k] * math.factorial(k)
    return out


class TestSavitzkyGolay:
    def test_polynomial_reproduced_exactly(self):
        t = np.arange(40, dtype=float)
        x = 0.5 * t**3 - 2 * t**2 + t - 4
        assert np.allclose(savitzky_golay(x, 15, 3, 0), x, atol=1e-8)

    def test_polynomial_derivatives_exact(self):
        t = np.arange(40, dtype=float)
        x = 0.5 * t**3 - 2 * t**2 + t - 4
        d1 = 1.5 * t**2 - 4 * t + 1
        d2 = 3 * t - 4
        assert np.allclose(savitzky_golay(x, 15, 3, 1), d1, atol=1e-7)
        assert np.allclose(savitzky_golay(x, 15, 3, 2), d2, atol=1e-7)

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    def test_matches_least_squares_oracle(self, deriv):
        x = np.random.default_rng(2).normal(size=60).cumsum()
        got = savitzky_golay(x, 15, 3, deriv)
        expect = polyfit_window_oracle(x, 15, 3, deriv)
        assert np.allclose(got, expect, atol=1e-8)

    def test_centre_weights_match_normal_equations(self):
        # Independent derivation of the (15, 3, 0) centre-point weights.
        t = np.arange(-7, 8, dtype=float)
        A = np.vander(t, 4, increasing=True)
        w = np.linalg.solve(A.T @ A, A.T)[0]  # row selecting the constant term
        x = np.random.default_rng(3).normal(size=31)
        got = savitzky_golay(x, 15, 3, 0)
        assert np.isclose(got[15], w @ x[8:23])

    def test_linearity(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=50), rng.normal(size=50)
        lhs = savitzky_golay(2 * a + 3 * b, 15, 3, 1)
        rhs = 2 * savitzky_golay(a, 15, 3, 1) + 3 * savitzky_golay(b, 15, 3, 1)
        assert np.allclose(lhs, rhs)

    def test_short_input_rejected(self):
        with pytest.raises(SpectrumTooShort):
            savitzky_golay(np.zeros(10), 15, 3, 0)

    @pytest.mark.parametrize("window,poly,deriv", [(4, 3, 0), (15, 16, 0), (15, 3, 4), (15, -1, 0)])
    def test_invalid_parameters_rejected(self, window, poly, deriv):
        with pytest.raises(ValueError):
            savitzky_golay(np.zeros(100), window, poly, deriv)

    def test_rowwise_matches_loop(self):
        X = np.random.default_rng(5).normal(size=(3, 30))
        rows = np.stack([savitzky_golay(r, 15, 3, 2) for r in X])
        assert np.allclose(savitzky_golay(X, 15, 3, 2), rows)

    def test_cached_weights_are_read_only(self):
        savitzky_golay(np.zeros(40), 15, 3, 1)
        for args in [(7, 7, 3, 1), (0, 7, 3, 1), (7, 3, 3, 1)]:
            weights = spectral._savgol_weights(*args)
            assert weights is spectral._savgol_weights(*args)
            with pytest.raises(ValueError):
                weights[0] = 1.0


class TestMsc:
    def test_affine_distortion_recovered(self):
        rng = np.random.default_rng(6)
        ref = rng.normal(size=80).cumsum()
        distorted = 3.5 * ref + 12.0
        assert np.allclose(msc(distorted, ref), ref)

    def test_reference_maps_to_itself(self):
        ref = np.random.default_rng(7).normal(size=40)
        assert np.allclose(msc(ref, ref), ref)

    def test_matches_two_by_two_normal_equations(self):
        rng = np.random.default_rng(8)
        ref = rng.normal(size=30)
        x = rng.normal(size=30)
        n = len(x)
        # solve [n, sum r; sum r, sum r^2] [a, b]^T = [sum x, sum r x]
        A = np.array([[n, ref.sum()], [ref.sum(), (ref**2).sum()]])
        a, b = np.linalg.solve(A, np.array([x.sum(), (ref * x).sum()]))
        assert np.allclose(msc(x, ref), (x - a) / b)

    def test_constant_reference_rejected(self):
        with pytest.raises(ZeroVariance):
            msc(np.arange(10.0), np.ones(10))

    def test_orthogonal_spectrum_rejected(self):
        # zero slope against the reference -> no multiplicative factor exists
        ref = np.array([-1.0, 0.0, 1.0] * 10)
        x = np.ones(30)
        with pytest.raises(DegenerateFit):
            msc(x, ref)


class TestFluorescenceRemoval:
    def test_constant_background_removed(self):
        x = np.full(400, 123.4)
        assert np.allclose(remove_fluorescence(x), 0.0, atol=1e-9)

    def test_slow_background_suppressed_peak_kept(self):
        t = np.linspace(0, 1, 500)
        background = 100 + 40 * t
        peak = 25 * np.exp(-0.5 * ((t - 0.5) / 0.004) ** 2)
        out = remove_fluorescence(background + peak)
        # the broad ramp is attenuated far more than the narrow peak
        assert abs(out[250]) > 15
        assert abs(out[50]) < 5

    def test_short_spectrum_rejected(self):
        with pytest.raises(SpectrumTooShort):
            remove_fluorescence(np.zeros(200))


class TestPretreatmentChains:
    def test_parse_round_trip(self):
        for text in ["none", "snv", "msc", "fluor", "sg:15:3:1", "fluor+snv+sg:15:3:2"]:
            assert str(parse_pretreatment(text)) == text

    def test_parse_rejects_garbage(self):
        for text in ["", "sg:15:3", "sg:a:3:1", "unknown", "snv++msc"]:
            with pytest.raises(ValueError):
                parse_pretreatment(text)

    def test_menu_size_and_uniqueness(self):
        menu = standard_menu()
        assert len(menu) == 14
        assert len({str(m) for m in menu}) == 14
        assert sum(1 for m in menu if str(m).startswith("fluor")) == 7

    def test_none_chain_is_identity(self):
        X = np.random.default_rng(9).normal(size=(3, 400))
        fitted, _ = fit_pretreatment(parse_pretreatment("none"), X)
        assert np.allclose(fitted.apply(X[0]), X[0])

    def test_msc_reference_learned_from_training_mean(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(5, 60)).cumsum(axis=1)
        fitted, _ = fit_pretreatment(parse_pretreatment("msc"), X)
        ref = X.mean(axis=0)
        new = 2.0 * ref + 5.0
        assert np.allclose(fitted.apply(new), msc(new, ref))

    def test_chain_applies_steps_in_order(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(4, 400)).cumsum(axis=1)
        fitted, _ = fit_pretreatment(parse_pretreatment("snv+sg:15:3:1"), X)
        expect = savitzky_golay(snv(X[2]), 15, 3, 1)
        assert np.allclose(fitted.apply(X[2]), expect)

    def test_fit_returns_training_rows_through_the_fitted_chain(self):
        rng = np.random.default_rng(13)
        X = 5.0 + rng.normal(size=(12, 512)).cumsum(axis=1) / 20.0
        for spec in standard_menu():
            fitted, treated = fit_pretreatment(spec, X)
            assert np.array_equal(treated, fitted.apply(X)), str(spec)

    def test_split_at_msc(self):
        cases = {"none": ("none", "none"), "snv+sg:15:3:1": ("snv+sg:15:3:1", "none"),
                 "msc": ("none", "msc"), "fluor+msc+snv+msc": ("fluor", "msc+snv+msc")}
        for text, (head, tail) in cases.items():
            got = parse_pretreatment(text).split_at_msc()
            assert (str(got[0]), str(got[1])) == (head, tail)

    def test_fitted_chain_is_reusable_and_pure(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(3, 350)).cumsum(axis=1)
        fitted, _ = fit_pretreatment(parse_pretreatment("fluor+msc"), X)
        x = rng.normal(size=350).cumsum()
        first = fitted.apply(x)
        second = fitted.apply(x)
        assert np.array_equal(first, second)


def make_cube(rng, h=8, w=8, b=64, noise=0.5):
    # smooth single-peak spectra (slightly different peak centre per pixel)
    # plus mild shot noise, the regime the spike detector is built for
    t = np.linspace(0.0, 1.0, b)
    centres = rng.uniform(0.35, 0.65, size=(h, w, 1))
    data = 1000.0 + 80.0 * np.exp(-0.5 * ((t - centres) / 0.12) ** 2)
    data += rng.normal(scale=noise, size=(h, w, b))
    return HyperspectralCube(wavenumbers=np.arange(b, dtype=float), data=data)


class TestBadPixelDetection:
    def test_clean_cube_mostly_kept(self):
        cube = make_cube(np.random.default_rng(13))
        mask = detect_bad_pixels(cube)
        assert mask.mean() > 0.9

    def test_single_spike_flagged(self):
        rng = np.random.default_rng(14)
        cube = make_cube(rng)
        cube.data[3, 4, 20] += 500.0  # sharp one-band excursion
        mask = detect_bad_pixels(cube)
        assert not mask[3, 4]
        assert mask.sum() >= mask.size - 3

    def test_saturated_pixel_flagged(self):
        rng = np.random.default_rng(15)
        cube = make_cube(rng)
        cube.data[0, 0, 10] = 70000.0
        mask = detect_bad_pixels(cube, saturation_level=65535.0)
        assert not mask[0, 0]

    def test_smooth_bright_pixel_not_flagged(self):
        # brightness alone is not a spike: SNV removes scale
        rng = np.random.default_rng(16)
        cube = make_cube(rng)
        cube.data[5, 5] *= 50.0
        mask = detect_bad_pixels(cube)
        assert mask[5, 5]

    def test_upper_side_rule_only(self):
        # pixels with unusually *smooth* spectra stay in
        rng = np.random.default_rng(17)
        cube = make_cube(rng)
        cube.data[2, 2] = 1000.0 + 80.0 * np.exp(
            -0.5 * ((np.linspace(0, 1, cube.data.shape[2]) - 0.5) / 0.12) ** 2
        )
        mask = detect_bad_pixels(cube)
        assert mask[2, 2]

    def test_too_few_bands_rejected(self):
        cube = HyperspectralCube(wavenumbers=[1.0, 2.0], data=np.zeros((2, 2, 2)))
        with pytest.raises(SpectrumTooShort):
            detect_bad_pixels(cube)


class TestMedianSpectrum:
    def test_odd_count_picks_middle(self):
        data = np.zeros((3, 1, 2))
        data[:, 0, 0] = [1.0, 5.0, 3.0]
        data[:, 0, 1] = [10.0, 30.0, 20.0]
        cube = HyperspectralCube(wavenumbers=[1.0, 2.0], data=data)
        spec = median_spectrum(cube)
        assert np.allclose(spec.intensities, [3.0, 20.0])

    def test_even_count_averages_middle_pair(self):
        data = np.zeros((4, 1, 1))
        data[:, 0, 0] = [1.0, 2.0, 10.0, 20.0]
        cube = HyperspectralCube(wavenumbers=[5.0], data=data)
        assert np.isclose(median_spectrum(cube).intensities[0], 6.0)

    def test_mask_excludes_pixels(self):
        data = np.zeros((2, 2, 1))
        data[..., 0] = [[1.0, 100.0], [3.0, 100.0]]
        mask = np.array([[True, False], [True, False]])
        cube = HyperspectralCube(wavenumbers=[5.0], data=data, mask=mask)
        assert np.isclose(median_spectrum(cube).intensities[0], 2.0)

    def test_invariant_under_pixel_permutation(self):
        rng = np.random.default_rng(18)
        data = rng.normal(size=(4, 5, 7))
        cube = HyperspectralCube(wavenumbers=np.arange(7.0), data=data)
        flat = data.reshape(-1, 7)
        perm = flat[rng.permutation(len(flat))].reshape(4, 5, 7)
        cube2 = HyperspectralCube(wavenumbers=np.arange(7.0), data=perm)
        assert np.allclose(median_spectrum(cube).intensities, median_spectrum(cube2).intensities)

    def test_all_masked_out_rejected(self):
        cube = HyperspectralCube(
            wavenumbers=[1.0],
            data=np.ones((2, 2, 1)),
            mask=np.zeros((2, 2), dtype=bool),
        )
        with pytest.raises(EmptyMask):
            median_spectrum(cube)

    @settings(max_examples=25)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_numpy_median(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(3, 4, 5))
        cube = HyperspectralCube(wavenumbers=np.arange(5.0), data=data)
        assert np.allclose(
            median_spectrum(cube).intensities,
            np.median(data.reshape(-1, 5), axis=0),
        )
