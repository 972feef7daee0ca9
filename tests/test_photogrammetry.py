import math

import pytest
from hypothesis import given, strategies as st

from scancell.errors import DomainError
from scancell.photogrammetry import (
    FlyingAltitude,
    FocalLength,
    LinePairResolution,
    PixelPitch,
    SamplingVerdict,
    ScaleRatio,
    StorageEstimate,
    ground_resolved_distance,
    optimal_pixel_range,
    pixel_pitch_from_ppi,
    sampling_adequacy,
    scale_from_focal_and_altitude,
    smallest_resolvable_feature,
    storage_estimate,
)

MEDIAN_SCALE = ScaleRatio(42_579)


class TestScale:
    def test_six_inch_lens_at_5000_feet(self):
        s = scale_from_focal_and_altitude(
            FocalLength.from_inches(6), FlyingAltitude.from_feet(5000)
        )
        assert s.denominator == pytest.approx(10_000, abs=1e-9)

    def test_unit_conversion_identity(self):
        s = scale_from_focal_and_altitude(FocalLength(1.0), FlyingAltitude(1.0))
        assert s.denominator == pytest.approx(1000.0)

    def test_median_altitude(self):
        s = scale_from_focal_and_altitude(FocalLength(152.4), FlyingAltitude(6262))
        assert round(s.denominator) == 41_089

    @given(
        f_inches=st.floats(1.0, 40.0),
        h_feet=st.floats(100.0, 60_000.0),
    )
    def test_invariant_under_unit_changes(self, f_inches, h_feet):
        via_imperial = scale_from_focal_and_altitude(
            FocalLength.from_inches(f_inches), FlyingAltitude.from_feet(h_feet)
        )
        via_metric = scale_from_focal_and_altitude(
            FocalLength(f_inches * 25.4), FlyingAltitude(h_feet * 0.3048)
        )
        assert via_imperial.denominator == pytest.approx(
            via_metric.denominator, rel=1e-9
        )

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            FocalLength(0.0)
        with pytest.raises(DomainError):
            FlyingAltitude(-5.0)
        with pytest.raises(DomainError):
            ScaleRatio(0.0)


class TestSmallestResolvableFeature:
    def test_ten_line_pairs(self):
        assert smallest_resolvable_feature(LinePairResolution(10)) == pytest.approx(50.0)

    def test_twenty_seven_line_pairs(self):
        value = smallest_resolvable_feature(LinePairResolution(27))
        assert value == pytest.approx(18.5185, abs=1e-3)

    def test_reciprocal_arithmetic(self):
        assert smallest_resolvable_feature(LinePairResolution(0.5)) == pytest.approx(1000.0)

    @given(r=st.floats(0.01, 1000.0))
    def test_round_trip_to_one_millimeter(self, r):
        # feature width in um times 2R line pairs recovers 1 mm
        feature = smallest_resolvable_feature(LinePairResolution(r))
        assert feature * 2 * r == pytest.approx(1000.0, rel=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            LinePairResolution(0)


class TestGroundResolvedDistance:
    def test_coarse_print_at_median_scale(self):
        grd = ground_resolved_distance(LinePairResolution(10), MEDIAN_SCALE)
        assert grd == pytest.approx(2.12895, abs=1e-5)
        assert round(grd, 1) == 2.1

    def test_fine_print_at_median_scale(self):
        grd = ground_resolved_distance(LinePairResolution(27), MEDIAN_SCALE)
        assert grd == pytest.approx(0.78850, abs=1e-5)
        assert round(grd, 1) == 0.8

    def test_unit_scale_identity(self):
        grd = ground_resolved_distance(LinePairResolution(10), ScaleRatio(1))
        assert grd == pytest.approx(5e-5)

    def test_monotone_in_scale_and_resolution(self):
        resolutions = [5, 10, 27, 50]
        denominators = [1_000, 10_000, 42_579, 80_000]
        for r in resolutions:
            grds = [
                ground_resolved_distance(LinePairResolution(r), ScaleRatio(d))
                for d in denominators
            ]
            assert grds == sorted(grds) and len(set(grds)) == len(grds)
        for d in denominators:
            grds = [
                ground_resolved_distance(LinePairResolution(r), ScaleRatio(d))
                for r in resolutions
            ]
            assert grds == sorted(grds, reverse=True) and len(set(grds)) == len(grds)


class TestOptimalPixelRange:
    def test_fine_resolution_band(self):
        lo, hi = optimal_pixel_range(LinePairResolution(27))
        assert lo.micrometers == pytest.approx(13.0947, abs=1e-3)
        assert hi.micrometers == pytest.approx(18.5185, abs=1e-3)

    def test_coarse_resolution_band(self):
        lo, hi = optimal_pixel_range(LinePairResolution(10))
        assert lo.micrometers == pytest.approx(35.3553, abs=1e-3)
        assert hi.micrometers == pytest.approx(50.0)

    @given(r=st.floats(0.01, 1000.0))
    def test_band_ratio_is_sqrt_two(self, r):
        lo, hi = optimal_pixel_range(LinePairResolution(r))
        assert hi.micrometers / lo.micrometers == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )


class TestPixelPitch:
    def test_1200_ppi(self):
        assert pixel_pitch_from_ppi(1200).micrometers == pytest.approx(21.1667, abs=1e-3)

    def test_definition_of_inch(self):
        assert pixel_pitch_from_ppi(25_400).micrometers == pytest.approx(1.0)

    def test_600_ppi(self):
        assert pixel_pitch_from_ppi(600).micrometers == pytest.approx(42.3333, abs=1e-3)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            pixel_pitch_from_ppi(0)
        with pytest.raises(DomainError):
            PixelPitch(-1.0)


class TestSamplingAdequacy:
    def test_1200_ppi_against_coarse_print(self):
        assert sampling_adequacy(1200, LinePairResolution(10)) is SamplingVerdict.OVERSAMPLED

    def test_1200_ppi_against_fine_print(self):
        assert sampling_adequacy(1200, LinePairResolution(27)) is SamplingVerdict.UNDERSAMPLED

    def test_band_edges_inclusive(self):
        # 508 ppi is exactly the 50 um Nyquist pitch for 10 lp/mm
        assert pixel_pitch_from_ppi(508).micrometers == pytest.approx(50.0)
        assert (
            sampling_adequacy(508, LinePairResolution(10))
            is SamplingVerdict.WITHIN_OPTIMAL_BAND
        )


class TestStorage:
    def test_full_archive(self):
        est = storage_estimate(1_700_000, 250_000_000)
        assert est.terabytes() == pytest.approx(425.0)

    def test_zero_images(self):
        assert storage_estimate(0, 250_000_000).total_bytes == 0

    def test_pilot_batch(self):
        assert storage_estimate(8_000, 250_000_000).terabytes() == pytest.approx(2.0)

    def test_binary_convention(self):
        est = StorageEstimate(2**40)
        assert est.terabytes(binary=True) == 1.0
        assert est.terabytes() == pytest.approx(1.0995, abs=1e-4)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            storage_estimate(-1, 1)
