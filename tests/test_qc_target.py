import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from scancell.errors import AnalysisError, DomainError
from scancell.qc import (
    CalibrationGeometry,
    Distortions,
    GrayRaster,
    ResolutionGroup,
    TargetLayout,
    analyze_target,
    crop_to_border,
    default_geometry,
    find_print_box,
    measure_scale_px,
    render_print_scan,
    render_target,
    smallest_resolvable_um,
    wedge_level,
    wedge_tones,
)
from scancell.qc.analyze import _dark_runs

GEOM = default_geometry()
GROUP_STEP = 2.0 ** (1.0 / 6.0)


@pytest.fixture(scope="module")
def target_1200():
    return render_target(GEOM, 1200)


@pytest.fixture(scope="module")
def layout_1200():
    return TargetLayout.compute(GEOM, 1200)


class TestGeometry:
    def test_default_groups_descend_geometrically(self):
        widths = [g.line_width_um for g in GEOM.groups]
        assert widths[0] == 500.0
        assert min(widths) >= 10.0
        for a, b in zip(widths, widths[1:]):
            assert a / b == pytest.approx(GROUP_STEP, rel=1e-9)

    def test_group_widths_must_decrease(self):
        with pytest.raises(DomainError):
            CalibrationGeometry(
                groups=(ResolutionGroup(100, 5), ResolutionGroup(100, 5))
            )

    def test_degenerate_ppi_scale_length(self):
        assert TargetLayout.compute(GEOM, 1).expected_scale_px == pytest.approx(6.0)

    def test_oversized_raster_rejected(self):
        with pytest.raises(DomainError, match="raster limit"):
            render_target(GEOM, 6000)

    @pytest.mark.parametrize("ppi", [0.5, 0.05])  # 5x0 and 0x0 px
    def test_empty_raster_rejected(self, ppi):
        with pytest.raises(DomainError, match="rounds to"):
            render_target(GEOM, ppi)


class TestRender:
    def test_deterministic_given_seed(self):
        noisy = Distortions(noise_sigma=2.0)
        a = render_target(GEOM, 300, noisy, seed=5)
        b = render_target(GEOM, 300, noisy, seed=5)
        c = render_target(GEOM, 300, noisy, seed=6)
        assert a == b
        assert a != c

    def test_canvas_size(self, target_1200):
        assert target_1200.width == round(250 / 25.4 * 1200)
        assert target_1200.height == round(25 / 25.4 * 1200)

    @pytest.mark.parametrize("noise_sigma", [0.0, 2.0])
    def test_peak_memory_two_bytes_per_pixel(self, noise_sigma):
        tracemalloc.start()
        try:
            raster = render_target(GEOM, 1200, Distortions(noise_sigma=noise_sigma), seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * raster.width * raster.height + 16 * 2**20


# (geometry, ppi, distortions, seed) -> sha256 of the PGM bytes. Any
# change to these bytes is a change in rendering, not a refactor.
COARSE_GEOM = CalibrationGeometry(
    groups=tuple(ResolutionGroup(w, 3) for w in (800.0, 400.0, 200.0, 100.0))
)
GOLDEN_RENDERS = {
    "300_blur40_noise": (
        GEOM,
        300,
        Distortions(noise_sigma=2.0, blur_radius_px=40.0),
        11,
        "b7713223591b6e476cc0c389e9e7c89639435c007725a367810c2983a12b8ac9",
    ),
    "600_noise": (
        GEOM,
        600,
        Distortions(noise_sigma=1.5),
        3,
        "a461d13e8289cca0b194169d51ae191e3e744d48d2519c53a099a09cf0f026dc",
    ),
    "1200_noise": (
        GEOM,
        1200,
        Distortions(noise_sigma=2.0),
        3,
        "40d86179c289be9e861aa8c17c6b9d715beaa61ab8f73c3ef0fd8ada2643665d",
    ),
    "600_scale_error": (
        GEOM,
        600,
        Distortions(scale_error_fraction=0.002),
        0,
        "a250e14c657d23a15bfc9605f84d422c9ce74f09557f25c5bb519941ec394263",
    ),
    "1200_plain": (
        GEOM,
        1200,
        Distortions(),
        0,
        "bd4b24b3b8b6cea1b943f2da24e92d40779657812d466dbab5f237426e6a4073",
    ),
    "2400_blur": (
        GEOM,
        2400,
        Distortions(blur_radius_px=0.5),
        0,
        "60bdb7bc119c6f31973ee8a378ecb321bb8e06f7d12cef408bae946ac9090db5",
    ),
    "coarse_negative_scale_error": (
        COARSE_GEOM,
        600,
        Distortions(scale_error_fraction=-0.003, noise_sigma=1.0, blur_radius_px=1.0),
        9,
        "fc53a7bc35d751680dee40e085f04dd7ab227a3f42879ddf686931885d4a1aae",
    ),
}


class TestGoldenRenders:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RENDERS))
    def test_pgm_bytes_pinned(self, name):
        geom, ppi, distortions, seed, pgm_sha256 = GOLDEN_RENDERS[name]
        data = render_target(geom, ppi, distortions, seed).to_pgm_bytes()
        assert hashlib.sha256(data).hexdigest() == pgm_sha256


# name -> sha256 of analyze_target's JSON dict (sorted keys), or the
# AnalysisError it raises; every golden render crops to itself
GOLDEN_ANALYSES = {
    "300_blur40_noise": "no resolution group could be counted",
    "600_noise": "1565df6da998022bdef0350dac7140d3ae52d4a0d4ec328f360c3880121c734f",
    "1200_noise": "4383dba71cbb9a503f065fbdba01d7c9d2d50d874c7a2bed3ccbf2c2d87116b6",
    "600_scale_error": "1d57e2cf6d9da6a2e313de7f0df38ba213a15519d8652a01b8ae6d0105e7a5b2",
    "1200_plain": "4383dba71cbb9a503f065fbdba01d7c9d2d50d874c7a2bed3ccbf2c2d87116b6",
    "2400_blur": "736cec8323a8944bac6332f8ea497e737ab7f63a3bb9261534e18e9c155138f2",
    "coarse_negative_scale_error": (
        "4cd148a9bd1a497ffffe6907664b8f912dfef60d7feb1778d6bb6e6b8d9fb1fb"
    ),
}
# (ppi, scan_area_mm) -> (sha256 of the print scan PGM, size of its crop,
# sha256 of the cropped PGM)
CROPPED_300 = "b05f0a8cf7c11ecff93fb3e0cc023e9d226fb5559e8259321a14d2f92c703c7d"
GOLDEN_PRINT_SCANS = {
    (300, (340.0, 315.0)): (
        "5106bf5c7bb712c8dac05e4c2616e9be3736deb097f2bf38ca330650476b3563",
        (2818, 2818),
        CROPPED_300,
    ),
    (300, (250.0, 250.0)): (
        "8a61e81cdfae7af2edb7112033b037600014349793354ddd8a729357e6e93303",
        (2818, 2818),
        CROPPED_300,
    ),
    (1200, (250.0, 250.0)): (
        "d698a9097e0047cc3f7b093f5189baa8b3b3e868e5dbf20e073270c14c84d0a9",
        (11272, 11272),
        "5597ea2b21d69db30b900abaa3a1570e5b6c7abfa6342fd1db56ca99980db2f5",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenAnalyses:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RENDERS))
    def test_report_and_crop_pinned(self, name):
        geom, ppi, distortions, seed, _ = GOLDEN_RENDERS[name]
        raster = render_target(geom, ppi, distortions, seed)
        try:
            report = analyze_target(raster, geom).to_json_dict()
        except AnalysisError as exc:
            assert str(exc) == GOLDEN_ANALYSES[name]
        else:
            assert _sha256(json.dumps(report, sort_keys=True).encode()) == GOLDEN_ANALYSES[name]
        assert crop_to_border(raster) == raster

    @pytest.mark.parametrize("ppi, area", sorted(GOLDEN_PRINT_SCANS))
    def test_print_scan_and_crop_pinned(self, ppi, area):
        scan_sha256, crop_size, crop_sha256 = GOLDEN_PRINT_SCANS[ppi, area]
        scan = render_print_scan(ppi, scan_area_mm=area)
        assert _sha256(scan.to_pgm_bytes()) == scan_sha256
        cropped = crop_to_border(scan)
        del scan
        assert (cropped.width, cropped.height) == crop_size
        assert _sha256(cropped.to_pgm_bytes()) == crop_sha256


def dark_runs_by_loop(profile, threshold):
    """Reference: walk the columns and close a run at each light column."""
    runs, start = [], None
    for i, value in enumerate(profile):
        if value < threshold and start is None:
            start = i
        elif value >= threshold and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(profile)))
    return runs


class TestDarkRuns:
    @pytest.mark.parametrize(
        "profile, runs",
        [
            ([0, 0, 200, 200, 0, 200], [(0, 2), (4, 5)]),  # a run at column 0
            ([200, 0, 200, 0, 0], [(1, 2), (3, 5)]),  # a run at the last column
            ([0, 0, 0], [(0, 3)]),  # every column below
            ([200, 200, 200], []),  # no column below
            ([100, 99, 100], [(1, 2)]),  # strictly below the threshold
            ([], []),
        ],
    )
    def test_edge_profiles(self, profile, runs):
        profile = np.array(profile, dtype=np.float64)
        assert _dark_runs(profile, 100.0) == runs
        assert dark_runs_by_loop(profile, 100.0) == runs

    def test_matches_loop_on_random_profiles(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            profile = rng.integers(0, 256, size=int(rng.integers(1, 60))).astype(np.float64)
            threshold = float(rng.integers(0, 257))
            assert _dark_runs(profile, threshold) == dark_runs_by_loop(profile, threshold)


class TestMeasureScale:
    def test_undistorted_1200(self, target_1200):
        result = measure_scale_px(target_1200)
        assert result.expected_px == 7200
        assert abs(result.length_px - 7200) <= 1
        assert result.tolerance_px == pytest.approx(0.001 * 7200 + 1)
        assert result.passed

    def test_injected_scale_error_fails(self):
        raster = render_target(GEOM, 1200, Distortions(scale_error_fraction=0.002))
        result = measure_scale_px(raster)
        assert result.length_px == pytest.approx(7214.4, abs=1.0)
        assert not result.passed

    def test_blank_raster_is_an_error(self):
        blank = GrayRaster(np.full((600, 600), 255, dtype=np.uint8), 600)
        with pytest.raises(AnalysisError):
            measure_scale_px(blank)


class TestWedge:
    def test_undistorted_recovers_generator_levels(self, target_1200, layout_1200):
        tones = wedge_tones(
            target_1200, layout_1200.wedge_first_centroid, layout_1200.wedge_last_centroid
        )
        assert tones == tuple(wedge_level(k) for k in range(21))

    def test_equal_steps_by_construction(self):
        levels = [wedge_level(k) for k in range(21)]
        assert levels[0] == 0 and levels[-1] == 255
        assert levels == sorted(levels)

    def test_noisy_wedge_stays_close_and_monotone(self, layout_1200):
        raster = render_target(GEOM, 1200, Distortions(noise_sigma=2.0), seed=3)
        tones = wedge_tones(
            raster, layout_1200.wedge_first_centroid, layout_1200.wedge_last_centroid
        )
        reference = [wedge_level(k) for k in range(21)]
        assert all(abs(t - r) <= 3 for t, r in zip(tones, reference))
        assert all(a <= b for a, b in zip(tones, tones[1:]))

    def test_coincident_centroids_rejected(self, target_1200):
        with pytest.raises(DomainError, match="coincide"):
            wedge_tones(target_1200, (100, 100), (100, 100))

    def test_out_of_bounds_centroid_rejected(self, target_1200):
        with pytest.raises(DomainError, match="outside"):
            wedge_tones(target_1200, (-3, 10), (50, 10))


class TestResolutionTarget:
    def test_limit_within_one_group_step_of_nyquist_pair(self, target_1200):
        smallest = smallest_resolvable_um(target_1200, GEOM)
        ratio = smallest / (2 * target_1200.pitch_um)
        assert 1 / GROUP_STEP <= ratio <= GROUP_STEP

    def test_non_increasing_in_ppi(self):
        values = [
            smallest_resolvable_um(render_target(GEOM, ppi), GEOM)
            for ppi in (300, 600, 1200)
        ]
        assert values == sorted(values, reverse=True)

    def test_coarse_only_geometry_returns_finest_group(self):
        # every group at least 10x the pixel pitch: all count
        geom = CalibrationGeometry(
            groups=tuple(ResolutionGroup(w, 5) for w in (2000.0, 1500.0, 1000.0))
        )
        raster = render_target(geom, 300)
        assert smallest_resolvable_um(raster, geom) == 1000.0

    def test_fully_blurred_raster_is_an_error(self):
        raster = render_target(GEOM, 300, Distortions(blur_radius_px=40.0))
        with pytest.raises(AnalysisError, match="no resolution group"):
            smallest_resolvable_um(raster, GEOM)


class TestCrop:
    def test_border_geometry_at_300_ppi(self):
        raster = render_print_scan(300)
        cropped = crop_to_border(raster)
        print_px = round(228.6 / 25.4 * 300)
        border = round(5 * 300 / 25.4)
        assert cropped.width == print_px + 2 * border
        assert cropped.height == print_px + 2 * border

    def test_all_white_raster_identity(self):
        white = GrayRaster(np.full((40, 60), 255, dtype=np.uint8), 300)
        cropped = crop_to_border(white)
        assert cropped == white

    def test_all_dark_raster_is_an_error(self):
        dark = GrayRaster(np.full((40, 60), 5, dtype=np.uint8), 300)
        with pytest.raises(AnalysisError, match="no light print region"):
            crop_to_border(dark)

    def test_flush_edge_clamps(self):
        pixels = np.full((200, 200), 10, dtype=np.uint8)
        pixels[0:120, 0:120] = 220  # print touching top-left corner
        raster = GrayRaster(pixels, 300)
        cropped = crop_to_border(raster)
        border = round(5 * 300 / 25.4)
        assert cropped.width == 120 + border
        assert cropped.height == 120 + border

    def test_print_box_detection(self):
        pixels = np.full((100, 150), 12, dtype=np.uint8)
        pixels[20:70, 30:110] = 210
        box = find_print_box(GrayRaster(pixels, 300))
        assert box == (30, 20, 110, 70)


class TestAnalyzeTarget:
    def test_full_report(self, target_1200):
        report = analyze_target(target_1200)
        assert report.scale_verdict
        assert report.wedge_monotone
        assert len(report.wedge_values) == 21
        assert report.smallest_resolvable_um >= target_1200.pitch_um
        assert report.crop_box == (0, 0, target_1200.width, target_1200.height)

    def test_report_serialization(self, target_1200):
        data = analyze_target(target_1200).to_json_dict()
        assert data["scale_verdict"] == "pass"
        assert len(data["wedge_values"]) == 21
