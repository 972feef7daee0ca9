import dataclasses
import hashlib
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from scancell.qc import analyze, target
from scancell.qc.analyze import (
    _dark_runs,
    _histogram,
    _percentiles,
)
from scancell.qc.target import add_noise, quantize

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

    def test_validation(self):
        too_wide = CalibrationGeometry(groups=(ResolutionGroup(50_000.0, 5),))
        for build, fragment in (
            (lambda: ResolutionGroup(0.0, 5), "line width must be positive"),
            (lambda: ResolutionGroup(100.0, 1), "at least two bars"),
            (lambda: Distortions(noise_sigma=-1.0), "noise and blur must be non-negative"),
            (lambda: Distortions(blur_radius_px=-1.0), "noise and blur must be non-negative"),
            (lambda: Distortions(scale_error_fraction=-1.0), "scale error must exceed -100%"),
            (lambda: TargetLayout.compute(too_wide, 300), "no room for the step wedge"),
        ):
            with pytest.raises(DomainError, match=fragment):
                build()

    def test_degenerate_ppi_scale_length(self):
        ticks = TargetLayout.compute(GEOM, 1).scale_tick_centers_px
        assert ticks[-1] - ticks[0] == pytest.approx(6.0)

    def test_oversized_raster_rejected(self):
        with pytest.raises(DomainError, match="raster limit"):
            render_target(GEOM, 6000)

    @pytest.mark.parametrize("ppi", [0.5, 0.05])  # 5x0 and 0x0 px
    def test_empty_raster_rejected(self, ppi):
        with pytest.raises(DomainError, match="rounds to"):
            render_target(GEOM, ppi)

    # at 1.524e307 ppi the width is finite but the wedge's last centroid is not
    @pytest.mark.parametrize("ppi", [1e308, 1.524e307])
    def test_side_beyond_any_array_rejected(self, ppi):
        with pytest.raises(DomainError, match="more pixels on a side"):
            TargetLayout.compute(GEOM, ppi)
        with pytest.raises(DomainError, match="more pixels on a side"):
            render_target(GEOM, ppi)

    def test_blur_kernel_must_fit_the_width(self):
        # at 1 ppi the target is 10 px wide; the kernel radius is ceil(1.5 * blur)
        assert render_target(GEOM, 1, Distortions(blur_radius_px=6.6)).width == 10
        for blur_px in (6.7, 1e308):
            with pytest.raises(DomainError, match="kernel radius beyond the target's width"):
                render_target(GEOM, 1, Distortions(blur_radius_px=blur_px))

    def test_blur_beyond_the_budget_rejected(self):
        # a 2,000 px blur at 600 ppi would take 2.1e10 multiply-adds, about 40 s
        with pytest.raises(DomainError, match="beyond the blur budget of 268,435,456"):
            render_target(GEOM, 600, Distortions(blur_radius_px=2000.0))


class TestRender:
    @settings(max_examples=40, deadline=None)
    @given(ppi=st.floats(150.0, 600.0), blur_px=st.floats(0.0, 20.0))
    @example(ppi=150.0, blur_px=6.4e-233)  # its kernel's outer taps once overflowed
    def test_accepted_blur_stays_within_the_budget(self, ppi, blur_px):
        # a budget of 2**24 keeps each render short and refuses about half the draws
        budget, passes, blur_rows = 1 << 24, [], target.blur_rows

        def counted(rows, row_of, sigma):
            blurred, blurred_of = blur_rows(rows, row_of, sigma)
            if sigma > 0:  # windows x taps x width
                passes.append(len(blurred) * (2 * max(1, math.ceil(3.0 * sigma)) + 1) * rows.shape[1])
            return blurred, blurred_of

        with mock.patch.object(target, "MAX_BLUR_WORK", budget), mock.patch.object(
            target, "blur_rows", counted
        ):
            try:
                render_target(GEOM, ppi, Distortions(blur_radius_px=blur_px))
            except DomainError as exc:
                assert "beyond the blur budget" in str(exc)
                assert len(passes) == 1  # the sensor's pass; the refused blur never ran
                return
        assert passes and max(passes) <= budget

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

    @pytest.mark.parametrize("strip_px", [1, 40, 45, target.STRIP_PX])
    def test_noisy_strips_equal_one_noisy_image(self, monkeypatch, strip_px):
        # 23 rows of 9 px: strips of 4 and 5 rows leave a partial last strip,
        # and the distinct rows change inside a strip
        monkeypatch.setattr(target, "STRIP_PX", strip_px)
        rows = np.random.default_rng(8).uniform(-10.0, 265.0, size=(3, 9))
        row_of = np.repeat([0, 1, 2, 0, 2], [3, 6, 1, 8, 5])
        image = rows[row_of]
        assert np.array_equal(
            target._quantize_rows(rows, row_of, 2.0, 5), quantize(add_noise(image, 2.0, 5))
        )

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


def sample_rasters():
    """Seeded uint8 rasters of odd and even sizes, 1x1, constant and
    two-level ones, each also as the non-contiguous views [:, ::3] and [::2]."""
    rng = np.random.default_rng(11)
    bases = [
        np.zeros((1, 1), dtype=np.uint8),
        np.full((1, 1), 200, dtype=np.uint8),
        np.full((7, 9), 131, dtype=np.uint8),
        np.full((8, 6), 255, dtype=np.uint8),
    ]
    for _ in range(40):
        height, width = (int(n) for n in rng.integers(1, 50, size=2))
        bases.append(rng.integers(0, 256, size=(height, width), dtype=np.uint8))
        dark, light = (int(v) for v in rng.integers(0, 256, size=2))
        share = rng.random()
        bases.append(np.where(rng.random((height, width)) < share, dark, light).astype(np.uint8))
    for pixels in bases:
        yield pixels
        yield pixels[:, ::3]
        yield pixels[::2]


def print_like_rasters():
    """Seeded noisy light rectangles on a dark background, some flush
    against an edge, each also as the non-contiguous views."""
    rng = np.random.default_rng(12)
    for _ in range(30):
        height, width = (int(n) for n in rng.integers(20, 90, size=2))
        background, light = int(rng.integers(0, 60)), int(rng.integers(150, 240))
        pixels = np.full((height, width), background, dtype=np.int64)
        top, left = int(rng.integers(0, height // 2)), int(rng.integers(0, width // 2))
        bottom = int(rng.integers(top + 1, height + 1))
        right = int(rng.integers(left + 1, width + 1))
        pixels[top:bottom, left:right] = light
        pixels += rng.integers(-12, 13, size=pixels.shape)
        pixels = np.clip(pixels, 0, 255).astype(np.uint8)
        yield pixels
        yield pixels[:, ::3]
        yield pixels[::2]


def print_edge_rasters():
    """Seeded rasters at the edges of an inward box search, each also as
    the non-contiguous views: stray light pixels in the border rows and
    columns, fewer than a line needs (a line of 1,500 px or more needs 2)
    but counting toward the lines that cross them; prints flush against
    each edge; prints one row high or one column wide; and stray pixels
    at the threshold's floor and one level above it."""
    rng = np.random.default_rng(13)
    light = 220

    def canvas(height, width):
        return np.full((height, width), int(rng.integers(0, 60)), dtype=np.int64)

    def bases():
        for _ in range(2):
            # a border row with one stray does not count, but its column does
            wide = canvas(6, 1500)
            wide[2:4, 200:1300] = light
            for row in (0, 1, 4, 5):
                wide[row, int(rng.integers(0, 1500))] = light
            yield wide
            # a border column counts only with its stray in a border row,
            # which the row scans count, and its stray in the middle rows
            tall = canvas(1500, 6)
            tall[200:1300, 2:4] = light
            for col in (0, 1, 4, 5):
                outer = int(rng.choice([rng.integers(0, 200), rng.integers(1300, 1500)]))
                tall[outer, col] = light
                if rng.random() < 0.6:
                    tall[int(rng.integers(200, 1300)), col] = light
            yield tall
        for edge in ("top", "bottom", "left", "right"):
            height, width = (int(n) for n in rng.integers(20, 60, size=2))
            pixels = canvas(height, width)
            inset_rows = slice(rng.integers(1, height // 3), height - rng.integers(1, height // 3))
            inset_cols = slice(rng.integers(1, width // 3), width - rng.integers(1, width // 3))
            flush = {
                "top": (slice(0, height // 2), inset_cols),
                "bottom": (slice(height // 2, height), inset_cols),
                "left": (inset_rows, slice(0, width // 2)),
                "right": (inset_rows, slice(width // 2, width)),
            }
            pixels[flush[edge]] = light
            yield pixels
        for _ in range(3):
            lines, length = int(rng.integers(3, 8)), int(rng.integers(30, 80))
            line = canvas(lines, length)
            row, start, cut = rng.integers(0, lines), rng.integers(0, 5), rng.integers(0, 5)
            line[row, start : length - cut] = light
            yield line
            yield line.T

    def exact():
        # no noise: strays at the cut of (20 + 200) / 2, which are dark,
        # further out than strays one level above it, which are light
        pixels = np.full((6, 1500), 20, dtype=np.uint8)
        pixels[2:4, 200:1300] = 200
        for row, lo, hi, level in (
            (0, 100, 200, 111), (1, 0, 100, 110), (4, 1400, 1500, 110), (5, 1300, 1400, 111)
        ):
            pixels[row, int(rng.integers(lo, hi))] = level
        return pixels

    def noisy():
        for base in bases():
            yield np.clip(base + rng.integers(-12, 13, size=base.shape), 0, 255).astype(np.uint8)

    for pixels in [*noisy(), exact()]:
        yield pixels
        yield pixels[:, ::3]
        yield pixels[::2]


def print_box_by_percentile(raster, border_mm=0.0):
    """Reference: threshold the whole raster by np.percentile, fall back to
    np.median, and sum a full-size mask."""
    pixels = raster.pixels
    p10, p90 = np.percentile(pixels, (10.0, 90.0))
    if p90 - p10 < 16:
        if np.median(pixels) > 127:
            return (0, 0, raster.width, raster.height)
        raise AnalysisError("no light print region found")
    mask = pixels > (p10 + p90) / 2.0
    rows = np.flatnonzero(mask.sum(axis=1) >= max(1, round(0.001 * raster.width)))
    cols = np.flatnonzero(mask.sum(axis=0) >= max(1, round(0.001 * raster.height)))
    if rows.size == 0 or cols.size == 0:
        raise AnalysisError("no light print region found")
    margin = round(border_mm * raster.ppi / 25.4)
    return (
        max(0, int(cols[0]) - margin),
        max(0, int(rows[0]) - margin),
        min(raster.width, int(cols[-1]) + 1 + margin),
        min(raster.height, int(rows[-1]) + 1 + margin),
    )


def box_or_error(find, raster, border_mm):
    try:
        return find(raster, border_mm)
    except AnalysisError as exc:
        return str(exc)


def sampled_away_rasters():
    """Rasters on which the strided sample misleads: the pixels it takes
    are dark and the rest light; light pixels only in the rows it skips;
    levels 100 and 101 split the same way, so each candidate is one level
    off; and noise whose sampled pixels are each one level brighter."""
    rng = np.random.default_rng(15)
    for height, width in ((40, 40), (33, 70), (90, 7)):
        index = np.arange(height * width).reshape(height, width)
        sampled = np.zeros(height * width, dtype=bool)
        sampled[analyze._sample(index).reshape(-1)] = True
        sampled = sampled.reshape(height, width)
        yield np.where(sampled, 20, 220).astype(np.uint8)
        skipped_rows = np.broadcast_to(~sampled.any(axis=1, keepdims=True), sampled.shape)
        yield np.where(skipped_rows, 220, 20).astype(np.uint8)
        yield np.where(sampled, 100, 101).astype(np.uint8)
        noise = rng.integers(0, 255, size=(height, width), dtype=np.uint8)
        yield noise + sampled.astype(np.uint8)


class TestHistogramStatistics:
    def test_histogram_counts_every_pixel(self):
        for pixels in sample_rasters():
            hist = _histogram(pixels)
            assert hist.sum() == pixels.size
            assert (hist == np.bincount(pixels.reshape(-1), minlength=256)).all()

    def test_match_numpy(self):
        for pixels in sample_rasters():
            assert _percentiles(pixels, (10.0, 90.0)) == tuple(np.percentile(pixels, (10.0, 90.0)))
            assert _percentiles(pixels, (50.0,)) == (np.median(pixels),)

    @pytest.mark.parametrize("strip_px", [1, 5, 64])
    def test_match_numpy_in_narrow_strips(self, monkeypatch, strip_px):
        # strips narrower than a row split it across columns, and the
        # sample shrinks to at most one strip
        monkeypatch.setattr(analyze, "STRIP_PX", strip_px)
        for pixels in list(sample_rasters())[::7]:
            assert _percentiles(pixels, (10.0, 90.0)) == tuple(np.percentile(pixels, (10.0, 90.0)))
            assert _percentiles(pixels, (50.0,)) == (np.median(pixels),)

    def test_sample_within_one_strip(self, monkeypatch):
        for strip_px in (1, 5, 64, 100, analyze.STRIP_PX):
            monkeypatch.setattr(analyze, "STRIP_PX", strip_px)
            for shape in ((1, 1), (1, 1000), (1000, 1), (40, 40), (33, 70), (999, 1001)):
                assert 1 <= analyze._sample(np.zeros(shape, dtype=np.uint8)).size <= strip_px

    def test_misleading_sample_falls_back_to_the_full_count(self, monkeypatch):
        monkeypatch.setattr(analyze, "STRIP_PX", 100)
        counted = []
        histogram = analyze._histogram
        monkeypatch.setattr(analyze, "_histogram", lambda p: counted.append(p.size) or histogram(p))
        for pixels in sampled_away_rasters():
            for qs, expected in (
                ((10.0, 90.0), tuple(np.percentile(pixels, (10.0, 90.0)))),
                ((50.0,), (np.median(pixels),)),
            ):
                counted.clear()
                assert _percentiles(pixels, qs) == expected
                assert counted == [analyze._sample(pixels).size, pixels.size]

    def test_print_scan_needs_no_full_count(self, monkeypatch):
        scan = render_print_scan(600)
        histogram = analyze._histogram

        def sample_only(pixels):
            if pixels.size == scan.pixels.size:
                raise AssertionError("the whole scan was counted")
            return histogram(pixels)

        monkeypatch.setattr(analyze, "_histogram", sample_only)
        assert find_print_box(scan, 1.0) == print_box_by_percentile(scan, 1.0)


def check_pass_rasters():
    """Rasters whose tiles, at each strip size tested, are uniform (one
    level, or one level a tile row), mixed, or mixed with most pixels at
    the tile's minimum or maximum; each also as the non-contiguous views."""
    rng = np.random.default_rng(16)
    bases = [
        np.full((9, 13), 8, dtype=np.uint8),
        np.repeat(np.array([8, 200, 8, 0, 255, 200], dtype=np.uint8), 13 * 13).reshape(-1, 13),
        rng.integers(0, 256, size=(17, 23), dtype=np.uint8),
        np.where(rng.random((40, 13)) < 0.9, 8, 200).astype(np.uint8),
        np.where(rng.random((40, 13)) < 0.1, 8, 200).astype(np.uint8),
    ]
    for pixels in bases:
        yield pixels
        yield pixels[:, ::3]
        yield pixels[::2]


class TestCheckPass:
    @pytest.mark.parametrize("strip_px", [1, 13, analyze.STRIP_PX])
    def test_counts_match_numpy_at_every_level(self, monkeypatch, strip_px):
        # every level lies below, at the minimum of, inside, at the maximum
        # of or above some tile's range
        monkeypatch.setattr(analyze, "STRIP_PX", strip_px)
        for pixels in check_pass_rasters():
            counts = analyze._count_at_most(pixels, range(255))
            assert counts == {level: np.count_nonzero(pixels <= level) for level in range(255)}

    def test_uniform_tiles_compare_no_pixel(self, monkeypatch):
        # one level per 13-pixel tile row; the levels include each tile's own
        monkeypatch.setattr(analyze, "STRIP_PX", 13)
        pixels = np.repeat(np.array([8, 200, 7, 199], dtype=np.uint8), 13 * 5).reshape(-1, 13)
        levels = (7, 8, 199, 200)
        expected = {level: np.count_nonzero(pixels <= level) for level in levels}
        compared = []
        count_nonzero = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda a: compared.append(a) or count_nonzero(a))
        assert analyze._count_at_most(pixels, levels) == expected
        assert compared == []


class TestPrintBoxMatchesPercentileReference:
    def test_sample_rasters(self):
        for pixels in sample_rasters():
            raster = GrayRaster(pixels, 300)
            assert box_or_error(find_print_box, raster, 0.0) == box_or_error(
                print_box_by_percentile, raster, 0.0
            )

    @pytest.mark.parametrize("strip_px", [13, 97, analyze.STRIP_PX])
    def test_print_like_rasters(self, monkeypatch, strip_px):
        monkeypatch.setattr(analyze, "STRIP_PX", strip_px)
        for pixels in print_like_rasters():
            raster = GrayRaster(pixels, 300)
            for border_mm in (0.0, 1.0):
                box = box_or_error(find_print_box, raster, border_mm)
                assert box == box_or_error(print_box_by_percentile, raster, border_mm)

    @pytest.mark.parametrize("strip_px", [1, 13, 97, analyze.STRIP_PX])
    def test_edge_rasters(self, monkeypatch, strip_px):
        monkeypatch.setattr(analyze, "STRIP_PX", strip_px)
        for pixels in print_edge_rasters():
            raster = GrayRaster(pixels, 300)
            box = box_or_error(find_print_box, raster, 1.0)
            assert box == box_or_error(print_box_by_percentile, raster, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from([(1, 1), (1, 9), (7, 1), (5, 40), (33, 17), (3, 1600), (1700, 2)]),
        levels=st.tuples(st.integers(0, 255), st.integers(0, 255)),
        share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_raster_with_contrast_has_a_box(self, shape, levels, share, seed):
        # past the contrast check some row and some column always hold
        # enough light pixels, even when the light ones are few and spread
        # out, lines of 1,500 px or more needing 2 of them
        rng = np.random.default_rng(seed)
        pixels = np.where(rng.random(shape) < share, *levels).astype(np.uint8)
        raster = GrayRaster(pixels, 300)
        box = box_or_error(find_print_box, raster, 0.0)
        assert box == box_or_error(print_box_by_percentile, raster, 0.0)
        p10, p90 = np.percentile(pixels, (10.0, 90.0))
        if p90 - p10 >= 16:
            assert isinstance(box, tuple)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_raster_is_an_error(self, shape):
        with pytest.raises(AnalysisError, match="no light print region"):
            find_print_box(GrayRaster(np.zeros(shape, dtype=np.uint8), 300))

    @pytest.mark.parametrize(
        "ppi, band",
        [(600, None), (600, "tall"), (600, "wide"), (1200, None)],
        ids=["None", "tall", "wide", "1200ppi"],
    )
    def test_peak_memory_a_few_mb(self, ppi, band):
        # at 1200 ppi the strided sample is largest: it fills one strip
        scan = render_print_scan(ppi)
        if band is not None:
            scan, box = dusty_band_scan(scan.height, scan.width, band)
        tracemalloc.start()
        try:
            found = find_print_box(scan, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert peak <= scan.width * scan.height // 10
        if band is not None:
            assert found == box


def dusty_band_scan(height, width, band):
    """A 600 ppi scan whose print is a `tall` or `wide` band across the
    middle, on a background with one light speck per 16,000 pixels: too
    few for any line to count, but some in every tile, so the inward scans
    reach the middle and skip no tile. Returns it and the band's box."""
    rng = np.random.default_rng(14)
    pixels = np.full((height, width), 8, dtype=np.uint8)
    pixels.reshape(-1)[rng.integers(0, pixels.size, size=pixels.size // 16_000)] = 200
    if band == "tall":
        box = (width * 42 // 100, height // 10, width * 58 // 100, height * 9 // 10)
    else:
        box = (width // 10, height * 42 // 100, width * 9 // 10, height * 58 // 100)
    left, top, right, bottom = box
    pixels[top:bottom, left:right] = 200
    return GrayRaster(pixels, 600), box


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

    def test_single_tick_is_an_error(self):
        pixels = np.full((600, 600), 255, dtype=np.uint8)
        pixels[:, 300:303] = 0
        with pytest.raises(AnalysisError, match="needs two terminal ticks, found 1 dark runs"):
            measure_scale_px(GrayRaster(pixels, 600))

    @pytest.mark.parametrize("ppi", [300, 600, 1200, 2400, 487.5])
    def test_reads_the_layout_scale_band(self, monkeypatch, ppi):
        # neighbouring rows differ, so a band shifted by a row reads other pixels
        layout = TargetLayout.compute(GEOM, ppi)
        rows = (np.arange(layout.height_px) % 256).astype(np.uint8)
        raster = GrayRaster(np.repeat(rows[:, None], 3, axis=1), ppi)
        read = []
        monkeypatch.setattr(np, "median", lambda band, axis: read.append(band) or band[0])
        with pytest.raises(AnalysisError, match="no contrast"):
            measure_scale_px(raster)
        r0, r1 = layout.scale_band_rows
        assert [band.tolist() for band in read] == [raster.pixels[r0:r1].tolist()]


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

    def test_geometry_without_groups_rejected(self, target_1200):
        with pytest.raises(DomainError, match="geometry has no resolution groups"):
            smallest_resolvable_um(target_1200, CalibrationGeometry())

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

    def test_crop_is_a_view_of_the_scan(self):
        scan = render_print_scan(300)
        tracemalloc.start()
        try:
            cropped = crop_to_border(scan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(cropped.pixels, scan.pixels)
        assert peak < cropped.pixels.nbytes / 2

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

    @pytest.mark.parametrize("border_mm", [1e308, 1e9])
    def test_border_past_the_raster_keeps_all_of_it(self, border_mm):
        scan = render_print_scan(50)
        assert find_print_box(scan, border_mm) == (0, 0, scan.width, scan.height)

    def test_print_box_detection(self):
        pixels = np.full((100, 150), 12, dtype=np.uint8)
        pixels[20:70, 30:110] = 210
        box = find_print_box(GrayRaster(pixels, 300))
        assert box == (30, 20, 110, 70)


class TestPrintScanInputs:
    @pytest.mark.parametrize("ppi", [float("nan"), -300.0, 0.0, float("inf")])
    def test_bad_ppi_rejected_first(self, ppi):
        with pytest.raises(DomainError, match="ppi must be finite and positive"):
            render_print_scan(ppi, scan_area_mm=(float("nan"), 100.0))

    @pytest.mark.parametrize(
        "area", [(float("nan"), 315.0), (340.0, float("inf")), (340.0, -315.0), (0.0, 315.0)]
    )
    def test_bad_scan_area_rejected(self, area):
        with pytest.raises(DomainError, match="scan area must be finite and positive"):
            render_print_scan(300, scan_area_mm=area)

    def test_print_larger_than_scan_area_rejected(self):
        with pytest.raises(DomainError, match="print does not fit in the scan area"):
            render_print_scan(300, scan_area_mm=(340.0, 200.0))

    def test_zero_pixel_scan_rejected(self):
        with pytest.raises(DomainError, match="rounds to 0x0 px"):
            render_print_scan(1e-9)

    def test_oversized_scan_rejected(self):
        # 26,772 x 24,803 px (664 Mpx), refused before any pixel is allocated
        with pytest.raises(DomainError, match="needs 26772x24803 px, beyond the raster limit"):
            render_print_scan(2000)

    @pytest.mark.parametrize("ppi, area", [(1e308, (340.0, 315.0)), (300.0, (1e308, 300.0))])
    def test_side_beyond_any_array_rejected(self, ppi, area):
        with pytest.raises(DomainError, match="more pixels on a side"):
            render_print_scan(ppi, scan_area_mm=area)


class TestAnalyzeTarget:
    def test_full_report(self, target_1200):
        report = analyze_target(target_1200)
        assert report.scale_verdict
        assert report.wedge_monotone
        assert len(report.wedge_values) == 21
        assert report.smallest_resolvable_um >= target_1200.pitch_um
        assert report.crop_box == (0, 0, target_1200.width, target_1200.height)

    def test_strip_on_a_mostly_dark_bed_reports_the_whole_raster(self):
        # the strip fills a tenth of the raster, too little for the print
        # crop's percentiles to see it, so the crop box falls back to the
        # whole raster while the strip itself still measures
        strip = render_target(GEOM, 300)
        bed = np.zeros((9 * strip.height, strip.width), dtype=np.uint8)
        raster = GrayRaster(np.vstack([strip.pixels, bed]), 300)
        with pytest.raises(AnalysisError, match="no light print region"):
            find_print_box(raster, analyze.BORDER_MM)
        report = analyze_target(raster)
        assert report.crop_box == (0, 0, raster.width, raster.height)
        expected = dataclasses.replace(analyze_target(strip), crop_box=report.crop_box)
        assert report == expected

    def test_report_serialization(self, target_1200):
        data = analyze_target(target_1200).to_json_dict()
        assert data["scale_verdict"] == "pass"
        assert len(data["wedge_values"]) == 21
