import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from scancell.errors import AnalysisError, DomainError
from scancell.qc import GrayRaster, crop_to_border, render_print_scan
from scancell.qc import raster as qc_raster
from scancell.qc.raster import in_parts
from scancell.qc.target import add_noise, blur_rows, quantize


def checkerboard(w=8, h=6):
    grid = (np.indices((h, w)).sum(axis=0) % 2) * 255
    return grid.astype(np.uint8)


class TestGrayRaster:
    def test_pgm_round_trip_bit_exact(self, tmp_path):
        raster = GrayRaster(checkerboard(), ppi=600)
        path = tmp_path / "board.pgm"
        raster.save(path)
        loaded = GrayRaster.load(path)
        assert loaded == raster
        assert loaded.ppi == 600
        assert path.read_bytes() == loaded.to_pgm_bytes()

    def test_ppi_comment_in_header(self):
        data = GrayRaster(checkerboard(), ppi=1200).to_pgm_bytes()
        assert data.startswith(b"P5\n# ppi 1200\n8 6\n255\n")

    def test_missing_ppi_comment_is_an_analysis_error(self):
        plain = b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])
        message = 'PGM carries no "# ppi N" header comment; add one after the P5 line'
        with pytest.raises(AnalysisError, match=re.escape(message)):
            GrayRaster.from_pgm_bytes(plain)

    def test_rejects_wrong_shape_and_dtype(self):
        with pytest.raises(DomainError):
            GrayRaster(np.zeros((2, 2, 3), dtype=np.uint8), 300)
        with pytest.raises(DomainError):
            GrayRaster(np.zeros((2, 2), dtype=np.float32), 300)
        with pytest.raises(DomainError):
            GrayRaster(checkerboard(), 0)

    def test_rejects_16_bit_pgm(self):
        data = b"P5\n1 1\n65535\n" + bytes([1, 0])
        with pytest.raises(AnalysisError, match="8-bit"):
            GrayRaster.from_pgm_bytes(data)

    def test_truncated_payload(self):
        data = b"P5\n4 4\n255\n" + bytes(3)
        with pytest.raises(AnalysisError, match="shorter"):
            GrayRaster.from_pgm_bytes(data)

    @pytest.mark.parametrize(
        "header",
        [b"P5\n-1 -1\n255\n", b"P5\nab 2\n255\n", b"P5\n" + b"9" * 5000 + b" 1\n255\n"],
        ids=["negative", "not-a-number", "5000-digits"],
    )
    def test_malformed_size_is_an_analysis_error(self, header):
        with pytest.raises(AnalysisError, match="PGM size"):
            GrayRaster.from_pgm_bytes(header + bytes(4))

    @pytest.mark.parametrize(
        "value, shown",
        [
            (b"1.2.3", "1.2.3"),
            (b"1e999", "1e999"),
            (b"nan", "nan"),
            (b"300dpi", "300dpi"),
            (b"300 dpi", "300 dpi"),
            (b"\xff", "\\xff"),
        ],
    )
    def test_malformed_ppi_comment_is_an_analysis_error(self, value, shown):
        message = f"ppi comment must be a finite positive number, got {shown!r}"
        with pytest.raises(AnalysisError, match=re.escape(message)):
            GrayRaster.from_pgm_bytes(b"P5\n# ppi " + value + b"\n2 2\n255\n" + bytes(4))

    @pytest.mark.parametrize("ppi", [float("inf"), float("nan"), 0.0])
    def test_ppi_must_be_finite_and_positive(self, ppi):
        with pytest.raises(DomainError, match="finite and positive"):
            GrayRaster(np.zeros((2, 2), dtype=np.uint8), ppi)

    def test_decode_copies_the_payload_once(self):
        data = GrayRaster(np.zeros((1000, 1000), dtype=np.uint8), 300).to_pgm_bytes()
        tracemalloc.start()
        try:
            raster = GrayRaster.from_pgm_bytes(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert raster.pixels.flags.owndata
        assert peak < 1.1 * 1000 * 1000

    def test_encode_streams_a_crop_without_a_contiguous_copy(self, tmp_path):
        # each row is a piece, so the pieces' own overhead is a smaller
        # share of the output the wider the rows: 5% at 600 ppi, 9% at 300
        crop = crop_to_border(render_print_scan(600))
        assert not crop.pixels.flags.c_contiguous
        expected = GrayRaster(crop.pixels.copy(), 600).to_pgm_bytes()
        tracemalloc.start()
        try:
            data = crop.to_pgm_bytes()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data == expected
        assert peak < 1.1 * len(data)
        crop.save(tmp_path / "crop.pgm")
        assert (tmp_path / "crop.pgm").read_bytes() == expected
        assert crop.__eq__(data) is NotImplemented
        assert repr(crop) == "GrayRaster(5636x5636 @ 600 ppi)"

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"P5\n# ppi 300\n2",
            b"P5\n# ppi 300",
            b"P6\n# ppi 300\n1 1\n255\n" + bytes(3),
            b"P5\n2 2\n255\n" + bytes(4),
            b"P5\n# ppi 300dpi\n2 2\n255\n" + bytes(4),
            b"P5\n# ppi 300\n1 1\n65535\n" + bytes(2),
            b"P5\n# ppi 300\n-1 -1\n255\n",
            b"P5\n# ppi 300\n2 x2\n255\n" + bytes(4),
            b"P5\n# ppi 300\n4 4\n255\n" + bytes(15),
            b"P5\n# ppi 300\n0 0\n255",
            b"P5\n# ppi 300\n" + b"9" * 30 + b" 9\n255\n",
        ],
    )
    def test_load_raises_as_decode_does(self, tmp_path, data):
        with pytest.raises(AnalysisError) as decoded:
            GrayRaster.from_pgm_bytes(data)
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(AnalysisError) as loaded:
            GrayRaster.load(path)
        assert str(loaded.value) == str(decoded.value)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_load_from_a_pipe(self):
        raster = GrayRaster(checkerboard(), ppi=600)
        read, write = os.pipe()
        try:
            os.write(write, raster.to_pgm_bytes())
            os.close(write)
            assert GrayRaster.load(f"/dev/fd/{read}") == raster
        finally:
            os.close(read)

    def test_load_reads_into_the_raster_alone(self, tmp_path):
        # the file's bytes are never held beside the decoded pixels
        scan = render_print_scan(600)
        path = tmp_path / "scan.pgm"
        scan.save(path)
        tracemalloc.start()
        try:
            loaded = GrayRaster.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == scan
        assert peak < scan.pixels.nbytes + 4e6

    def test_pitch(self):
        assert GrayRaster(checkerboard(), 1200).pitch_um == pytest.approx(21.1667, abs=1e-3)


class TestEquality:
    # strips of 40 px: 23 rows of 8 px compare as 5 strips, the last of 3 rows
    @pytest.fixture(autouse=True, params=[1, 2, 5], ids=["1-worker", "2-workers", "5-workers"])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(qc_raster, "WORKERS", request.param)
        monkeypatch.setattr(qc_raster, "STRIP_PX", 40)

    PIXELS = np.random.default_rng(12).integers(0, 256, size=(23, 8), dtype=np.uint8)

    def test_equal_rasters(self):
        assert GrayRaster(self.PIXELS, 600) == GrayRaster(self.PIXELS.copy(), 600)
        assert GrayRaster(self.PIXELS, 600) != GrayRaster(self.PIXELS, 1200)

    @pytest.mark.parametrize("row", [0, 11, 20, 22])
    def test_one_pixel_differing(self, row):
        changed = self.PIXELS.copy()
        changed[row, -1] ^= 1
        assert GrayRaster(changed, 600) != GrayRaster(self.PIXELS, 600)

    @pytest.mark.parametrize(
        "shape", [(8, 23), (23, 7), (22, 8), (0, 8), (23, 0)], ids=lambda shape: "x".join(map(str, shape))
    )
    def test_other_shape_is_unequal(self, shape):
        other = GrayRaster(np.zeros(shape, dtype=np.uint8), 600)
        assert (other == GrayRaster(self.PIXELS, 600)) is False
        assert (GrayRaster(self.PIXELS, 600) == other) is False
        assert other == GrayRaster(np.zeros(shape, dtype=np.uint8), 600)

    @pytest.mark.parametrize(
        "view",
        [np.s_[2:25, 3:11], np.s_[:46:2, 1:9], np.s_[-1:-24:-1, 11:3:-1]],
        ids=["crop", "strided", "reversed"],
    )
    def test_non_contiguous_views(self, view):
        scan = np.random.default_rng(5).integers(0, 256, size=(50, 20), dtype=np.uint8)
        crop = scan[view]
        assert crop.shape == (23, 8) and not crop.flags.c_contiguous
        assert GrayRaster(crop, 600) == GrayRaster(crop.copy(), 600)
        changed = crop.copy()
        changed[-1, 0] ^= 1
        assert GrayRaster(crop, 600) != GrayRaster(changed, 600)


class TestInParts:
    @pytest.mark.parametrize(
        "workers, items, parts",
        [
            (1, range(5), [[0, 1, 2, 3, 4]]),
            (3, range(10), [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]),
            (4, range(2), [[0], [1]]),
            (3, range(0), [[]]),
        ],
    )
    def test_contiguous_parts_in_order_first_on_the_caller(self, monkeypatch, workers, items, parts):
        monkeypatch.setattr(qc_raster, "WORKERS", workers)
        done = in_parts(lambda part: (list(part), threading.get_ident()), items)
        assert [part for part, _ in done] == parts
        callers = [thread == threading.get_ident() for _, thread in done]
        assert callers == [True] + [False] * (len(parts) - 1)

    def test_an_error_is_raised_once_every_part_is_done(self, monkeypatch):
        monkeypatch.setattr(qc_raster, "WORKERS", 3)
        finished = []

        def work(part):
            if part[0] == 0:
                raise ValueError("first part")
            time.sleep(0.05)
            finished.append(part[0])

        with pytest.raises(ValueError, match="first part"):
            in_parts(work, range(3))
        assert sorted(finished) == [1, 2]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_makes_its_own_pool(self, monkeypatch):
        # the parent's pool threads do not run in a child; were they used, it would hang
        monkeypatch.setattr(qc_raster, "WORKERS", 2)
        assert in_parts(len, range(4)) == [2, 2]
        pid = os.fork()
        if pid == 0:
            os._exit(0 if in_parts(len, range(4)) == [2, 2] else 1)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0

    def test_import_makes_no_pool(self):
        src = os.path.dirname(os.path.dirname(os.path.dirname(qc_raster.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        check = "import sys, scancell.qc; sys.exit('concurrent.futures' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", check], env=env, timeout=60).returncode == 0


def blur_image(image, sigma):
    """`blur_rows` on a plain 2-D image."""
    rows, row_of = blur_rows(image, np.arange(image.shape[0]), sigma)
    return rows[row_of]


def blur_full_image(image, sigma):
    """Reference: each axis padded at its edges, the taps summed over the whole image."""
    radius = max(1, int(np.ceil(3.0 * sigma)))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    height, width = image.shape
    for axis in (1, 0):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(image, pad, mode="edge")
        out = np.zeros_like(image)
        for i, weight in enumerate(kernel):
            out += weight * (padded[:, i : i + width] if axis == 1 else padded[i : i + height])
        image = out
    return image


class TestFilters:
    def test_blur_preserves_constant_regions(self):
        image = np.full((20, 20), 200.0)
        assert np.allclose(blur_image(image, 0.8), 200.0)

    def test_blur_softens_edges(self):
        image = np.zeros((10, 20))
        image[:, 10:] = 255.0
        blurred = blur_image(image, 1.0)
        assert 0 < blurred[5, 10] < 255

    @pytest.mark.parametrize(
        "shape, sigma", [((1, 7), 0.65), ((9, 13), 0.65), ((5, 6), 3.0), ((40, 30), 1.7)]
    )
    def test_blur_bit_identical_to_full_image_reference(self, shape, sigma):
        image = np.random.default_rng(4).uniform(0.0, 255.0, size=shape)
        assert np.array_equal(blur_image(image, sigma), blur_full_image(image, sigma))

    def test_blur_rows_computes_each_distinct_window_once(self):
        rows = np.random.default_rng(4).uniform(0.0, 255.0, size=(3, 20))
        row_of = np.repeat([0, 1, 2, 0], [8, 5, 9, 6])
        blurred, blurred_of = blur_rows(rows, row_of, 1.2)
        assert np.array_equal(blurred[blurred_of], blur_full_image(rows[row_of], 1.2))
        assert len(blurred) < len(row_of)

    def test_noise_in_strips_from_one_generator_equals_one_draw(self):
        image = np.full((7, 5), 128.0)
        rng = np.random.default_rng(9)
        strips = [add_noise(image[a:b], 2.0, rng) for a, b in ((0, 3), (3, 4), (4, 7))]
        assert np.array_equal(np.vstack(strips), add_noise(image, 2.0, seed=9))

    def test_noise_is_generator_normal_added(self):
        # `add_noise` draws standard normals and scales them; the sum equals
        # the one `Generator.normal(0, sigma)` gives, written into `out` or not
        image = np.random.default_rng(3).uniform(-5.0, 260.0, size=(6, 7))
        image[0, :3] = (0.0, -0.0, 255.0)
        expected = image + np.random.default_rng(9).normal(0.0, 2.0, size=image.shape)
        assert np.array_equal(add_noise(image, 2.0, seed=9), expected)
        out = np.empty((6, 7))
        assert add_noise(image, 2.0, seed=9, out=out) is out
        assert np.array_equal(out, expected)
        rng = np.random.default_rng(9)
        rows = [add_noise(image[i], 2.0, rng, out=np.empty((1, 7))) for i in range(6)]
        assert np.array_equal(np.vstack(rows), expected)

    def test_noise_deterministic_per_seed(self):
        image = np.full((5, 5), 128.0)
        a = add_noise(image, 2.0, seed=9)
        b = add_noise(image, 2.0, seed=9)
        c = add_noise(image, 2.0, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_quantize_clips(self):
        image = np.array([[-5.0, 300.0, 127.4]])
        assert quantize(image).tolist() == [[0, 255, 127]]
