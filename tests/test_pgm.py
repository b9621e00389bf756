"""Tests for the PGM grid writer."""

import numpy as np
import pytest

from vampvae.errors import ContractError, FormatError
from vampvae.pgm import (
    GRID_MARGIN,
    image_grid,
    read_pgm,
    tile_shape,
    write_grid,
    write_pgm,
    write_side_by_side,
)


class TestWriteReadPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (7, 5)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        np.testing.assert_array_equal(read_pgm(path), img)

    def test_header_format(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(np.zeros((3, 4), dtype=np.uint8), path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n4 3\n255\n")
        assert len(blob) == len(b"P5\n4 3\n255\n") + 12

    def test_read_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(FormatError):
            read_pgm(path)


class TestTileShape:
    @staticmethod
    def _ceil_rule(d):
        side = int(np.ceil(np.sqrt(d)))
        return side, int(np.ceil(d / side))

    def test_fits_every_width_without_an_empty_column(self):
        for d in range(1, 4097):
            h, w = tile_shape(d)
            assert h * w >= d and h * (w - 1) < d, d
            assert (h, w) == self._ceil_rule(d), d

    @pytest.mark.parametrize("d", [784, 64, 16])
    def test_square_widths_keep_their_square_tiles(self, d):
        side = int(round(np.sqrt(d)))
        assert tile_shape(d) == (side, d // side) == self._ceil_rule(d)


class TestImageGrid:
    def test_grid_dimensions_for_square_layout(self):
        images = np.random.default_rng(1).uniform(0, 1, (25, 16))
        canvas = image_grid(images, (4, 4))
        # 5x5 tiles with margins on both sides of every tile row/column
        assert canvas.shape == (5 * 4 + 6 * GRID_MARGIN,
                                5 * 4 + 6 * GRID_MARGIN)

    def test_tile_values_scaled_to_255(self):
        canvas = image_grid(np.array([[1.0, 0.0, 0.5, 1.0]]), (2, 2),
                            margin=0)
        np.testing.assert_array_equal(canvas, [[255, 0], [128, 255]])

    def test_padding_for_non_square_dims(self):
        canvas = image_grid(np.ones((1, 3)), (2, 2), margin=0)
        np.testing.assert_array_equal(canvas, [[255, 255], [255, 0]])

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            image_grid(np.empty((0, 4)), (2, 2))

    def test_write_grid_valid_file(self, tmp_path):
        path = tmp_path / "grid.pgm"
        write_grid(np.random.default_rng(2).uniform(0, 1, (9, 4)), (2, 2),
                   path)
        img = read_pgm(path)
        assert img.shape == (3 * 2 + 4 * GRID_MARGIN, 3 * 2 + 4 * GRID_MARGIN)

    def test_side_by_side_has_separator(self, tmp_path):
        path = tmp_path / "pair.pgm"
        left = np.zeros((4, 4))
        right = np.ones((4, 4))
        write_side_by_side(left, right, (2, 2), path)
        img = read_pgm(path)
        single = 2 * 2 + 3 * GRID_MARGIN
        assert img.shape == (single, 2 * single + 2 * GRID_MARGIN)
