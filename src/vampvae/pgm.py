"""Binary PGM (P5) image grids: the CLI's zero-dependency output format."""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, FormatError

GRID_MARGIN = 2


def tile_shape(dim: int) -> tuple[int, int]:
    """(height, width) of the tile that shows a row of `dim` pixels:
    height ceil(sqrt(dim)), width ceil(dim / height), so the tile is square
    for a square `dim` and never has an empty column."""
    side = math.isqrt(dim - 1) + 1
    return side, -(-dim // side)


def write_pgm(gray: np.ndarray, path) -> None:
    """Write one 8-bit grayscale image as binary PGM."""
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ContractError("write_pgm expects a 2-D uint8 array")
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def read_pgm(path) -> np.ndarray:
    """Parse a binary PGM written by `write_pgm`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P5":
        raise FormatError("not a binary PGM file", offset=0)
    try:
        w, h = (int(tok) for tok in parts[1].split())
        maxval = int(parts[2])
    except ValueError as exc:
        raise FormatError(f"bad PGM header: {exc}", offset=3) from exc
    if maxval != 255:
        raise FormatError(f"unsupported PGM maxval {maxval}", offset=3)
    payload = parts[3]
    if len(payload) != w * h:
        raise FormatError(f"PGM payload holds {len(payload)} bytes, "
                          f"expected {w * h}", offset=len(blob) - len(payload))
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def _tile(row: np.ndarray, image_shape: tuple[int, int]) -> np.ndarray:
    h, w = image_shape
    padded = np.zeros(h * w)
    padded[:row.size] = np.clip(row, 0.0, 1.0)
    return np.round(padded * 255.0).astype(np.uint8).reshape(h, w)


def image_grid(images: np.ndarray, image_shape: tuple[int, int],
               margin: int = GRID_MARGIN) -> np.ndarray:
    """Lay out rows of flattened [0, 1] images as one uint8 grid canvas,
    ceil(sqrt(n)) tiles wide."""
    images = np.atleast_2d(np.asarray(images, dtype=np.float64))
    n = images.shape[0]
    if n == 0:
        raise ContractError("image_grid needs at least one image")
    h, w = image_shape
    if images.shape[1] > h * w:
        raise ContractError(f"rows of width {images.shape[1]} do not fit "
                            f"{image_shape} tiles")
    cols = int(math.ceil(math.sqrt(n)))
    rows = int(math.ceil(n / cols))
    canvas = np.zeros((rows * h + (rows + 1) * margin,
                       cols * w + (cols + 1) * margin), dtype=np.uint8)
    for i in range(n):
        r, c = divmod(i, cols)
        top = margin + r * (h + margin)
        left = margin + c * (w + margin)
        canvas[top:top + h, left:left + w] = _tile(images[i], image_shape)
    return canvas


def write_grid(images: np.ndarray, image_shape: tuple[int, int],
               path) -> None:
    write_pgm(image_grid(images, image_shape), path)


def write_side_by_side(left: np.ndarray, right: np.ndarray,
                       image_shape: tuple[int, int], path) -> None:
    """Two grids separated by a vertical gap (originals | reconstructions)."""
    a = image_grid(left, image_shape)
    b = image_grid(right, image_shape)
    if a.shape[0] != b.shape[0]:
        raise ContractError("side-by-side grids must hold equal image counts")
    gap = np.full((a.shape[0], 2 * GRID_MARGIN), 255, dtype=np.uint8)
    write_pgm(np.hstack([a, gap, b]), path)
