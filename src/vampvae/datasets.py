"""Dataset ingestion: IDX and raw-matrix loaders, canonical splits, and the
synthetic cluster generator used for desk-scale experiments.

Two wire formats are understood:

- IDX (MNIST distribution format): big-endian, magic 0x00000803 for u8
  3-D image tensors.
- raw matrix: little-endian float64 rows, either headerless (the row count
  is inferred from the file size) or prefixed with one ASCII line "N D\\n".
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, FormatError

IDX_IMAGES_MAGIC = 0x00000803

BINARIZATIONS = ("static", "dynamic", "none")

# synth_clusters gives up after this many prototype draws; with k prototypes
# of dim bits the separation may be impossible (k > 2**dim) or hopeless
MAX_PROTOTYPE_DRAWS = 1000


@dataclass
class Dataset:
    """Row-major image matrices in [0, 1] with canonical splits."""

    name: str
    dim: int
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    binarization: str

    def __post_init__(self):
        if self.binarization not in BINARIZATIONS:
            raise ContractError(f"unknown binarization '{self.binarization}'")
        for split in (self.train, self.val, self.test):
            if split.ndim != 2 or split.shape[1] != self.dim:
                raise ContractError("split width does not match dataset dim")
            if np.any(split < 0.0) or np.any(split > 1.0):
                raise DomainError("dataset values must lie in [0, 1]")
            if self.binarization == "static" and \
                    not np.all((split == 0.0) | (split == 1.0)):
                raise DomainError("static datasets must be binary")


def load_idx(images_path) -> np.ndarray:
    """Parse an IDX u8 image file into an (N, H*W) matrix scaled to [0, 1]."""
    with open(images_path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise FormatError("IDX file shorter than its magic", offset=0)
    magic = struct.unpack(">I", blob[:4])[0]
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(f"bad IDX image magic 0x{magic:08x}", offset=0)
    if len(blob) < 16:
        raise FormatError("truncated IDX image header", offset=4)
    n, rows, cols = struct.unpack(">III", blob[4:16])
    expected = 16 + n * rows * cols
    if len(blob) < expected:
        raise FormatError(f"IDX payload needs {expected} bytes, file has "
                          f"{len(blob)}", offset=len(blob))
    if len(blob) > expected:
        raise FormatError("trailing bytes after IDX payload", offset=expected)
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=16)
    return pixels.reshape(n, rows * cols).astype(np.float64) / 255.0


def load_raw_matrix(path, dim: int, scale: float = 1.0) -> np.ndarray:
    """Load little-endian float64 rows; values are scaled then clamped to
    [0, 1]. A NaN or infinite value is a FormatError at its byte offset."""
    if dim < 1:
        raise ContractError("dim must be positive")
    if not (math.isfinite(scale) and scale > 0.0):
        raise ContractError(f"scale must be finite and positive, got {scale}")
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) == 0:
        raise FormatError("empty raw-matrix file", offset=0)

    offset = 0
    n = None
    newline = blob.find(b"\n", 0, 64)
    if newline != -1:
        head = blob[:newline].split()
        if len(head) == 2 and all(tok.isdigit() for tok in head):
            n, header_dim = int(head[0]), int(head[1])
            if header_dim != dim:
                raise FormatError(f"header dim {header_dim} != expected {dim}",
                                  offset=0)
            offset = newline + 1
    payload = len(blob) - offset
    if payload % (dim * 8) != 0:
        raise FormatError(f"payload of {payload} bytes is not a whole number "
                          f"of {dim}-wide float64 rows", offset=offset)
    rows = payload // (dim * 8)
    if n is None:
        n = rows
    elif n != rows:
        raise FormatError(f"header declares {n} rows, payload holds {rows}",
                          offset=offset)
    matrix = np.frombuffer(blob, dtype="<f8",
                           offset=offset).reshape(n, dim).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(matrix))
    if bad.size:
        raise FormatError(f"non-finite value {matrix.flat[bad[0]]} in row "
                          f"{bad[0] // dim}", offset=offset + 8 * int(bad[0]))
    return np.clip(matrix * scale, 0.0, 1.0)


def save_raw_matrix(matrix: np.ndarray, path, header: bool = False) -> None:
    """Inverse of `load_raw_matrix` at scale 1 (interchange writer)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    with open(path, "wb") as fh:
        if header:
            fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n".encode())
        fh.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())


def canonical_split(name: str, train_matrix: np.ndarray,
                    test_matrix: np.ndarray) -> Dataset:
    """The fixed MNIST protocol: the last 10,000 training rows become
    validation, leaving 50k/10k/10k."""
    if name not in ("mnist", "dynamic-mnist", "static-mnist"):
        raise ContractError(f"no canonical split defined for '{name}'")
    if train_matrix.shape[0] != 60_000 or test_matrix.shape[0] != 10_000:
        raise ContractError(
            f"MNIST split expects 60k train / 10k test rows, got "
            f"{train_matrix.shape[0]} / {test_matrix.shape[0]}")
    binarization = "static" if name == "static-mnist" else "dynamic"
    return Dataset(name=name, dim=train_matrix.shape[1],
                   train=train_matrix[:50_000],
                   val=train_matrix[50_000:],
                   test=test_matrix,
                   binarization=binarization)


def synth_clusters(n: int, dim: int, k_clusters: int, seed: int,
                   flip_prob: float = 0.05) -> Dataset:
    """Binary clusters around k well-separated prototypes with flip noise.

    Prototypes are redrawn until every pair differs in at least dim/4 bits
    (at most MAX_PROTOTYPE_DRAWS times), rows are split 70/15/15.
    """
    if k_clusters < 1:
        raise ContractError("k_clusters must be at least 1")
    if dim < 1:
        raise ContractError("dim must be at least 1")
    rng = np.random.default_rng(seed)
    min_dist = dim // 4
    pairs = np.triu_indices(k_clusters, 1)
    for _ in range(MAX_PROTOTYPE_DRAWS):
        protos = (rng.random((k_clusters, dim)) < 0.5).astype(np.float64)
        # Hamming distances of 0/1 rows, exact in float64
        ones_vs_zeros = protos @ (1.0 - protos).T
        hamming = ones_vs_zeros + ones_vs_zeros.T
        if np.all(hamming[pairs] >= min_dist):
            break
    else:
        raise ContractError(
            f"no draw of k={k_clusters} prototypes of dim={dim} differed "
            f"pairwise in at least {min_dist} bits in {MAX_PROTOTYPE_DRAWS} "
            "draws")
    labels = rng.integers(k_clusters, size=n)
    data = protos[labels]
    flips = rng.random((n, dim)) < flip_prob
    data = np.where(flips, 1.0 - data, data)

    n_train = int(n * 0.70)
    n_val = int(n * 0.15)
    return Dataset(name="synth", dim=dim,
                   train=data[:n_train],
                   val=data[n_train:n_train + n_val],
                   test=data[n_train + n_val:],
                   binarization="static")
