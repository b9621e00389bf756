"""Tests for the IDX / raw-matrix loaders, splits, and synthetic data."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vampvae.datasets import (
    Dataset,
    canonical_split,
    load_idx,
    load_raw_matrix,
    save_raw_matrix,
    synth_clusters,
)
from vampvae.errors import ContractError, DomainError, FormatError


def write_idx_images(path, images: np.ndarray) -> None:
    """Independent IDX writer: header fields packed one by one."""
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", 0x00000803))
        fh.write(struct.pack(">I", n))
        fh.write(struct.pack(">I", rows))
        fh.write(struct.pack(">I", cols))
        fh.write(images.astype(np.uint8).tobytes())


class TestLoadIdx:
    def test_two_image_fixture(self, tmp_path):
        images = np.array([[[0, 255], [51, 102]],
                           [[255, 0], [204, 153]]], dtype=np.uint8)
        path = tmp_path / "img.idx"
        write_idx_images(path, images)
        got = load_idx(path)
        want = np.array([[0, 255, 51, 102], [255, 0, 204, 153]]) / 255.0
        np.testing.assert_allclose(got, want, rtol=1e-15)
        assert got.shape == (2, 4)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000801, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(FormatError) as err:
            load_idx(path)
        assert err.value.offset == 0

    def test_declared_count_exceeds_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 5, 2, 2) + b"\x00" * 4)
        with pytest.raises(FormatError) as err:
            load_idx(path)
        assert err.value.offset is not None

    def test_trailing_bytes_rejected(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        path = tmp_path / "i.idx"
        write_idx_images(path, images)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError):
            load_idx(path)


class TestRawMatrix:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.uniform(0, 1, (3, 2))
        path = tmp_path / "m.raw"
        save_raw_matrix(matrix, path)
        got = load_raw_matrix(path, dim=2)
        np.testing.assert_array_equal(got, matrix)

    def test_header_variant_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = rng.uniform(0, 1, (4, 3))
        path = tmp_path / "m.raw"
        save_raw_matrix(matrix, path, header=True)
        got = load_raw_matrix(path, dim=3)
        np.testing.assert_array_equal(got, matrix)

    def test_integer_payload_scaled_to_grid(self, tmp_path):
        matrix = np.array([[0.0, 51.0], [255.0, 128.0]])
        path = tmp_path / "m.raw"
        save_raw_matrix(matrix, path)
        got = load_raw_matrix(path, dim=2, scale=1.0 / 255.0)
        scaled = got * 255.0
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-12)

    def test_values_clamped_to_unit_interval(self, tmp_path):
        path = tmp_path / "m.raw"
        save_raw_matrix(np.array([[-0.5, 2.0]]), path)
        got = load_raw_matrix(path, dim=2)
        np.testing.assert_array_equal(got, [[0.0, 1.0]])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.raw"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            load_raw_matrix(path, dim=2)

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "odd.raw"
        path.write_bytes(b"\x00" * 20)
        with pytest.raises(FormatError):
            load_raw_matrix(path, dim=2)

    def test_header_row_count_mismatch(self, tmp_path):
        path = tmp_path / "m.raw"
        payload = np.zeros((2, 2)).tobytes()
        path.write_bytes(b"3 2\n" + payload)
        with pytest.raises(FormatError):
            load_raw_matrix(path, dim=2)

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_at_its_offset(self, tmp_path, header,
                                                     value):
        matrix = np.random.default_rng(2).uniform(0, 1, (5, 3))
        matrix[3, 1] = value
        matrix[4, 0] = np.nan
        path = tmp_path / "m.raw"
        save_raw_matrix(matrix, path, header=header)
        start = len(b"5 3\n") if header else 0
        with pytest.raises(FormatError) as exc:
            load_raw_matrix(path, dim=3)
        assert exc.value.offset == start + 8 * (3 * 3 + 1)
        assert "row 3" in str(exc.value)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -1.0, 0.0])
    def test_bad_scale_rejected(self, tmp_path, scale):
        path = tmp_path / "m.raw"
        save_raw_matrix(np.full((2, 2), 0.5), path)
        with pytest.raises(ContractError):
            load_raw_matrix(path, dim=2, scale=scale)


class TestCanonicalSplit:
    def _mnist_like(self):
        rng = np.random.default_rng(2)
        train = (rng.random((60_000, 16)) < 0.3).astype(float)
        test = (rng.random((10_000, 16)) < 0.3).astype(float)
        return train, test

    def test_split_sizes(self):
        train, test = self._mnist_like()
        ds = canonical_split("dynamic-mnist", train, test)
        assert ds.train.shape[0] == 50_000
        assert ds.val.shape[0] == 10_000
        assert ds.test.shape[0] == 10_000
        assert ds.binarization == "dynamic"

    def test_split_deterministic(self):
        train, test = self._mnist_like()
        a = canonical_split("mnist", train, test)
        b = canonical_split("mnist", train, test)
        np.testing.assert_array_equal(a.val, b.val)
        np.testing.assert_array_equal(a.val, train[50_000:])

    def test_static_variant_rejects_gray_values(self):
        train, test = self._mnist_like()
        train[0, 0] = 0.5
        with pytest.raises(DomainError):
            canonical_split("static-mnist", train, test)

    def test_unexpected_row_counts_rejected(self):
        with pytest.raises(ContractError):
            canonical_split("mnist", np.zeros((100, 16)), np.zeros((10, 16)))


class TestSynthClusters:
    def test_single_cluster_no_noise_is_constant(self):
        ds = synth_clusters(40, 12, 1, seed=3, flip_prob=0.0)
        all_rows = np.vstack([ds.train, ds.val, ds.test])
        assert np.all(all_rows == all_rows[0])

    def test_same_seed_same_dataset(self):
        a = synth_clusters(64, 16, 4, seed=4)
        b = synth_clusters(64, 16, 4, seed=4)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)

    def test_prototype_separation(self):
        # recover prototypes as majority votes per cluster and check the
        # pairwise Hamming floor the generator promises
        ds = synth_clusters(4000, 64, 8, seed=5, flip_prob=0.0)
        rows = np.vstack([ds.train, ds.val, ds.test])
        protos = np.unique(rows, axis=0)
        assert protos.shape[0] == 8
        for i in range(8):
            for j in range(i + 1, 8):
                assert np.sum(protos[i] != protos[j]) >= 64 // 4

    def test_split_proportions_and_binary_values(self):
        ds = synth_clusters(200, 16, 3, seed=6)
        assert ds.train.shape[0] == 140
        assert ds.val.shape[0] == 30
        assert ds.test.shape[0] == 30
        assert ds.binarization == "static"
        for split in (ds.train, ds.val, ds.test):
            assert np.all((split == 0) | (split == 1))

    def test_prototypes_match_the_pairwise_loop_reference(self):
        # the separation check as a plain double loop over prototype pairs;
        # at these sizes many seeds need redraws
        def reference(n, dim, k, seed):
            rng = np.random.default_rng(seed)
            while True:
                protos = (rng.random((k, dim)) < 0.5).astype(np.float64)
                if all(np.sum(protos[i] != protos[j]) >= dim // 4
                       for i in range(k) for j in range(i + 1, k)):
                    return protos[rng.integers(k, size=n)]

        for dim, k in [(8, 5), (9, 7), (12, 6)]:
            for seed in range(8):
                ds = synth_clusters(40, dim, k, seed=seed, flip_prob=0.0)
                rows = np.vstack([ds.train, ds.val, ds.test])
                np.testing.assert_array_equal(rows,
                                              reference(40, dim, k, seed))

    def test_infeasible_separation_is_a_contract_error(self):
        # 32 prototypes of 4 bits cannot all differ: at most 16 are distinct
        with pytest.raises(ContractError, match=r"k=32 .*dim=4"):
            synth_clusters(100, 4, 32, seed=0)

    def test_bad_cluster_count(self):
        with pytest.raises(ContractError):
            synth_clusters(10, 8, 0, seed=0)
        with pytest.raises(ContractError):
            synth_clusters(10, 0, 2, seed=0)


class TestDatasetInvariants:
    def test_out_of_range_values_rejected(self):
        with pytest.raises(DomainError):
            Dataset("x", 2, np.array([[0.5, 1.5]]), np.zeros((1, 2)),
                    np.zeros((1, 2)), "none")

    def test_static_must_be_binary(self):
        with pytest.raises(DomainError):
            Dataset("x", 2, np.array([[0.5, 0.0]]), np.zeros((1, 2)),
                    np.zeros((1, 2)), "static")


# -- single-byte mutations: every mutated file loads or raises FormatError --

def _idx_blob() -> bytes:
    images = np.arange(3 * 2 * 2).reshape(3, 2, 2) * 20
    return (struct.pack(">IIII", 0x00000803, 3, 2, 2)
            + images.astype(np.uint8).tobytes())


def _raw_blob() -> bytes:
    rows = np.random.default_rng(0).uniform(0.0, 1.0, (3, 4))
    return b"3 4\n" + rows.astype("<f8").tobytes()


IDX_BLOB = _idx_blob()
RAW_BLOB = _raw_blob()
RAW_HEADER_END = RAW_BLOB.index(b"\n") + 1

# small counts reach the IDX header's corners, and digits, blanks and
# newlines the raw header parser's, far more often than uniform bytes do
BYTES = st.one_of(st.sampled_from([0, 1, 2, 3, 255, *b"0123459 \n\t"]),
                  st.integers(0, 255))


def _loads_or_format_error(blob: bytes, position: int, value: int,
                           load) -> None:
    mutated = bytearray(blob)
    mutated[position] = value
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.bin"
        path.write_bytes(bytes(mutated))
        try:
            load(path)
        except FormatError:
            pass


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.one_of(st.integers(0, 15), st.integers(0, len(IDX_BLOB) - 1)),
       BYTES)
def test_idx_single_byte_mutation_loads_or_raises_format_error(position,
                                                               value):
    # half the positions are drawn from the 16 header bytes, where the
    # parsing happens
    _loads_or_format_error(IDX_BLOB, position, value, load_idx)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.one_of(st.integers(0, RAW_HEADER_END - 1),
                 st.integers(0, len(RAW_BLOB) - 1)), BYTES)
def test_raw_single_byte_mutation_loads_or_raises_format_error(position,
                                                               value):
    _loads_or_format_error(RAW_BLOB, position, value,
                           lambda path: load_raw_matrix(path, 4))
