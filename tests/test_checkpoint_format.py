"""The checkpoint wire format: pinned tensor manifests and bytes, and the
rejection of malformed headers and mutated files with `FormatError`."""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vampvae.errors import FormatError
from vampvae.models import (
    ModelSpec,
    build_model,
    load_checkpoint,
    save_checkpoint,
)

PRIORS = ("sg", "mog", "vamp", "vamp-data", "weighted-vamp")

# D=4, M1=2, M2=3, hidden 5, two gated layers, K=3; unsquashed pseudo-inputs
# keep the initial values free of transcendental functions
D, M1, M2, H, K = 4, 2, 3, 5, 3


def pin_model(levels: int, prior: str):
    spec = ModelSpec(levels=levels, data_dim=D, latent1=M1, latent2=M2,
                     hidden=H, hidden_layers=2, prior_kind=prior,
                     prior_components=K, prior_squash=False)
    rows = np.arange(24, dtype=float).reshape(6, D) / 32.0
    return build_model(spec, np.random.default_rng(0), data_rows=rows)


def dense(name, fan_in, width):
    return [[f"{name}.w1", [fan_in, width]], [f"{name}.b1", [width]],
            [f"{name}.w2", [fan_in, width]], [f"{name}.b2", [width]]]


def stack(name, fan_in):
    return dense(f"{name}.0", fan_in, H) + dense(f"{name}.1", H, H)


def affine(name, width):
    return [[f"{name}.w", [H, width]], [f"{name}.b", [width]]]


BODY = {
    1: (stack("encoder", D) + affine("encoder_head", 2 * M1)
        + stack("decoder", M1) + affine("decoder_head", D)),
    2: (stack("enc_z2", D) + affine("enc_z2_head", 2 * M2)
        + stack("enc_z1_x", D) + stack("enc_z1_z", M2)
        + dense("enc_z1_joint", 2 * H, H) + affine("enc_z1_head", 2 * M1)
        + stack("cond_z1", M2) + affine("cond_z1_head", 2 * M1)
        + stack("dec_z1", M1) + stack("dec_z2", M2)
        + dense("dec_joint", 2 * H, H) + affine("dec_head", D)),
}


def prior_tail(prior: str, top: int):
    return {
        "sg": [],
        "mog": [["prior.means", [K, top]], ["prior.log_vars", [K, top]]],
        "vamp": [["prior.pseudo_inputs", [K, D]]],
        "vamp-data": [["prior.pseudo_inputs", [K, D]]],
        "weighted-vamp": [["prior.pseudo_inputs", [K, D]],
                          ["prior.weight_logits", [K]]],
    }[prior]


# sha256 of save_checkpoint(pin_model(levels, prior)), recorded with the
# hand-listed parameter registries the attribute walk replaced
CHECKPOINT_SHA256 = {
    (1, "sg"): "2a56abfca2d80ea110ba74d35b2466dea3213eb8712478c58a0abbf79955549c",
    (1, "mog"): "b070de458b67d14de9ba6007f77b1aa3ff4dfe938347c137c3d838bbccbcf4c0",
    (1, "vamp"): "1710a7ec3a57bcc73c4a0e323f5b559b2ab149c4e6d03ed4ea6bf3d84da9f941",
    (1, "vamp-data"): "0c26ae67d8a259c5635840586b070c656924ce7d8c08a1595cb5a7d52d8ab2d9",
    (1, "weighted-vamp"): "70e7a76dd82309ec27a77c7b252664a731591c4b6124b0a1fdc994af1bc38dd7",
    (2, "sg"): "e97ac81d38be7dbf3835c4263b8275de57a540cd1a8c392222fe2e6dcb9755fe",
    (2, "mog"): "308918cf865a63e358e1436d712b24da2ed3cef011e33469cf2636cc92a75351",
    (2, "vamp"): "b6677c815d29dd8d9e578ac4c6a8d223beafd08dae5726af2b8eaaf56c47db6d",
    (2, "vamp-data"): "e74220f901ccd24e213517ae2e374abff25917983347f2ad87b695103a429f22",
    (2, "weighted-vamp"): "3b41b6b443617806cbfd92bd589d7e578101345eea4458c13ad6e734d1e657c8",
}


def checkpoint_bytes(model) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.ckpt"
        save_checkpoint(model, path)
        return path.read_bytes()


def split_header(blob: bytes):
    n = int.from_bytes(blob[8:12], "little")
    return json.loads(blob[12:12 + n]), blob[12 + n:]


def join_header(meta, payload: bytes) -> bytes:
    header = json.dumps(meta, sort_keys=True).encode()
    return b"VAMP" + (1).to_bytes(4, "little") + \
        len(header).to_bytes(4, "little") + header + payload


@pytest.mark.parametrize("levels", [1, 2])
@pytest.mark.parametrize("prior", PRIORS)
def test_manifest_and_bytes_are_pinned(levels, prior):
    blob = checkpoint_bytes(pin_model(levels, prior))
    meta, _ = split_header(blob)
    top = M1 if levels == 1 else M2
    assert meta["tensors"] == BODY[levels] + prior_tail(prior, top)
    assert hashlib.sha256(blob).hexdigest() == \
        CHECKPOINT_SHA256[(levels, prior)]


def _entry_not_a_pair(meta, payload):
    meta["tensors"][0] = 5
    return meta, payload


def _dim(value):
    def edit(meta, payload):
        meta["tensors"][0][1] = [value, H]
        return meta, payload
    return edit


def _tensors_not_a_list(meta, payload):
    meta["tensors"] = "encoder"
    return meta, payload


def _duplicate_name(meta, payload):
    # the repeated entry carries its own payload, so sizes and the name set
    # still match the architecture
    name, shape = meta["tensors"][0]
    meta["tensors"].append([name, shape])
    return meta, payload + payload[:8 * int(np.prod(shape))]


@pytest.mark.parametrize("edit", [
    _entry_not_a_pair, _dim("a"), _dim(4.0), _dim(-4), _tensors_not_a_list,
    _duplicate_name,
], ids=["entry-not-a-pair", "string-dim", "float-dim", "negative-dim",
        "tensors-not-a-list", "duplicate-name"])
def test_malformed_manifest_is_a_format_error(tmp_path, edit):
    meta, payload = split_header(checkpoint_bytes(pin_model(1, "mog")))
    path = tmp_path / "bad.ckpt"
    path.write_bytes(join_header(*edit(meta, payload)))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == 12


def _compact_separators(blob: bytes) -> bytes:
    meta, payload = split_header(blob)
    header = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    return blob[:8] + len(header).to_bytes(4, "little") + header + payload


def _tab_for_a_space(blob: bytes) -> bytes:
    return blob[:12] + blob[12:].replace(b" ", b"\t", 1)


def _reordered_manifest(blob: bytes) -> bytes:
    # the first two tensors swap places in the manifest and in the payload,
    # so every name, shape and value still reaches its parameter
    meta, payload = split_header(blob)
    (a, a_shape), (b, b_shape) = meta["tensors"][:2]
    na, nb = 8 * int(np.prod(a_shape)), 8 * int(np.prod(b_shape))
    meta["tensors"][:2] = [[b, b_shape], [a, a_shape]]
    return join_header(meta, payload[na:na + nb] + payload[:na]
                       + payload[na + nb:])


@pytest.mark.parametrize("edit", [
    _compact_separators, _tab_for_a_space, _reordered_manifest,
], ids=["compact-separators", "tab-for-a-space", "reordered-manifest"])
def test_header_must_be_the_one_save_writes(tmp_path, edit):
    blob = checkpoint_bytes(pin_model(2, "weighted-vamp"))
    edited = edit(blob)
    assert edited != blob
    path = tmp_path / "edited.ckpt"
    path.write_bytes(edited)
    with pytest.raises(FormatError, match="bad checkpoint metadata") as err:
        load_checkpoint(path)
    assert err.value.offset == 12


# the smallest model, so that most positions fall in the header
TINY_CHECKPOINT = checkpoint_bytes(build_model(
    ModelSpec(levels=1, data_dim=2, latent1=1, hidden=1, hidden_layers=1,
              prior_kind="vamp", prior_components=1),
    np.random.default_rng(0)))


# JSON punctuation, digits and letters reach the header parser's corners
# far more often than uniform bytes do
BYTES = st.one_of(st.sampled_from(list(b'-.,:[]{}" 01259aeflnrstu')),
                  st.integers(0, 255))


# the payload is raw float64, which any byte value keeps loadable; half the
# positions are drawn from the header, where the parsing happens
HEADER_END = 12 + int.from_bytes(TINY_CHECKPOINT[8:12], "little")
POSITIONS = st.one_of(st.integers(0, HEADER_END - 1),
                      st.integers(0, len(TINY_CHECKPOINT) - 1))


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(POSITIONS, BYTES)
def test_single_byte_mutation_loads_or_raises_format_error(position, value):
    blob = bytearray(TINY_CHECKPOINT)
    blob[position] = value
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.ckpt"
        path.write_bytes(bytes(blob))
        try:
            model = load_checkpoint(path)
        except FormatError:
            return
    # a file that loads is one save would write
    assert checkpoint_bytes(model) == bytes(blob)
