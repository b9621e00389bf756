"""Seeded PGM images keep their bytes across refactors.

For levels {1, 2} x every mixture prior, a model trained for one epoch on
synth data writes the grids of `vampvae generate`, `vampvae reconstruct` and
`vampvae inspect-prior --component 0`; with the standard Gaussian prior,
which has nothing to inspect, the first two. D=20 is not a square, so the
5x4 tiles also pin the tile-shape rule. The digests are keyed by
`test_same_bytes.platform_key()`; on a platform with no record the test
checks only that two runs write identical bytes.

To record digests for a new platform, run `image_digests` on a commit known
to be good and add its result under `platform_key()`.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from test_same_bytes import platform_key
from vampvae import cli
from vampvae.priors import PRIOR_KINDS

DATA = ["--dataset", "synth", "--synth-n", "300", "--synth-dim", "20",
        "--synth-k", "3", "--seed", "4"]
MODEL = ["--m1", "5", "--m2", "4", "--hidden", "32", "--k", "12"]
TRAIN = ["--max-epochs", "1", "--warmup-epochs", "1", "--batch-size", "50",
         "--lr", "1e-3"]
IMAGES = ["--n", "7", "--seed", "5"]

COMBOS = [(levels, prior) for levels in (1, 2) for prior in PRIOR_KINDS]

# platform_key() -> combination -> sha256 over its images' sha256 lines
RECORDED = {
    "x86_64 simd=X86_V3,X86_V4,AVX512_ICL,AVX512_SPR numpy=2.4.6 blas=scipy-openblas-0.3.31.188.0": {
        "L1-sg":
            "2e0624dc738bbd79919b38c634df91c92a0dc2b55bf9ca1a3d40144788638422",
        "L1-mog":
            "df7a0ddd344ef6c1156f1bad68d2432490350ce07181820f8f8f3a7a6f673396",
        "L1-vamp":
            "7ca39ded7e0d4dd12e672219490898d3d96abfc19f67c3814ad65921490cac17",
        "L1-vamp-data":
            "17ffa0e9082db0c82fb9949f5d44ef696e537c273ab54d418a62c4c7af891c5e",
        "L1-weighted-vamp":
            "1dc2b88846a2a83eb66f763f49db84870e59292bf27edf7d60201faa22a8d291",
        "L2-sg":
            "2770d5fe20116d8289dc8ea61fe4e82a1b75ccddf3f58ef52ff52ac7344eb716",
        "L2-mog":
            "84995b3dc7f1107a83f78df2f3c08e8acdb89bceab46127d2c518b58da79bf20",
        "L2-vamp":
            "cef0685b7407bf41691396220cac0ca5595b5334b31070038507277d4b7cf36b",
        "L2-vamp-data":
            "03adcb38737792d805d904d1d2aaba910873ea1dd7b9016c0c1fe8b1cfa8826b",
        "L2-weighted-vamp":
            "8fa032d65ad768f16b67c678ddad67fed08094d1d03021d7ed45b9e4b134d646",
    },
    "x86_64 simd=X86_V3,X86_V4,AVX512_ICL numpy=2.4.6 blas=scipy-openblas-0.3.31.188.0": {
        "L1-sg":
            "2e0624dc738bbd79919b38c634df91c92a0dc2b55bf9ca1a3d40144788638422",
        "L1-mog":
            "df7a0ddd344ef6c1156f1bad68d2432490350ce07181820f8f8f3a7a6f673396",
        "L1-vamp":
            "7ca39ded7e0d4dd12e672219490898d3d96abfc19f67c3814ad65921490cac17",
        "L1-vamp-data":
            "17ffa0e9082db0c82fb9949f5d44ef696e537c273ab54d418a62c4c7af891c5e",
        "L1-weighted-vamp":
            "1dc2b88846a2a83eb66f763f49db84870e59292bf27edf7d60201faa22a8d291",
        "L2-sg":
            "2770d5fe20116d8289dc8ea61fe4e82a1b75ccddf3f58ef52ff52ac7344eb716",
        "L2-mog":
            "84995b3dc7f1107a83f78df2f3c08e8acdb89bceab46127d2c518b58da79bf20",
        "L2-vamp":
            "cef0685b7407bf41691396220cac0ca5595b5334b31070038507277d4b7cf36b",
        "L2-vamp-data":
            "03adcb38737792d805d904d1d2aaba910873ea1dd7b9016c0c1fe8b1cfa8826b",
        "L2-weighted-vamp":
            "8fa032d65ad768f16b67c678ddad67fed08094d1d03021d7ed45b9e4b134d646",
    },
}


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, f"vampvae {' '.join(argv)} exited with {code}"


def image_digest(levels: int, prior: str, outdir: Path) -> str:
    """Train one combination under `outdir` and draw its images into
    `outdir / "images"`; the sha256 of the images' `name=sha256` lines."""
    _run(["train", *DATA, *MODEL, *TRAIN, "--levels", str(levels),
          "--prior", prior, "--outdir", str(outdir)])
    ckpt = ["--checkpoint", str(outdir / "checkpoint_best.ckpt")]
    images = outdir / "images"
    _run(["generate", *ckpt, *IMAGES, "--outdir", str(images)])
    _run(["reconstruct", *ckpt, *DATA, "--n", "7", "--outdir", str(images)])
    if prior != "sg":
        _run(["inspect-prior", *ckpt, *IMAGES, "--component", "0",
              "--outdir", str(images)])
    lines = [f"{p.name}={hashlib.sha256(p.read_bytes()).hexdigest()}"
             for p in sorted(images.iterdir())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def image_digests(root: Path) -> dict[str, str]:
    return {f"L{levels}-{prior}": image_digest(levels, prior,
                                               root / f"L{levels}-{prior}")
            for levels, prior in COMBOS}


@pytest.mark.parametrize("levels,prior", COMBOS,
                         ids=[f"L{lv}-{p}" for lv, p in COMBOS])
def test_image_bytes(levels, prior, tmp_path):
    got = image_digest(levels, prior, tmp_path / "a")
    recorded = RECORDED.get(platform_key())
    if recorded is None:
        assert image_digest(levels, prior, tmp_path / "b") == got
    else:
        assert got == recorded[f"L{levels}-{prior}"]
