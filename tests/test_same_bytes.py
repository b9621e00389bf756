"""Seeded artifacts keep their bytes across refactors and speed-ups.

For levels {1, 2} x every prior, `vampvae train` (2 epochs on synth data,
D=16) then `vampvae evaluate` (S=20) on its best checkpoint must write the
same `trainlog.jsonl`, both checkpoints, `report.json` and `histogram.csv`
as the digests in RECORDED. Those bytes depend on the numeric kernels, so
the digests are keyed by the platform that recorded them; on a platform
with no record the test checks only that two runs write identical bytes.

To record digests for a new platform, run `artifact_digests` on a commit
known to be good and add its result under `platform_key()`.
"""

import contextlib
import hashlib
import io
import platform
from pathlib import Path

import numpy as np
import pytest

from vampvae import cli
from vampvae.priors import PRIOR_KINDS

ARTIFACTS = ("trainlog.jsonl", "checkpoint_best.ckpt", "checkpoint_final.ckpt",
             "eval/report.json", "eval/histogram.csv")

DATA = ["--dataset", "synth", "--synth-n", "300", "--synth-dim", "16",
        "--synth-k", "2", "--seed", "3"]
MODEL = ["--m1", "6", "--m2", "6", "--hidden", "64", "--k", "40"]
TRAIN = ["--max-epochs", "2", "--warmup-epochs", "1", "--batch-size", "50",
         "--lr", "1e-3"]

COMBOS = [(levels, prior) for levels in (1, 2) for prior in PRIOR_KINDS]

# platform_key() -> combination -> sha256 over its artifacts' sha256 lines
RECORDED = {
    "x86_64 simd=X86_V3,X86_V4,AVX512_ICL,AVX512_SPR numpy=2.4.6 blas=scipy-openblas-0.3.31.188.0": {
        "L1-sg":
            "abe67e5424fec588a91c126f7453b6385339806b53ce0d32085839efc30c6e39",
        "L1-mog":
            "8451f2fac71444f03abe88985b52b9f06178804fac6fb99d34b1fe44c572f5af",
        "L1-vamp":
            "eaba39ae13c8a67d0ccce5e5f99b69fa8140fa4b6490b5b42bdbfaea33750f04",
        "L1-vamp-data":
            "03e536c8a8241ece2ec9e7014184c2f9ea084b462e38dc4dfe5f11c152e10c09",
        "L1-weighted-vamp":
            "eaf751a4c941ec4c0e733671b95525eb74a15219e413fb939ae1b80a9be7ee0e",
        "L2-sg":
            "65e8ecdf363bb7d9f1f823ae0ebcd8bde3173db0b945e134f1e8b39bb27cf8e3",
        "L2-mog":
            "2636e99687f1cf1e231d7a2cb50ab30fb49cd8538738d9e544d0c40c5a9930b8",
        "L2-vamp":
            "2c34865a491d62fbb5e1b12093cf7c1fd656f8a3a86cdd38ad6608391929af7d",
        "L2-vamp-data":
            "c888c0f9f59ffbf58f5173014b7a722611e010a3d6b0c167e3e04654d408599b",
        "L2-weighted-vamp":
            "ac76b98c89cd6313f934c18758b2083131452716202588590a3d2a8692adb301",
    },
}


def platform_key() -> str:
    """Architecture, SIMD extensions, numpy version and BLAS build."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = ",".join(config["SIMD Extensions"]["found"])
    return (f"{platform.machine()} simd={simd} numpy={np.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')}")


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, f"vampvae {' '.join(argv)} exited with {code}"


def combo_digest(levels: int, prior: str, outdir: Path) -> str:
    """Train and evaluate one combination under `outdir`; the sha256 of its
    artifacts' `name=sha256` lines."""
    _run(["train", *DATA, *MODEL, *TRAIN, "--levels", str(levels),
          "--prior", prior, "--outdir", str(outdir)])
    _run(["evaluate", *DATA, "--checkpoint",
          str(outdir / "checkpoint_best.ckpt"), "--is-samples", "20",
          "--bins", "8", "--outdir", str(outdir / "eval")])
    lines = [f"{name}={hashlib.sha256((outdir / name).read_bytes()).hexdigest()}"
             for name in ARTIFACTS]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def artifact_digests(root: Path) -> dict[str, str]:
    return {f"L{levels}-{prior}": combo_digest(levels, prior,
                                                root / f"L{levels}-{prior}")
            for levels, prior in COMBOS}


@pytest.mark.parametrize("levels,prior", COMBOS,
                         ids=[f"L{lv}-{p}" for lv, p in COMBOS])
def test_artifact_bytes(levels, prior, tmp_path):
    got = combo_digest(levels, prior, tmp_path / "a")
    recorded = RECORDED.get(platform_key())
    if recorded is None:
        assert combo_digest(levels, prior, tmp_path / "b") == got
    else:
        assert got == recorded[f"L{levels}-{prior}"]
