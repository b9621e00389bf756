"""Seeded artifacts keep their bytes across refactors and speed-ups.

For levels {1, 2} x every prior, `vampvae train` (2 epochs on synth data,
D=16) then `vampvae evaluate` (S=20) on its best checkpoint must write the
same `trainlog.jsonl`, both checkpoints, `report.json` and `histogram.csv`
as the digests in RECORDED. Those bytes depend on the numeric kernels, so
the digests are keyed by the platform that recorded them; on a platform
with no record the test checks only that two runs write identical bytes.

The PATH_CASES pin the paths those combinations do not reach, in the same
way: two Monte Carlo samples per row at either level; the discretized
logistic likelihood (`--dataset freyfaces` on a raw matrix on the 1/255
grid); dynamic binarization (`--dataset omniglot`, with a `--val-path`
matrix); and a raw-matrix split taken with `--val-rows`.

To record digests for a new platform, run `artifact_digests` and
`path_digests` on a commit known to be good and add their results under
`platform_key()`.
"""

import contextlib
import hashlib
import io
import platform
from pathlib import Path

import numpy as np
import pytest

from vampvae import cli
from vampvae.datasets import save_raw_matrix
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


def run_digest(data: list[str], model: list[str], outdir: Path) -> str:
    """Train with the `data` and `model` flags under `outdir`, evaluate the
    best checkpoint on `data`; the sha256 of the artifacts' `name=sha256`
    lines."""
    _run(["train", *data, *model, *TRAIN, "--outdir", str(outdir)])
    _run(["evaluate", *data, "--checkpoint",
          str(outdir / "checkpoint_best.ckpt"), "--is-samples", "20",
          "--bins", "8", "--outdir", str(outdir / "eval")])
    lines = [f"{name}={hashlib.sha256((outdir / name).read_bytes()).hexdigest()}"
             for name in ARTIFACTS]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def combo_digest(levels: int, prior: str, outdir: Path) -> str:
    """Train and evaluate one combination under `outdir`."""
    return run_digest(DATA, [*MODEL, "--levels", str(levels),
                             "--prior", prior], outdir)


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


RAW = ["--train-path", "{d}/train.f64", "--test-path", "{d}/test.f64",
       "--dim", "16", "--seed", "3"]
VAMP2 = ["--levels", "2", "--prior", "vamp"]

# case -> (dataset flags, model flags added to MODEL); "{d}" is the case's
# directory, which holds the raw matrices `write_matrices` draws
PATH_CASES = {
    "L1-mc2": (DATA, ["--levels", "1", "--prior", "vamp", "--mc-samples", "2"]),
    "L2-mc2": (DATA, [*VAMP2, "--mc-samples", "2"]),
    "freyfaces": (["--dataset", "freyfaces", *RAW], VAMP2),
    "omniglot": (["--dataset", "omniglot", *RAW, "--val-path", "{d}/val.f64"],
                 VAMP2),
    "raw-val-rows": (["--dataset", "raw", *RAW, "--val-rows", "45"], VAMP2),
}

# platform_key() -> case -> sha256 over its artifacts' sha256 lines
RECORDED_PATHS = {
    "x86_64 simd=X86_V3,X86_V4,AVX512_ICL,AVX512_SPR numpy=2.4.6 blas=scipy-openblas-0.3.31.188.0": {
        "L1-mc2":
            "11f7133b7b4d0e6a930459c8694e37c890e9eee4665f0318d194c4495b36d756",
        "L2-mc2":
            "af9f44827cf5e2b3d72367c0efb553d384e1387ab4c968749793d428b5d1cda2",
        "freyfaces":
            "3fc1e6d9ad37a9c5d98ed93c87750a2afe170c41d519b29b15f8c3192dffffde",
        "omniglot":
            "439d91a81c122a42fcf00a7e1194acc7dea3af1cc235f4779ed7d4c7e399b5d1",
        "raw-val-rows":
            "3babf7b776ef21d468b249bffbb42cf5dfada9adcc151eb1a6943a38e61894da",
    },
}


def write_matrices(root: Path) -> None:
    """Seeded 16-wide train (260 rows; freyfaces holds out its default 200),
    validation and test matrices on the {0, 1/255, ..., 1} grid."""
    rng = np.random.default_rng(11)
    for split, rows in (("train", 260), ("val", 40), ("test", 30)):
        save_raw_matrix(rng.integers(0, 256, (rows, 16)) / 255.0,
                        root / f"{split}.f64")


def path_digest(case: str, outdir: Path) -> str:
    """Train and evaluate one of the PATH_CASES under `outdir`."""
    outdir.mkdir(parents=True)
    write_matrices(outdir)
    data, model = PATH_CASES[case]
    return run_digest([arg.format(d=outdir) for arg in data], [*MODEL, *model],
                      outdir)


def path_digests(root: Path) -> dict[str, str]:
    return {case: path_digest(case, root / case) for case in PATH_CASES}


@pytest.mark.parametrize("case", PATH_CASES)
def test_path_bytes(case, tmp_path):
    got = path_digest(case, tmp_path / "a")
    recorded = RECORDED_PATHS.get(platform_key())
    if recorded is None:
        assert path_digest(case, tmp_path / "b") == got
    else:
        assert got == recorded[case]
