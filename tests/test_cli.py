"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from vampvae import cli
from vampvae.datasets import save_raw_matrix
from vampvae.models import (
    ModelSpec,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from vampvae.pgm import GRID_MARGIN, read_pgm
from vampvae.training import TrainConfig, prepare_validation, validation_elbo

TINY_DATA = ["--dataset", "synth", "--synth-n", "200", "--synth-dim", "16",
             "--synth-k", "2"]
TINY_MODEL = ["--m1", "3", "--m2", "3", "--hidden", "8", "--k", "4"]
TINY_TRAIN = ["--max-epochs", "3", "--warmup-epochs", "2", "--batch-size",
              "50", "--lr", "1e-3", "--patience", "5"]


def train_tiny(outdir, prior="vamp", levels="2", seed="0"):
    argv = (["train"] + TINY_DATA + TINY_MODEL + TINY_TRAIN
            + ["--levels", levels, "--prior", prior, "--seed", seed,
               "--outdir", str(outdir)])
    assert cli.main(argv) == 0
    return outdir


class TestOutputContainment:
    def test_all_artifacts_land_under_outdir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "artifacts"
        train_tiny(out)
        assert list(workdir.iterdir()) == []
        names = {p.name for p in out.iterdir()}
        assert names == {"trainlog.jsonl", "checkpoint_best.ckpt",
                         "checkpoint_final.ckpt"}


class TestInterrupt:
    def test_ctrl_c_exits_130_with_one_line(self, tmp_path, monkeypatch,
                                            capsys):
        def interrupted_fit(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "fit", interrupted_fit)
        argv = (["train"] + TINY_DATA + TINY_MODEL + TINY_TRAIN
                + ["--outdir", str(tmp_path / "out")])
        assert cli.main(argv) == cli.INTERRUPTED == 130
        assert capsys.readouterr().err == "interrupted\n"


class TestHelp:
    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("train", "evaluate", "generate", "reconstruct",
                        "inspect-prior"):
            assert command in out

    def test_subcommand_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--dataset", "--prior", "--k", "--warmup-epochs",
                     "--seed", "--outdir"):
            assert flag in out


class TestTrain:
    def test_produces_artifacts(self, tmp_path, capsys):
        out = train_tiny(tmp_path / "run")
        assert (out / "checkpoint_best.ckpt").exists()
        assert (out / "checkpoint_final.ckpt").exists()
        lines = (out / "trainlog.jsonl").read_text().strip().split("\n")
        assert len(lines) == 3
        assert "val ELBO" in capsys.readouterr().out

    def test_rerun_same_seed_identical_bytes(self, tmp_path):
        a = train_tiny(tmp_path / "a", seed="7")
        b = train_tiny(tmp_path / "b", seed="7")
        assert (a / "trainlog.jsonl").read_bytes() == \
            (b / "trainlog.jsonl").read_bytes()
        assert (a / "checkpoint_best.ckpt").read_bytes() == \
            (b / "checkpoint_best.ckpt").read_bytes()
        assert (a / "checkpoint_final.ckpt").read_bytes() == \
            (b / "checkpoint_final.ckpt").read_bytes()

    def test_repeated_prior_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--prior", "vamp", "--prior", "mog",
                      "--outdir", str(tmp_path)])
        assert exc.value.code == 2

    def test_invalid_prior_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--prior", "laplace", "--outdir",
                      str(tmp_path)])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    return train_tiny(out)


class TestEvaluate:
    def test_writes_report_and_histogram(self, trained, tmp_path, capsys):
        out = tmp_path / "eval"
        argv = (["evaluate", "--checkpoint",
                 str(trained / "checkpoint_best.ckpt")] + TINY_DATA
                + ["--is-samples", "10", "--bins", "5", "--seed", "1",
                   "--outdir", str(out)])
        assert cli.main(argv) == 0
        report = json.loads((out / "report.json").read_text())
        per = np.array(report["per_example_ll"])
        assert report["mean_test_ll"] == pytest.approx(per.mean(), abs=1e-12)
        assert report["is_samples"] == 10
        assert len(report["active_unit_counts"]) == 2
        hist_lines = (out / "histogram.csv").read_text().strip().split("\n")
        assert hist_lines[0] == "bin_left,bin_right,count"
        assert len(hist_lines) == 6
        assert "mean test LL" in capsys.readouterr().out

    def test_single_sample_note(self, trained, tmp_path, capsys):
        out = tmp_path / "eval1"
        argv = (["evaluate", "--checkpoint",
                 str(trained / "checkpoint_best.ckpt")] + TINY_DATA
                + ["--is-samples", "1", "--outdir", str(out)])
        assert cli.main(argv) == 0
        assert "single-sample" in capsys.readouterr().out

    def test_missing_checkpoint_exits_one(self, tmp_path, capsys):
        argv = (["evaluate", "--checkpoint", str(tmp_path / "nope.ckpt")]
                + TINY_DATA + ["--outdir", str(tmp_path)])
        assert cli.main(argv) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_checkpoint_exits_one_without_traceback(
            self, trained, tmp_path, capsys):
        blob = (trained / "checkpoint_best.ckpt").read_bytes()
        n = int.from_bytes(blob[8:12], "little")
        meta = json.loads(blob[12:12 + n])
        meta["tensors"][0][1] = [4.0, 3]
        header = json.dumps(meta, sort_keys=True).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:8] + len(header).to_bytes(4, "little")
                        + header + blob[12 + n:])
        argv = (["evaluate", "--checkpoint", str(bad)] + TINY_DATA
                + ["--outdir", str(tmp_path / "out")])
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad checkpoint metadata")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_non_finite_checkpoint_payload_exits_one(self, trained, tmp_path,
                                                     capsys):
        blob = bytearray((trained / "checkpoint_best.ckpt").read_bytes())
        blob[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(bytes(blob))
        argv = (["evaluate", "--checkpoint", str(bad)] + TINY_DATA
                + ["--outdir", str(tmp_path / "out")])
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite value in tensor 'prior.")
        assert f"(at byte offset {len(blob) - 8})" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_non_integer_worker_env_is_usage_error(self, trained, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setenv("VAMPVAE_THREADS", "abc")
        argv = (["evaluate", "--checkpoint",
                 str(trained / "checkpoint_best.ckpt")] + TINY_DATA
                + ["--outdir", str(tmp_path)])
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "VAMPVAE_THREADS" in capsys.readouterr().err

    def test_deterministic_report_bytes(self, trained, tmp_path):
        outs = []
        for sub in ("x", "y"):
            out = tmp_path / sub
            argv = (["evaluate", "--checkpoint",
                     str(trained / "checkpoint_best.ckpt")] + TINY_DATA
                    + ["--is-samples", "5", "--seed", "3",
                       "--outdir", str(out)])
            assert cli.main(argv) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_worker_env_does_not_change_report(self, trained, tmp_path,
                                               monkeypatch):
        blobs = []
        for workers in ("1", "3"):
            monkeypatch.setenv("VAMPVAE_THREADS", workers)
            out = tmp_path / f"w{workers}"
            argv = (["evaluate", "--checkpoint",
                     str(trained / "checkpoint_best.ckpt")] + TINY_DATA
                    + ["--is-samples", "6", "--seed", "4",
                       "--outdir", str(out)])
            assert cli.main(argv) == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_best_checkpoint_reproduces_logged_val_elbo(self, trained):
        # cross-module consistency: the trainlog's best val ELBO must be
        # recomputable from the saved best checkpoint with the fit's seeds
        from vampvae.datasets import synth_clusters

        lines = (trained / "trainlog.jsonl").read_text().strip().split("\n")
        best = max(json.loads(line)["val_elbo"] for line in lines)
        model = load_checkpoint(trained / "checkpoint_best.ckpt")
        data = synth_clusters(200, 16, 2, seed=0)
        config = TrainConfig(max_epochs=3, learning_rate=1e-3, batch_size=50,
                             warmup_epochs=2, early_stop_patience=5, seed=0)
        val_set, val_seq, _ = prepare_validation(data.val, config, "none")
        again = validation_elbo(model, val_set,
                                np.random.default_rng(val_seq), 1)
        assert again == pytest.approx(best, abs=1e-9)


class TestGenerate:
    def test_grid_file_shape(self, trained, tmp_path):
        out = tmp_path / "gen"
        argv = ["generate", "--checkpoint",
                str(trained / "checkpoint_best.ckpt"), "--n", "25",
                "--seed", "2", "--outdir", str(out)]
        assert cli.main(argv) == 0
        img = read_pgm(out / "generated.pgm")
        width = 5 * 4 + 6 * GRID_MARGIN  # 5 columns of 4px tiles + margins
        assert img.shape == (width, width)

    def test_deterministic_bytes(self, trained, tmp_path):
        blobs = []
        for sub in ("p", "q"):
            out = tmp_path / sub
            argv = ["generate", "--checkpoint",
                    str(trained / "checkpoint_best.ckpt"), "--n", "9",
                    "--seed", "5", "--outdir", str(out)]
            assert cli.main(argv) == 0
            blobs.append((out / "generated.pgm").read_bytes())
        assert blobs[0] == blobs[1]


class TestReconstruct:
    def test_side_by_side_grid(self, trained, tmp_path):
        out = tmp_path / "rec"
        argv = (["reconstruct", "--checkpoint",
                 str(trained / "checkpoint_best.ckpt")] + TINY_DATA
                + ["--n", "9", "--seed", "1", "--outdir", str(out)])
        assert cli.main(argv) == 0
        img = read_pgm(out / "reconstructions.pgm")
        single = 3 * 4 + 4 * GRID_MARGIN
        assert img.shape == (single, 2 * single + 2 * GRID_MARGIN)


class TestCountFlag:
    TRAIN_FLAGS = ["--k", "--m1", "--m2", "--hidden", "--batch-size",
                   "--max-epochs", "--patience", "--mc-samples", "--lr",
                   "--dim", "--val-rows", "--synth-n", "--synth-dim",
                   "--synth-k"]

    FLAGS = [("generate", "--n"), ("reconstruct", "--n"),
             ("inspect-prior", "--n"), ("evaluate", "--is-samples"),
             ("evaluate", "--bins"), *[("train", f) for f in TRAIN_FLAGS]]

    COMMANDS = ("train", "evaluate", "generate", "reconstruct",
                "inspect-prior")

    @pytest.mark.parametrize("command,flag,value", [
        *[(c, f, v) for c, f in FLAGS for v in ("0", "-3")],
        ("train", "--lr", "nan"), ("train", "--lr", "inf"),
        *[(c, "--seed", "-1") for c in COMMANDS],
        ("train", "--warmup-epochs", "-3")])
    def test_out_of_range_value_is_usage_error(self, trained, tmp_path,
                                               capsys, command, flag, value):
        out = tmp_path / "out"
        if command == "train":
            # a valid tiny run precedes the flag, so a value that slipped
            # through would train quickly rather than at the defaults
            argv = ["train", *TINY_DATA, *TINY_MODEL, *TINY_TRAIN]
        else:
            argv = [command, "--checkpoint",
                    str(trained / "checkpoint_best.ckpt")]
            if command in ("reconstruct", "evaluate"):
                argv += TINY_DATA
        argv += [flag, value, "--outdir", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and flag in err
        assert not out.exists()

    def test_zero_warmup_epochs_trains(self, tmp_path):
        out = tmp_path / "out"
        argv = ["train", *TINY_DATA, *TINY_MODEL, *TINY_TRAIN,
                "--warmup-epochs", "0", "--outdir", str(out)]
        assert cli.main(argv) == 0
        assert (out / "checkpoint_best.ckpt").exists()


class TestInspectPrior:
    def test_vamp_pseudo_inputs_and_component(self, trained, tmp_path):
        out = tmp_path / "ins"
        argv = ["inspect-prior", "--checkpoint",
                str(trained / "checkpoint_best.ckpt"), "--component", "3",
                "--n", "25", "--seed", "1", "--outdir", str(out)]
        assert cli.main(argv) == 0
        assert (out / "pseudo_inputs.pgm").exists()
        img = read_pgm(out / "component_3.pgm")
        width = 5 * 4 + 6 * GRID_MARGIN
        assert img.shape == (width, width)

    def test_component_out_of_range_is_usage_error(self, trained, tmp_path):
        argv = ["inspect-prior", "--checkpoint",
                str(trained / "checkpoint_best.ckpt"), "--component", "9",
                "--outdir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_component_out_of_range_writes_nothing(self, trained, tmp_path,
                                                   capsys):
        out = tmp_path / "ins"
        argv = ["inspect-prior", "--checkpoint",
                str(trained / "checkpoint_best.ckpt"), "--component", "9",
                "--outdir", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "wrote" not in capsys.readouterr().out
        assert not out.exists()

    def test_sg_prior_writes_nothing(self, tmp_path, capsys):
        spec = ModelSpec(levels=1, data_dim=16, latent1=3, hidden=8)
        path = tmp_path / "sg.ckpt"
        save_checkpoint(build_model(spec, np.random.default_rng(0)), path)
        out = tmp_path / "out"
        argv = ["inspect-prior", "--checkpoint", str(path), "--component",
                "0", "--outdir", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_sg_prior_has_nothing_to_inspect(self, tmp_path, capsys):
        run = train_tiny(tmp_path / "sg_run", prior="sg")
        argv = ["inspect-prior", "--checkpoint",
                str(run / "checkpoint_best.ckpt"), "--outdir",
                str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert "no inspectable prior parameters" in capsys.readouterr().err

    def test_mog_means_decoded(self, tmp_path):
        run = train_tiny(tmp_path / "mog_run", prior="mog")
        out = tmp_path / "mog_out"
        argv = ["inspect-prior", "--checkpoint",
                str(run / "checkpoint_best.ckpt"), "--component", "0",
                "--outdir", str(out)]
        assert cli.main(argv) == 0
        assert (out / "mog_means.pgm").exists()
        assert (out / "component_0.pgm").exists()


class TestRawMatrixInput:
    """A bad raw-matrix payload or `--scale` fails with the documented exit
    code and says what is wrong."""

    @staticmethod
    def _files(tmp_path, poison=None):
        rng = np.random.default_rng(3)
        paths = {}
        for split in ("train", "test"):
            matrix = rng.uniform(0, 1, (30, 4))
            if split == "train" and poison is not None:
                matrix[7, 2] = poison
            paths[split] = tmp_path / f"{split}.raw"
            save_raw_matrix(matrix, paths[split])
        return paths

    def _train_argv(self, paths, out, *extra):
        return (["train", "--dataset", "raw", "--train-path",
                 str(paths["train"]), "--test-path", str(paths["test"]),
                 "--dim", "4", "--levels", "1", "--prior", "sg"]
                + ["--m1", "3", "--hidden", "8"]
                + ["--max-epochs", "1", "--outdir", str(out), *extra])

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_payload_names_file_and_offset(self, tmp_path,
                                                      capsys, poison):
        paths = self._files(tmp_path, poison)
        assert cli.main(self._train_argv(paths, tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(paths["train"]) in err
        assert f"byte offset {8 * (7 * 4 + 2)}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1", "0", "x"])
    def test_bad_scale_is_usage_error(self, tmp_path, capsys, scale):
        paths = self._files(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(self._train_argv(paths, out, "--scale", scale))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--scale" in err
        assert not out.exists()

    @pytest.mark.parametrize("rows", ["30", "31"])
    def test_val_rows_not_below_training_rows_exits_one(self, tmp_path,
                                                        capsys, rows):
        paths = self._files(tmp_path)
        out = tmp_path / "out"
        argv = self._train_argv(paths, out, "--val-rows", rows)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{rows} validation rows from 30 training rows" in err
        assert not out.exists()

    def test_val_rows_sets_the_split(self, tmp_path, monkeypatch):
        paths = self._files(tmp_path)
        seen = []
        fit = cli.fit

        def fit_spy(train, val, *args, **kwargs):
            seen.append((train.shape[0], val.shape[0]))
            return fit(train, val, *args, **kwargs)

        monkeypatch.setattr(cli, "fit", fit_spy)
        argv = self._train_argv(paths, tmp_path / "out", "--val-rows", "29")
        assert cli.main(argv) == 0
        assert seen == [(1, 29)]

    def test_positive_scale_trains(self, tmp_path):
        paths = self._files(tmp_path)
        out = tmp_path / "out"
        assert cli.main(self._train_argv(paths, out, "--scale", "0.5")) == 0
        assert (out / "trainlog.jsonl").exists()
