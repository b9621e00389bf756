"""Tests for the VAE / HVAE architectures, generation, and checkpoints."""

import math

import numpy as np
import pytest
from scipy import stats

from helpers import LinearGaussianModel, peak_mb_above_held, zero_parameters
from vampvae import autodiff as ad
from vampvae import models
from vampvae.autodiff import Graph, Tensor, backward, grad_check
from vampvae.errors import ContractError, DimensionError, FormatError
from vampvae.models import (
    GatedDense,
    Hvae,
    ModelSpec,
    Vae,
    build_model,
    generate,
    load_checkpoint,
    reconstruct,
    save_checkpoint,
)

LOG_2PI = math.log(2 * math.pi)


def tiny_spec(levels, prior="sg", d=4, m=2, hidden=6, k=3, likelihood="bernoulli"):
    return ModelSpec(levels=levels, data_dim=d, latent1=m, latent2=m,
                     hidden=hidden, likelihood=likelihood, prior_kind=prior,
                     prior_components=k)


def tiny_model(levels, prior="sg", seed=0, **kw):
    spec = tiny_spec(levels, prior, **kw)
    rng = np.random.default_rng(seed)
    rows = None
    if prior == "vamp-data":
        rows = np.random.default_rng(99).uniform(0, 1, (8, spec.data_dim))
    return build_model(spec, rng, data_rows=rows)


class TestForward:
    def test_zero_weights_bernoulli_reconstruction(self):
        model = tiny_model(2, d=4)
        zero_parameters(model)
        x = np.array([[1.0, 0.0, 1.0, 1.0]])
        rec = model.forward(x, np.random.default_rng(0))
        assert rec.log_px.data[0] == pytest.approx(4 * math.log(0.5), rel=1e-12)
        assert rec.log_px.data[0] == pytest.approx(-2.772589, abs=1e-6)

    def test_matched_prior_and_posterior_kl_vanishes(self):
        # zero weights force every conditional to N(0, I); with the standard
        # prior the sampled regularizer averages to zero
        model = tiny_model(2, d=4)
        zero_parameters(model)
        n = 10_000
        x = np.tile([1.0, 0.0, 1.0, 0.0], (n, 1))
        rec = model.forward(x, np.random.default_rng(1))
        reg = rec.regularizer().data
        se = reg.std(ddof=1) / math.sqrt(n)
        assert abs(reg.mean()) <= 3 * se

    def test_vae_record_fields(self):
        model = tiny_model(1)
        rec = model.forward(np.zeros((3, 4)), np.random.default_rng(2))
        (log_pz,), (log_qz,) = rec.log_pz, rec.log_qz
        for t in (rec.log_px, log_pz, log_qz):
            assert t.shape == (3,)
        (z,) = rec.latents
        assert z.shape == (3, 2)
        np.testing.assert_allclose(
            rec.elbo().data,
            rec.log_px.data + log_pz.data - log_qz.data, rtol=1e-14)

    def test_dimension_mismatch_rejected(self):
        model = tiny_model(1, d=4)
        with pytest.raises(DimensionError):
            model.forward(np.zeros((2, 5)), np.random.default_rng(0))

    def test_mc_samples_contract(self):
        model = tiny_model(1)
        with pytest.raises(ContractError):
            model.forward(np.zeros((1, 4)), np.random.default_rng(0), 0)

    def test_variance_shrinks_with_more_samples(self):
        model = tiny_model(2, d=4)
        x = np.random.default_rng(3).integers(0, 2, (4, 4)).astype(float)

        def estimates(L, n=40):
            vals = []
            for s in range(n):
                rec = model.forward(x, np.random.default_rng(1000 + s), L)
                vals.append(rec.elbo().data.mean())
            return np.var(vals, ddof=1)

        assert estimates(16) < estimates(1)

    def test_swapping_prior_changes_only_top_prior_term(self):
        sg = tiny_model(2, "sg", seed=5)
        vamp = tiny_model(2, "vamp", seed=6)
        sg_params = sg.parameters()
        for name, t in vamp.parameters().items():
            if not name.startswith("prior.") and name in sg_params:
                t.data = sg_params[name].data.copy()
        x = np.random.default_rng(7).integers(0, 2, (3, 4)).astype(float)
        rec_a = sg.forward(x, np.random.default_rng(42))
        rec_b = vamp.forward(x, np.random.default_rng(42))
        # top level first: log_pz = (log p(z2), log p(z1 | z2))
        for a, b in [(rec_a.log_px, rec_b.log_px),
                     (rec_a.log_pz[1], rec_b.log_pz[1]),
                     *zip(rec_a.log_qz, rec_b.log_qz),
                     *zip(rec_a.latents, rec_b.latents)]:
            np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(rec_a.log_pz[0].data, rec_b.log_pz[0].data)


class TestGradientsThroughElbo:
    @pytest.mark.parametrize("levels,prior", [(1, "sg"), (1, "vamp")],
                             ids=["vae-sg", "vae-vamp"])
    def test_single_sample_elbo_matches_finite_differences(self, levels, prior):
        model = tiny_model(levels, prior, seed=8, d=4, m=2, hidden=4)
        params = [t for t in model.parameters().values() if t.requires_grad]
        x = np.random.default_rng(9).integers(0, 2, (2, 4)).astype(float)

        def f(_):
            rec = model.forward(x, np.random.default_rng(123), 1)
            return ad.neg(rec.elbo().mean())

        assert grad_check(f, params) < 1e-5


class TestGatedDense:
    def test_zero_gate_halves_affine_output(self):
        rng = np.random.default_rng(10)
        layer = GatedDense(3, 5, rng)
        layer.w2.data[...] = 0.0
        layer.b2.data[...] = 0.0
        x = Tensor(rng.standard_normal((4, 3)))
        affine = (x @ layer.w1 + layer.b1).data
        np.testing.assert_array_equal(layer(x).data, 0.5 * affine)


class TestGenerate:
    def test_empty_batch(self):
        model = tiny_model(2)
        out = generate(model, 0, np.random.default_rng(0))
        assert out.x_mean.shape == (0, 4)

    def test_zero_weight_decoder_emits_half(self):
        model = tiny_model(2, d=4)
        zero_parameters(model)
        out = generate(model, 5, np.random.default_rng(1))
        np.testing.assert_allclose(out.x_mean, 0.5)

    def test_component_conditioned_generation_uses_encoder_of_pseudo_input(self):
        model = tiny_model(2, "vamp", k=8)
        out = generate(model, 25, np.random.default_rng(2), component=3)
        assert out.x_mean.shape == (25, 4)
        assert np.all(out.components == 3)
        comp = model.prior.encoder(model.prior.pseudo_input_values())
        mean3 = comp.mean.data[3]
        std3 = np.exp(0.5 * comp.log_var.data[3])
        dev = np.abs(out.z2 - mean3) / std3
        assert dev.max() < 6.0

    def test_component_out_of_range(self):
        model = tiny_model(2, "vamp", k=8)
        with pytest.raises(ContractError):
            generate(model, 4, np.random.default_rng(0), component=9)

    def test_component_on_sg_rejected(self):
        model = tiny_model(2, "sg")
        with pytest.raises(ContractError):
            generate(model, 4, np.random.default_rng(0), component=0)


class TestReconstruct:
    def test_zero_weight_model_reconstructs_half(self):
        model = tiny_model(1, d=4)
        zero_parameters(model)
        out = reconstruct(np.ones((2, 4)), model, np.random.default_rng(0))
        np.testing.assert_allclose(out, 0.5)

    def test_deterministic_given_seed(self):
        model = tiny_model(2, "vamp")
        x = np.random.default_rng(1).integers(0, 2, (3, 4)).astype(float)
        a = reconstruct(x, model, np.random.default_rng(11))
        b = reconstruct(x, model, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_overfit_single_point(self):
        # plain gradient ascent on the reconstruction term must drive the
        # decoder mean to the data point
        model = tiny_model(1, d=4, m=2, hidden=4, seed=12)
        x = np.array([[1.0, 0.0, 0.0, 1.0]])
        params = [t for t in model.parameters().values() if t.requires_grad]
        for _ in range(400):
            for p in params:
                p.zero_grad()
            with Graph():
                rec = model.forward(x, np.random.default_rng(13), 1)
                backward(ad.neg(rec.log_px.mean()))
            for p in params:
                if p.grad is not None:
                    p.data = p.data - 0.3 * p.grad
        out = reconstruct(x, model, np.random.default_rng(13))
        assert np.abs(out - x).max() < 0.1


class TestElboAgainstAnalyticMarginal:
    def test_single_sample_elbo_lower_bounds_marginal(self):
        rng = np.random.default_rng(14)
        d, m = 3, 2
        w = rng.standard_normal((d, m))
        b = rng.standard_normal(d)
        toy = LinearGaussianModel(w, b, noise_var=0.5)
        x = rng.standard_normal(d)
        # deliberately suboptimal diagonal posterior
        q_mean = toy.posterior_mean(x) + 0.3
        q_log_var = np.full(m, -0.4)
        draws = toy.elbo_samples(x, q_mean, q_log_var, 10_000, rng)
        marginal = stats.multivariate_normal.logpdf(
            x, mean=b, cov=w @ w.T + 0.5 * np.eye(d))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert draws.mean() <= marginal + 3 * se
        # and the bound is strict for a suboptimal encoder
        assert draws.mean() < marginal


class TestCheckpoints:
    @pytest.mark.parametrize("levels,prior", [
        (1, "sg"), (1, "mog"), (2, "vamp"), (2, "vamp-data"),
        (2, "weighted-vamp")])
    def test_round_trip_bitwise(self, tmp_path, levels, prior):
        model = tiny_model(levels, prior, seed=15)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == model.spec
        a, b = model.parameters(), loaded.parameters()
        assert list(a) == list(b)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)
            assert a[name].requires_grad == b[name].requires_grad

    def test_loaded_vamp_prior_is_rebound(self, tmp_path):
        model = tiny_model(2, "vamp", seed=16)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        x = np.random.default_rng(17).integers(0, 2, (2, 4)).astype(float)
        rec_a = model.forward(x, np.random.default_rng(3))
        rec_b = loaded.forward(x, np.random.default_rng(3))
        np.testing.assert_array_equal(rec_a.elbo().data, rec_b.elbo().data)

    def test_truncated_file_rejected(self, tmp_path):
        model = tiny_model(1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        bad = tmp_path / "trunc.ckpt"
        bad.write_bytes(blob[:len(blob) - 9])
        with pytest.raises(FormatError) as err:
            load_checkpoint(bad)
        assert err.value.offset is not None

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 0

    def test_version_bump_rejected_with_message(self, tmp_path):
        model = tiny_model(1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (2).to_bytes(4, "little")
        bad = tmp_path / "v2.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version 2"):
            load_checkpoint(bad)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = tiny_model(1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first-tensor", "last-value"])
    def test_non_finite_payload_rejected_at_its_offset(self, tmp_path, value,
                                                       where):
        model = tiny_model(2, "vamp", seed=18)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        names = list(model.parameters())
        payload = 12 + int.from_bytes(blob[8:12], "little")
        offset, name = {"first-tensor": (payload + 8, names[0]),
                        "last-value": (len(blob) - 8, names[-1])}[where]
        blob[offset:offset + 8] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError,
                           match=f"non-finite value in tensor '{name}'") as err:
            load_checkpoint(path)
        assert err.value.offset == offset

    def test_short_read_is_a_truncated_payload(self, tmp_path, monkeypatch):
        # the file shrinks between the size check and the read
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_model(1), path)
        blob = path.read_bytes()
        payload = 12 + int.from_bytes(blob[8:12], "little")
        real_open = open

        class ShortReads:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def readinto(self, buf):
                return max(0, self._fh.readinto(buf) - 1)

            def __getattr__(self, attr):
                return getattr(self._fh, attr)

        monkeypatch.setattr(models, "open",
                            lambda *a, **kw: ShortReads(real_open(*a, **kw)),
                            raising=False)
        with pytest.raises(FormatError,
                           match="truncated payload for tensor 'encoder.0.w1'"
                           ) as err:
            load_checkpoint(path)
        assert err.value.offset == payload


class TestAtomicSave:
    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch,
                                              error):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_model(1, seed=1), path)
        before = path.read_bytes()
        real_open = open

        class FailsAfterHeader:
            # the head and header go through in one write; the first
            # payload does not
            def __init__(self, fh):
                self._fh = fh
                self._writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def write(self, data):
                self._writes += 1
                if self._writes > 1:
                    raise error("write failed")
                return self._fh.write(data)

        monkeypatch.setattr(models, "open",
                            lambda *a, **kw: FailsAfterHeader(
                                real_open(*a, **kw)),
                            raising=False)
        with pytest.raises(error):
            save_checkpoint(tiny_model(1, seed=2), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


class TestCheckpointMemory:
    def test_paper_scale_load_holds_one_copy_of_the_parameters(self,
                                                                tmp_path):
        # each payload is read into its parameter's array; holding the file
        # next to the rebuilt model read about twice the parameter bytes
        spec = ModelSpec(levels=2, data_dim=784, prior_kind="vamp",
                         prior_components=500)
        path = tmp_path / "paper.ckpt"
        save_checkpoint(build_model(spec, np.random.default_rng(0)), path)
        model, peak_mb = peak_mb_above_held(lambda: load_checkpoint(path))
        param_mb = sum(t.data.nbytes
                       for t in model.parameters().values()) / 2**20
        assert peak_mb <= param_mb + 1.0


class TestModelSpec:
    def test_rejects_bad_levels(self):
        with pytest.raises(ContractError):
            ModelSpec(levels=3, data_dim=4)

    @pytest.mark.parametrize("field,value", [
        ("levels", True), ("data_dim", True), ("latent2", True),
        ("hidden", True), ("prior_components", True),
        ("prior_squash", "yes"), ("prior_squash", 1)])
    def test_rejects_a_value_of_the_wrong_type(self, field, value):
        with pytest.raises(ContractError, match=field):
            ModelSpec(**{"levels": 1, "data_dim": 4, field: value})

    def test_rejects_bad_likelihood(self):
        with pytest.raises(ContractError):
            ModelSpec(levels=1, data_dim=4, likelihood="gamma")

    def test_round_trips_through_checkpoint(self, tmp_path):
        spec = tiny_spec(2, "weighted-vamp")
        path = tmp_path / "spec.ckpt"
        save_checkpoint(build_model(spec, np.random.default_rng(0)), path)
        assert load_checkpoint(path).spec == spec
