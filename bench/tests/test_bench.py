"""Tests of the benchmark harness itself: python3 -m pytest bench/tests"""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import spec  # noqa: E402
from tracing import (  # noqa: E402
    Clock,
    Patcher,
    Tracer,
    percentile,
    self_times,
    vampvae_modules,
)
from workloads import WORKLOADS  # noqa: E402

import vampvae.cli  # noqa: E402,F401
from vampvae import evaluation, models, training  # noqa: E402

# the grammar of BENCHMARK.json's names and units
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_times_of_a_hand_built_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; the second has a child
    # [6, 7]; a second root of the same name [20, 22] has none
    spans = [
        ("root", -1, 0, 0.0, 10.0),
        ("a", 0, 1, 1.0, 4.0),
        ("b", 0, 1, 5.0, 9.0),
        ("c", 2, 1, 6.0, 7.0),
        ("root", -1, 0, 20.0, 22.0),
    ]
    got = self_times(spans)
    assert got == {"root": (3.0 + 2.0, 2), "a": (3.0, 1), "b": (3.0, 1),
                   "c": (1.0, 1)}
    assert sum(total for total, _ in got.values()) == 12.0


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(20)), 50) == 9.5
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert percentile([5.0] * 7 + [1.0] * 14, 50) == 1.0


def test_benchmark_json_follows_the_grammar_and_limits():
    names = ([n for n, _ in spec.END_TO_END] + [n for n, _ in spec.PER_LAYER]
             + spec.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for _, unit in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT_RE.fullmatch(unit), unit
    for bad in ("", "bad name", ".leading", "x" * 65, "tab\t"):
        assert not NAME_RE.fullmatch(bad)
    declared = spec.BENCHMARK
    assert 1 <= len(declared["per_layer"]) <= 128
    assert all(m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in declared["end_to_end"]
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
    assert spec.WORKLOADS == list(WORKLOADS)


def _attributes():
    """Every attribute of every vampvae module and of the classes they
    define, by identity."""
    out = {}
    for module in vampvae_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(module.__name__, name, attr)] = member
    return out


def test_install_and_restore_leave_module_attributes_identical():
    before = _attributes()
    patcher = Patcher()
    Tracer().install(patcher)
    Clock().install(patcher)
    changed = [k for k, v in _attributes().items() if before.get(k) is not v]
    assert ("vampvae.training", "step") in changed
    assert ("vampvae.autodiff", "apply_op") in changed
    assert ("vampvae.priors", "log_normal_diag_pairwise") in changed
    assert ("vampvae.models", "Hvae", "__init__") in changed
    patcher.restore()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _tiny_fit_and_score(patched):
    """A small vamp fit plus one IS row; returns the bytes it produced."""
    spec_ = models.ModelSpec(levels=2, data_dim=12, latent1=3, latent2=3,
                             hidden=8, prior_kind="vamp", prior_components=4)
    rng = np.random.default_rng(5)
    data = rng.random((30, 12))
    patcher, tracer = Patcher(), Tracer()
    if patched:
        tracer.install(patcher)
        Clock().install(patcher)
    try:
        model = models.build_model(spec_, np.random.default_rng(1))
        log = training.fit(data[:20], data[20:], model,
                           training.TrainConfig(max_epochs=2, batch_size=10,
                                                seed=3), "dynamic")
        ll = evaluation.is_log_likelihood((data[0] > 0.5) * 1.0, model, 30,
                                          np.random.default_rng(2),
                                          chunk_size=7)
    finally:
        patcher.restore()
    params = b"".join(p.data.tobytes() for p in model.parameters().values())
    return params, log.to_jsonl(), ll, tracer


def test_tracing_changes_no_result_and_reports_every_layer_metric():
    plain = _tiny_fit_and_score(patched=False)
    traced = _tiny_fit_and_score(patched=True)
    assert traced[:3] == plain[:3]

    tracer = traced[3]
    got = tracer.metrics(first_cycle_span=0, cycles=1)
    wanted = {n for n, _ in spec.PER_LAYER if not n.startswith("trace.")}
    assert wanted <= got.keys()
    assert got["training.steps"] == 4
    assert got["evaluation.chunks_per_row"] == 5   # ceil(30 / 7)
    assert got["autodiff.calls.normal_logpdf_pairwise"] > 0
    assert got["autodiff.bwd_ms.matmul"] > 0
    # one re-encoding per step, per validation batch and per IS chunk, and
    # its time is not counted again under models.encode_top
    assert got["priors.reencode_calls"] == 4 + 2 + 5
    spans = [s[0] for s in tracer.spans]
    for i, name in enumerate(spans):
        if name == "priors.reencode":
            assert i + 1 == len(spans) or tracer.spans[i + 1][1] != i
    # every step records the same graph, so nodes per step is a whole count
    assert got["autodiff.nodes_per_step"] == int(got["autodiff.nodes_per_step"])
