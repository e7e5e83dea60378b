"""Self-tests of the benchmark: the output check catches mutated layers,
the tracer's counts match the code, and the CLI keeps its contract.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracer import Tracer, rgan_modules  # noqa: E402

from spectragen import autodiff as ad  # noqa: E402
from spectragen import diffusion, rgan  # noqa: E402


def reference_problems(cls) -> list[str]:
    wl = cls(seed=1)
    problems = []
    for k in range(workloads.POOL):
        wl.prepare(k)
        problems += wl.check(wl.run(wl.reference_pool, k), k, reference=True)
    return problems


@pytest.fixture(scope="module")
def built():
    return {name: cls(seed=1) for name, cls in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_check_passes_on_unmodified_code(name):
    assert reference_problems(workloads.WORKLOADS[name]) == []


def test_check_is_deterministic_for_other_seeds(built):
    wl = built["train_diffusion"]
    for i in (0, 2):
        wl.prepare(i)
        assert wl.check(wl.run(wl.pool, i), i, reference=False) == []
    wl.prepare(0)
    out = wl.run(wl.pool, 0)
    wl.params[0].data = wl.params[0].data + 1e-3
    assert wl.check(out, 4, reference=False)


@pytest.mark.parametrize("name", ["augment", "train_rgan"])
def test_check_catches_spectral_gate_returning_zeros(monkeypatch, name):
    monkeypatch.setattr(rgan.SpectralGate, "__call__",
                        lambda self, x: ad.Tensor(np.zeros(x.shape)))
    assert reference_problems(workloads.WORKLOADS[name])


@pytest.mark.parametrize("name", ["augment", "train_diffusion"])
def test_check_catches_condition_features_returning_none(monkeypatch, name):
    monkeypatch.setattr(diffusion.ConditionalDenoiser, "condition_features",
                        lambda self, stack, h, w: None)
    assert reference_problems(workloads.WORKLOADS[name])


def test_invariants_catch_a_wrong_manifest(built):
    wl = built["augment"]
    patches, manifest = wl.run(wl.pool, 0)
    manifest[3]["origin"] = [0, 0]
    assert wl.invariants((patches, manifest))


def traced(wl, ops: int) -> dict:
    tracer = Tracer()
    tracer.register(wl.rgan_model, wl.denoiser)
    tracer.install()
    wall = 0.0
    try:
        for i in range(ops):
            wl.prepare(i)
            t0 = perf_counter()
            wl.run(wl.pool, i)
            wall += perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(ops * wl.items_per_op)
    metrics["trace.coverage"] = tracer.total_self_s() / wall
    return metrics


def test_traced_counts_match_the_code(built):
    aug = traced(built["augment"], 1)
    assert aug["rgan.window_attention.calls"] == 24
    assert aug["rgan.rca.duplicate_stream_calls"] == 4
    assert aug["diffusion.condition_features.calls"] == workloads.Augment.steps
    assert aug["hsi.patches"] == 9
    assert aug["autodiff.backward.calls"] == 0
    assert aug["trace.coverage"] >= 0.9

    tr = traced(built["train_rgan"], 1)
    assert tr["rgan.window_attention.calls"] == 24
    assert tr["rgan.rca.duplicate_stream_calls"] == 4
    assert tr["autodiff.backward.calls"] == 1
    assert tr["diffusion.denoiser_forward.calls"] == 0
    assert tr["trace.coverage"] >= 0.9

    td = traced(built["train_diffusion"], 1)
    per_step = td["diffusion.denoiser_forward.calls"] * workloads.TrainDiffusion.batch
    assert per_step == 4
    assert td["autodiff.backward.calls"] * workloads.TrainDiffusion.batch == 1
    assert td["rgan.window_attention.calls"] == 0
    assert td["trace.coverage"] >= 0.9


def test_uninstall_restores_every_name(built):
    model = built["augment"].rgan_model
    before = (ad.conv2d, diffusion.rgan_forward, diffusion.iter_patches,
              rgan.Rca.__call__, diffusion.ConditionalDenoiser.forward)
    tracer = Tracer()
    tracer.register(model, None)
    tracer.install()
    assert ad.conv2d is not before[0]
    tracer.uninstall()
    after = (ad.conv2d, diffusion.rgan_forward, diffusion.iter_patches,
             rgan.Rca.__call__, diffusion.ConditionalDenoiser.forward)
    assert after == before


def test_rgan_module_names_come_from_parameter_names(built):
    tracer = Tracer()
    tracer.register(built["augment"].rgan_model, None)
    keys = sorted(set(tracer._modules.values()))
    assert "rgan.sal|gal0.sal_hsi" in keys
    assert "rgan.specal|gal1.spec_rgb" in keys
    assert "rgan.head|head" in keys
    assert len(keys) == len(rgan_modules(built["augment"].rgan_model))


def run_cli(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_the_metrics_named_in_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_cli(ROOT, "--workload", "augment", "--seed", "5", "--seconds", "1",
                   "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_cli(tmp_path, "--workload", "augment", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
