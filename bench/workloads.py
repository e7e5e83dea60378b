"""The benchmark workloads: set-up, one op, and the output check.

Every workload is a closed loop with one client. Inputs come from `synth`
with the workload seed; model weights come from fixed seeds plus seeded
noise on every parameter, so no layer starts at an exact zero (zero-init
heads and zero-convolutions would otherwise let an output check pass a
program that skipped them). Op `i` uses pool entry `i % POOL`.

The output check compares an op's fingerprint with the stored reference
(for the reference seed) or with the first result of the same pool entry
(for other seeds), and checks invariants on every op.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from spectragen import diffusion, hsi, rgan, synth
from spectragen.autodiff import RandomSource, bilinear_resize_array

REFERENCE_SEED = 0
POOL = 2
# Weight noise std per parameter is WEIGHT_NOISE / sqrt(fan_in).
WEIGHT_NOISE = 0.01
REFERENCES = Path(__file__).resolve().parent / "references.json"


def seed_weights(params, seed: int) -> None:
    rng = RandomSource(seed)
    for i, p in enumerate(params):
        fan_in = int(np.prod(p.shape[1:])) if p.ndim > 1 else 1
        p.data = p.data + rng.child(i).normal(p.shape) * (WEIGHT_NOISE / math.sqrt(fan_in))


def _projection_weights(n: int) -> np.ndarray:
    return RandomSource(20240919).normal((n,))


def fingerprint(x) -> list[float]:
    """[w . x, |w| . |x|] for a fixed Gaussian w: any change to any element
    moves the first term; the second scales the tolerance."""
    x = np.asarray(x, dtype=np.float64).ravel()
    w = _projection_weights(x.size)
    return [float(w @ x), float(np.abs(w) @ np.abs(x))]


def compare(got: dict, want: dict, rtol: float) -> list[str]:
    """Fingerprints that differ by more than rtol times their scale."""
    if got.keys() != want.keys():
        return [f"fingerprint keys differ: {sorted(set(got) ^ set(want))[:4]}"]
    bad = []
    for key, (value, scale) in want.items():
        if not abs(got[key][0] - value) <= rtol * scale:
            bad.append(f"{key}: {got[key][0]!r} != reference {value!r}")
    return bad


def load_references(name: str):
    if not REFERENCES.exists():
        return None
    return json.loads(REFERENCES.read_text()).get(name)


def _is_finite(values) -> bool:
    return bool(np.all(np.isfinite(values)))


class Workload:
    """Closed-loop plumbing shared by the workloads: pools and the check."""

    name = ""
    item = ""
    items_per_op = 1
    # Fingerprint tolerance, relative to the fingerprint's scale; see the
    # subclasses for the margins on each side.
    rtol = 0.0
    rgan_model: rgan.RganModel | None = None
    denoiser: diffusion.ConditionalDenoiser | None = None

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = self.make_inputs(seed)
        self.reference_pool = self.make_inputs(REFERENCE_SEED)
        self.references = load_references(self.name)
        self._first: dict[int, dict] = {}

    def make_inputs(self, seed: int):
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        """Untimed work before op i (restoring weights for training)."""

    def run(self, pool, i: int):
        raise NotImplementedError

    def fingerprints(self, out) -> dict:
        raise NotImplementedError

    def invariants(self, out) -> list[str]:
        raise NotImplementedError

    def check(self, out, i: int, reference: bool) -> list[str]:
        """Problems with op i's output; empty when it is correct.

        `reference` says the op ran on the reference-seed pool.
        """
        problems = self.invariants(out)
        if problems:
            return problems
        got = self.fingerprints(out)
        k = i % POOL
        if reference or self.seed == REFERENCE_SEED:
            if self.references is None:
                return ["no stored references"]
            return compare(got, self.references[k], self.rtol)
        if k not in self._first:
            self._first[k] = got
            return []
        return compare(got, self._first[k], self.rtol)


class Augment(Workload):
    """`augment_two_stage` on one 48-band 32x32 cube at scale 2."""

    name = "augment"
    item = "cube"
    # Two BLAS thread counts (another GEMM blocking) move fingerprints by
    # 1e-17; `condition_features` returning None moves them by 4e-8.
    rtol = 1e-10
    bands, size, scale, patch, stride, steps = 48, 32, 2, 32, 16, 8

    def __init__(self, seed: int):
        self.schedule = diffusion.make_schedule(100)
        self.denoiser = diffusion.ConditionalDenoiser(
            diffusion.DenoiserConfig(latent_channels=3, base_channels=16, levels=3,
                                     cond_slots=(("lowres", 3),)), seed=11)
        self.rgan_model = rgan.RganModel(rgan.RganConfig(
            bands=self.bands, scale=self.scale,
            attention=rgan.AttentionConfig(channels=32, heads=2, layers=2)), seed=12)
        seed_weights(self.denoiser.parameters(), 13)
        seed_weights(self.rgan_model.parameters(), 14)
        self.codec = diffusion.IdentityCodec()
        out = self.size * self.scale
        self.grid = hsi.patch_grid(out, out, self.patch, self.stride)
        super().__init__(seed)

    def make_inputs(self, seed: int):
        return [synth.synthetic_cube(seed * 100 + k, self.bands, self.size, self.size)
                for k in range(POOL)]

    def run(self, pool, i: int):
        k = i % POOL
        return diffusion.augment_two_stage(
            [pool[k]], self.denoiser, self.schedule, self.rgan_model, scale=self.scale,
            patch_size=self.patch, stride=self.stride, steps=self.steps, seed=k,
            codec=self.codec)

    def fingerprints(self, out) -> dict:
        patches, _ = out
        return {f"patch{j}": fingerprint(p.values) for j, p in enumerate(patches)}

    def invariants(self, out) -> list[str]:
        patches, manifest = out
        problems = []
        if len(patches) != len(self.grid) or len(manifest) != len(self.grid):
            return [f"{len(patches)} patches, {len(manifest)} manifest rows, "
                    f"expected {len(self.grid)}"]
        shape = (self.bands, self.patch, self.patch)
        for j, (p, row) in enumerate(zip(patches, manifest)):
            if p.values.shape != shape:
                problems.append(f"patch {j} shape {p.values.shape} != {shape}")
            elif not _is_finite(p.values):
                problems.append(f"patch {j} has non-finite values")
            elif p.values.min() < 0.0 or p.values.max() > 1.0:
                problems.append(f"patch {j} leaves [0, 1]")
            if tuple(row["origin"]) != self.grid.origins[j] or row["patch"] != j \
                    or row["source"] != 0 or row["scale"] != self.scale:
                problems.append(f"manifest row {j} {row} does not match patch_grid")
        return problems


class _Training(Workload):
    """An op is a 2-step training episode; every episode starts from the
    same seeded weights, restored outside the timed region."""

    steps = 2
    # Two BLAS thread counts move fingerprints by up to 3e-11 (train_rgan's
    # first Adam steps amplify rounding); the self-test's mutations move
    # them by more than 0.1.
    rtol = 1e-8

    def __init__(self, seed: int, params):
        self.params = params
        self.initial = [p.data.copy() for p in params]
        super().__init__(seed)

    def prepare(self, i: int) -> None:
        for p, w in zip(self.params, self.initial):
            p.data = w.copy()
            p.grad = np.zeros_like(w)

    def fingerprints(self, out) -> dict:
        fp = {f"loss{j}": [v, abs(v)] for j, v in enumerate(out)}
        for p in self.params:
            fp[p.name] = fingerprint(p.data)
        return fp

    def invariants(self, out) -> list[str]:
        if len(out) != self.steps or not _is_finite(out) or min(out) <= 0.0:
            return [f"loss trace {out} is not {self.steps} finite positive values"]
        problems = []
        moved = False
        for p, w in zip(self.params, self.initial):
            if p.data.shape != w.shape or not _is_finite(p.data):
                problems.append(f"parameter {p.name} has shape {p.data.shape} or non-finite values")
            moved = moved or not np.array_equal(p.data, w)
        if not moved:
            problems.append("no parameter changed during training")
        return problems


class TrainRgan(_Training):
    """`train_rgan` on 48-band 64x64 pairs, batch 1."""

    name = "train_rgan"
    item = "step"
    items_per_op = _Training.steps
    bands, size, scale = 48, 64, 2

    def __init__(self, seed: int):
        self.rgan_model = rgan.RganModel(rgan.RganConfig(
            bands=self.bands, scale=self.scale,
            attention=rgan.AttentionConfig(channels=32, heads=2, layers=2)), seed=21)
        seed_weights(self.rgan_model.parameters(), 22)
        super().__init__(seed, self.rgan_model.parameters())

    def make_inputs(self, seed: int):
        pairs = []
        for k in range(POOL):
            hr = synth.synthetic_cube(seed * 100 + k, self.bands, self.size, self.size)
            lr = hsi.HsiCube(hsi.area_downsample(hr.values, self.scale), hr.wavelengths)
            pairs.append((lr, hsi.extract_rgb(hr).values, hr))
        return pairs

    def run(self, pool, i: int):
        return rgan.train_rgan(pool, self.rgan_model, steps=self.steps, seed=i % POOL)


class TrainDiffusion(_Training):
    """`train_diffusion` at batch 4 on 3x64x64 images with three conditions."""

    name = "train_diffusion"
    item = "sample"
    batch, size = 4, 64
    items_per_op = _Training.steps * batch

    def __init__(self, seed: int):
        self.schedule = diffusion.make_schedule(100)
        self.denoiser = diffusion.ConditionalDenoiser(diffusion.DenoiserConfig(
            latent_channels=3, base_channels=16, levels=3,
            cond_slots=(("lowres", 3), ("hed", 1), ("seg", 1))), seed=31)
        seed_weights(self.denoiser.parameters(), 32)
        super().__init__(seed, self.denoiser.parameters())

    def make_inputs(self, seed: int):
        images = [synth.synthetic_rgb(seed * 100 + k, self.size, self.size)
                  for k in range(self.batch)]
        half = self.size // 2
        stacks = [diffusion.ConditionStack({
            "lowres": bilinear_resize_array(bilinear_resize_array(im, half, half),
                                            self.size, self.size),
            "hed": diffusion.edge_proxy(im),
            "seg": diffusion.segmentation_proxy(im),
        }) for im in images]
        return images, stacks

    def run(self, pool, i: int):
        images, stacks = pool
        return diffusion.train_diffusion(images, self.denoiser, self.schedule, steps=self.steps,
                                         batch_size=self.batch, seed=i % POOL,
                                         conditions=stacks)


WORKLOADS = {w.name: w for w in (Augment, TrainRgan, TrainDiffusion)}
