"""Layers, optimizer, training loop and checkpoint I/O shared by the two
model families.

`Module` is the base of every layer and model: its one `parameters()`
walks the attributes in assignment order, which is the order the
optimizer, the checkpoints and seeded weight noise see. `fit` is the one
training loop: learning-rate schedule, non-finite checks, backward and
optimizer step around a caller's per-step losses. A step's loss comes in
micro-batch parts, each checked and back-propagated as soon as it exists,
so one part's graph is alive at a time while the gradients accumulate
across the parts. Checkpoints use the container of `hsi`, with a JSON
manifest as its header, and store float64 values (`dtype` f64le), so a
reloaded model computes exactly what the saved one did. A manifest
without `dtype` or `crc32` does not load.
"""

from __future__ import annotations

import numbers
import typing

import numpy as np

from . import autodiff as ad
from .autodiff import DataError, Parameter, RandomSource, Tensor
from .hsi import check_int, read_container, write_container

CHECKPOINT_MAGIC = b"SGCKPT\x00\x01"
CHECKPOINT_FORMAT = "spectragen-checkpoint-v1"


class NumericalFailure(RuntimeError):
    """Raised when training or sampling produces non-finite values."""


def he_normal(rng: RandomSource, shape, fan_in: int) -> np.ndarray:
    return rng.normal(shape) * np.sqrt(2.0 / fan_in)


class Module:
    """Base of layers and models: `parameters()` walks `vars(self)` in the
    order the attributes were assigned. A Parameter is taken, a Module or
    a list is walked, anything else (configs, ints, None, tuples, dicts)
    is skipped."""

    def parameters(self) -> list[Parameter]:
        return _walk(vars(self).values())


def _walk(values) -> list[Parameter]:
    out = []
    for v in values:
        if isinstance(v, Parameter):
            out.append(v)
        elif isinstance(v, Module):
            out += v.parameters()
        elif isinstance(v, list):
            out += _walk(v)
    return out


class Conv2d(Module):
    """`ad.conv2d`: 3x3 same-padded convolution plus bias; 1x1 is `Linear`."""

    def __init__(self, c_in: int, c_out: int, rng: RandomSource, name: str,
                 zero_init: bool = False):
        c_in, c_out = check_int(c_in, "c_in"), check_int(c_out, "c_out")
        shape = (c_out, c_in, 3, 3)
        w = np.zeros(shape) if zero_init else he_normal(rng, shape, c_in * 9)
        self.weight = Parameter(w, name=f"{name}.weight")
        self.bias = Parameter(np.zeros(c_out), name=f"{name}.bias")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias)


class Linear(Module):
    """`ad.linear`: maps a vector, or the channels of a [C,H,W] map."""

    def __init__(self, d_in: int, d_out: int, rng: RandomSource, name: str,
                 zero_init: bool = False):
        d_in, d_out = check_int(d_in, "d_in"), check_int(d_out, "d_out")
        w = np.zeros((d_out, d_in)) if zero_init else he_normal(rng, (d_out, d_in), d_in)
        self.weight = Parameter(w, name=f"{name}.weight")
        self.bias = Parameter(np.zeros(d_out), name=f"{name}.bias")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """The scale `gamma` (ones) and shift `beta` (zeros) of an
    `ad.layer_norm` over the channels of a [C,H,W] map, which the block
    that owns them applies."""

    def __init__(self, dim: int, name: str):
        self.gamma = Parameter(np.ones(check_int(dim, "dim")), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(dim), name=f"{name}.beta")


def _positive_number(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and bool(np.isfinite(value)) and value > 0)


class Adam:
    """Adam with bias correction and eps = 1e-8. lr must be a finite
    positive number, betas a pair of numbers in [0, 1), and lr_mults, the
    per-parameter learning-rate multipliers (e.g. to train zero-initialized
    position embeddings faster), one finite positive number per parameter
    (ValueError otherwise).
    """

    def __init__(self, params: list[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 lr_mults: list[float] | None = None):
        self.params = list(params)
        if not self.params:
            raise ValueError("Adam needs at least one parameter in params")
        if not _positive_number(lr):
            raise ValueError(f"lr must be a finite positive number, got {lr!r}")
        self.lr = lr
        if not (isinstance(betas, (tuple, list)) and len(betas) == 2 and all(
                isinstance(b, numbers.Real) and not isinstance(b, bool) and 0 <= b < 1
                for b in betas)):
            raise ValueError(f"betas must be a pair of numbers in [0, 1), got {betas!r}")
        self.beta1, self.beta2 = betas
        mults = [1.0] * len(self.params) if lr_mults is None else lr_mults
        if not (isinstance(mults, (list, tuple)) and len(mults) == len(self.params)
                and all(map(_positive_number, mults))):
            raise ValueError(f"lr_mults must be {len(self.params)} finite positive numbers, "
                             f"one per parameter, got {lr_mults!r}")
        self.lr_mults = list(mults)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.reset_grad()

    def step(self) -> None:
        """One update. A non-finite parameter value, then a non-finite
        gradient, raises NumericalFailure naming the parameter before any
        parameter moves: a NaN weight that `relu` hides in the forward
        would otherwise first show as the gradient of another parameter."""
        for p in self.params:
            if not np.all(np.isfinite(p.data)):
                raise NumericalFailure(f"non-finite value in parameter {p.name}")
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise NumericalFailure(f"non-finite gradient in {p.name}")
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, m, v, mult in zip(self.params, self._m, self._v, self.lr_mults):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * mult * (m / b1t) / (np.sqrt(v / b2t) + 1e-8)


def warmup_flat_cosine(step: int, steps: int, warmup: int, tail_start: int) -> float:
    """LR factor: linear warmup, flat plateau, cosine tail to zero."""
    if step < warmup:
        return (step + 1) / warmup
    if step < tail_start:
        return 1.0
    span = max(steps - tail_start, 1)
    return 0.5 * (1.0 + np.cos(np.pi * (step - tail_start) / span))


def fit(opt: Adam, steps: int, step_loss, warmup_frac: float = 0.0,
        tail_frac: float = 0.0) -> list[float]:
    """Take `steps` optimizer steps on `step_loss(step)`; return the loss trace.

    `step_loss(step)` yields micro-batch losses whose sum is the step's
    loss. The gradients are zeroed once per step. Each yielded loss is
    checked and back-propagated, which releases its graph, before the next
    is asked for; its gradients add to those of the parts before it. One
    optimizer step follows the last part, and the trace entry is the sum of
    the parts' values.

    The learning rate is the optimizer's rate at entry times
    `warmup_flat_cosine`: linear warmup over `warmup_frac` of the steps (at
    least one step), cosine tail over the last `tail_frac`; with both 0 it
    stays constant, and the optimizer has its entry rate again when fit
    returns or raises. A `steps` below 0 or not an int raises ValueError; a
    non-finite part (before its backward), parameter or gradient (before
    the update) NumericalFailure naming the step.
    """
    check_int(steps, "steps", low=0)
    base = opt.lr
    warmup = max(int(steps * warmup_frac), 1)
    tail_start = int(steps * (1.0 - tail_frac))
    trace = []
    try:
        for step in range(steps):
            opt.lr = base * warmup_flat_cosine(step, steps, warmup, tail_start)
            opt.zero_grad()
            total = 0.0
            for loss in step_loss(step):
                value = float(loss.data)
                if not np.isfinite(value):
                    raise NumericalFailure(f"non-finite loss {value} at step {step}")
                ad.backward(loss)
                total += value
            try:
                opt.step()
            except NumericalFailure as err:
                raise NumericalFailure(f"{err} at step {step}") from err
            trace.append(total)
    finally:
        opt.lr = base
    return trace


def _residual(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise ValueError(f"loss: prediction shape {pred.shape} != target shape {target.shape}")
    return ad.sub(pred, target)


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    return ad.mean(ad.absolute(_residual(pred, target)))


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    diff = _residual(pred, target)
    return ad.mean(ad.mul(diff, diff))


# ---------------------------------------------------------------------------
# checkpoints: the hsi container with a JSON manifest as its header


def save_checkpoint(path, kind: str, config: dict, params: list[Parameter]) -> None:
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "dtype": "f64le",
        "kind": kind,
        "config": config,
        "parameters": [{"name": p.name, "shape": list(p.shape)} for p in params],
    }
    write_container(path, CHECKPOINT_MAGIC, manifest, [p.data for p in params])


def _manifest_entry(path, i: int, entry) -> tuple[str, tuple[int, ...]]:
    """(name, shape) of parameter entry i of a checkpoint manifest."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise ValueError(f"{path}: checkpoint parameter entry {i} has no string 'name'")
    what = f"{path}: checkpoint parameter {entry['name']!r} 'shape'"
    shape = entry.get("shape")
    if not isinstance(shape, list):
        raise ValueError(f"{what} is {shape!r}, expected a list of non-negative integers")
    return entry["name"], tuple(check_int(n, f"{what} entry", low=0) for n in shape)


def load_checkpoint(path):
    """Return (kind, config, {name: float64 array}).

    The framing checks are `hsi.read_container`'s. Raises ValueError on a
    manifest with another format or without kind, config or parameters,
    and on a parameter entry without a name or a shape of non-negative
    integers; DataError naming the parameter on a non-finite value.
    """
    def shapes(manifest):
        fmt = manifest.get("format")
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: checkpoint format {fmt!r}, expected {CHECKPOINT_FORMAT!r}")
        for key in ("kind", "config", "parameters"):
            if key not in manifest:
                raise ValueError(f"{path}: checkpoint manifest missing {key!r}")
        if not isinstance(manifest["parameters"], list):
            raise ValueError(f"{path}: checkpoint 'parameters' must be a list")
        return [_manifest_entry(path, i, e) for i, e in enumerate(manifest["parameters"])]

    manifest, values = read_container(path, CHECKPOINT_MAGIC, "checkpoint manifest", shapes)
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise DataError(f"{path}: checkpoint parameter {name!r} has non-finite values")
    return manifest["kind"], manifest["config"], values


def read_config(path, value, spec, key: str = "config"):
    """Check a checkpoint config value against `spec` and convert it.

    spec is int, float or str; a fixed or variadic tuple type (stored as a
    JSON list); a dict of key -> spec (returns a dict); or a dataclass or
    function, called with a mapping of its annotated parameters. Every key
    must be present and no other key may be. Raises ValueError naming the
    file and the dotted key on a missing, unknown or mistyped key, and on a
    value the dataclass or function rejects with ValueError.
    """
    if typing.get_origin(spec) is tuple:
        types = typing.get_args(spec)
        if isinstance(value, list) and types[-1] is Ellipsis:
            types = types[:1] * len(value)
        if not isinstance(value, list) or len(value) != len(types):
            raise ValueError(f"{path}: config key {key!r} is {value!r}, expected {spec}")
        return tuple(read_config(path, v, t, f"{key}[{i}]")
                     for i, (v, t) in enumerate(zip(value, types)))
    if spec in (int, float, str):
        kinds = (int, float) if spec is float else spec
        if not isinstance(value, kinds) or isinstance(value, bool):
            raise ValueError(f"{path}: config key {key!r} is {value!r}, expected {spec.__name__}")
        return spec(value)
    fields = spec if isinstance(spec, dict) else typing.get_type_hints(spec)
    fields = {n: t for n, t in fields.items() if n != "return"}
    if not isinstance(value, dict):
        raise ValueError(f"{path}: config key {key!r} is a {type(value).__name__}, "
                         "expected a mapping")
    for name in list(fields) + list(value):
        if (name in fields) != (name in value):
            state = "missing" if name in fields else "unknown"
            raise ValueError(f"{path}: config key '{key}.{name}' is {state}")
    out = {n: read_config(path, value[n], t, f"{key}.{n}") for n, t in fields.items()}
    if isinstance(spec, dict):
        return out
    try:
        return spec(**out)
    except ValueError as err:
        raise ValueError(f"{path}: config key {key!r}: {err}") from err


def assign_parameters(params: list[Parameter], values: dict) -> None:
    """Copy checkpoint values into params; every name must match one-to-one."""
    extra = sorted(set(values) - {p.name for p in params})
    if extra:
        raise ValueError(f"checkpoint has parameters the model lacks: {extra}")
    for p in params:
        if p.name not in values:
            raise ValueError(f"checkpoint missing parameter {p.name}")
        v = values[p.name]
        if v.shape != p.shape:
            raise ValueError(f"checkpoint shape mismatch for {p.name}: {v.shape} vs {p.shape}")
        p.data = v.copy()
        p.grad = np.zeros_like(p.data)
