"""Span tracer installed from outside the program.

`Tracer.install()` replaces public functions of `autodiff`, `nn`, `rgan`,
`diffusion` and `hsi` with timing wrappers, in every namespace where the
name is looked up at call time (`diffusion` binds `rgan_forward`,
`extract_rgb`, `crop_patches` and `iter_patches` itself), and wraps the
`__call__` of the model modules given to `register()`.
`uninstall()` puts the originals back, so end-to-end numbers come from
unwrapped code.

Each span records calls, inclusive time and self time (its duration minus
the wrapped children it contains). FLOPs and output bytes are computed
from shapes, not measured.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from time import perf_counter

from spectragen import autodiff, diffusion, hsi, nn, rgan

# Public autodiff functions and the group each one reports under.
AUTODIFF_GROUPS = {
    "conv2d": "conv2d",
    "softmax": "softmax",
    "matmul": "matmul",
    "linear": "linear",
    "layer_norm": "layer_norm",
    "bilinear_resize": "bilinear_resize",
    "bilinear_resize_array": "bilinear_resize",
    "backward": "backward",
    "reshape": "structural",
    "transpose": "structural",
    "concat": "structural",
    "split": "structural",
    "crop2d": "structural",
    "pad_reflect2d": "structural",
    "add": "elementwise",
    "sub": "elementwise",
    "mul": "elementwise",
    "relu": "elementwise",
    "sigmoid": "elementwise",
    "absolute": "elementwise",
    "tsum": "elementwise",
    "mean": "elementwise",
}

# RGAN module category from the first word of the module's own name,
# which comes from its parameter names (`gal0.sal_hsi.qkv.weight` gives
# module `gal0.sal_hsi`, category `sal`).
RGAN_CATEGORIES = {"embed": "embed", "sal": "sal", "cal": "cal", "spec": "specal",
                   "ffd": "ffd", "head": "head"}


def _out_arrays(out):
    if isinstance(out, autodiff.Tensor):
        return [out.data]
    if isinstance(out, (list, tuple)):
        return [t.data for t in out if isinstance(t, autodiff.Tensor)]
    if hasattr(out, "nbytes"):
        return [out]
    return []


def _conv2d_flop(out, t, kernel, padding=0):
    c_out, c_in, kh, kw = kernel.shape
    return 2.0 * c_in * kh * kw * out.data.size


def _matmul_flop(out, a, b):
    return 2.0 * out.data.size * a.shape[-1]


def _linear_flop(out, t, weight, bias=None):
    return 2.0 * out.data.size * weight.shape[1]


FLOP_MODELS = {"conv2d": _conv2d_flop, "matmul": _matmul_flop, "linear": _linear_flop}


def module_name(module) -> str:
    """Longest common dotted prefix of a module's parameter names."""
    names = [p.name.split(".") for p in module.parameters()]
    prefix = os.path.commonprefix(names)
    if len(names) == 1:
        prefix = prefix[:-1]
    return ".".join(prefix)


def rgan_modules(model: rgan.RganModel):
    mods = [model.embed_hsi, model.embed_rgb, model.head]
    for gal in model.gals:
        mods += [gal.sal_hsi, gal.sal_rgb, gal.cal, gal.spec_hsi, gal.spec_rgb,
                 gal.ffd_hsi, gal.ffd_rgb]
    return mods


def denoiser_modules(model: diffusion.ConditionalDenoiser):
    return [model.conv_in, *model.enc, *model.dec, model.head]


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive_s, self_s, flop, out_bytes]
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
        self.counters: Counter = Counter()
        self._stack: list[float] = []
        self._modules: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- registration ---------------------------------------------------

    def register(self, rgan_model: rgan.RganModel | None,
                 denoiser: diffusion.ConditionalDenoiser | None) -> None:
        """Give the models' modules spans; either model may be None."""
        if rgan_model is not None:
            for m in rgan_modules(rgan_model):
                name = module_name(m)
                cat = RGAN_CATEGORIES[name.split(".")[-1].split("_")[0]]
                self._modules[id(m)] = f"rgan.{cat}|{name}"
        if denoiser is not None:
            for m in denoiser_modules(denoiser):
                self._modules[id(m)] = f"diffusion.module|{module_name(m)}"

    # -- spans ----------------------------------------------------------

    def _record(self, name: str, dur: float, child: float, out=None, flop=None) -> None:
        s = self.stats[name]
        s[0] += 1
        s[1] += dur
        s[2] += dur - child
        if flop is not None:
            s[3] += flop
        if out is not None:
            s[4] += sum(a.nbytes for a in _out_arrays(out) if a.flags.owndata)

    def _wrap(self, name: str, fn, flop_model=None, sized: bool = False):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
            flop = flop_model(out, *args, **kwargs) if flop_model is not None else None
            self._record(name, dur, child, out if sized else None, flop)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, fn, counter: str):
        stack = self._stack

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = perf_counter() - t0
                    child = stack.pop()
                    if stack:
                        stack[-1] += dur
                    self._record(name, dur, child)
                self.counters[counter] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_module_call(self, cls, extra=None):
        original = cls.__call__
        modules = self._modules
        spans = {}

        def call(module, *args, **kwargs):
            if extra is not None:
                extra(*args)
            key = modules.get(id(module))
            if key is None:
                return original(module, *args, **kwargs)
            span = spans.get(key)
            if span is None:
                span = spans[key] = self._wrap(key, original)
            return span(module, *args, **kwargs)

        self._patch(cls, "__call__", call)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_duplicate_streams(self, z1, z2):
        if z1 is z2:
            self.counters["rgan.rca.duplicate_stream_calls"] += 1

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for fname in AUTODIFF_GROUPS:
            self._patch(autodiff, fname, self._wrap(f"autodiff.{fname}", getattr(autodiff, fname),
                                                    FLOP_MODELS.get(fname), sized=True))
        for fname in ("l1_loss", "mse_loss"):
            self._patch(nn, fname, self._wrap("nn.loss", getattr(nn, fname)))
        self._patch(nn.Adam, "step", self._wrap("nn.adam_step", nn.Adam.step))
        self._patch(nn.Adam, "zero_grad", self._wrap("nn.adam_zero_grad", nn.Adam.zero_grad))

        self._patch(rgan, "window_attention",
                    self._wrap("rgan.window_attention", rgan.window_attention))
        self._patch(rgan.RganModel, "forward", self._wrap("rgan.forward", rgan.RganModel.forward))
        rgan_forward = self._wrap("rgan.rgan_forward", rgan.rgan_forward)
        self._patch(rgan, "rgan_forward", rgan_forward)
        self._patch(diffusion, "rgan_forward", rgan_forward)

        den = diffusion.ConditionalDenoiser
        self._patch(den, "forward", self._wrap("diffusion.denoiser_forward", den.forward))
        self._patch(den, "condition_features",
                    self._wrap("diffusion.condition_features", den.condition_features))
        for fname, span in (("sample", "diffusion.sample"), ("ddim_step", "diffusion.ddim_step"),
                            ("diffusion_loss", "diffusion.loss"),
                            ("forward_noise", "diffusion.forward_noise"),
                            ("dsrnet_super_resolve", "diffusion.dsrnet_super_resolve")):
            self._patch(diffusion, fname, self._wrap(span, getattr(diffusion, fname)))

        extract = self._wrap("hsi.extract_rgb", hsi.extract_rgb)
        crop = self._wrap("hsi.crop_patches", hsi.crop_patches)
        patches = self._wrap_generator("hsi.iter_patches", hsi.iter_patches, "hsi.patches")
        for owner in (hsi, diffusion):
            self._patch(owner, "extract_rgb", extract)
            self._patch(owner, "crop_patches", crop)
            self._patch(owner, "iter_patches", patches)

        self._wrap_module_call(rgan.Rca, extra=self._count_duplicate_streams)
        for cls in (rgan.SpectralGate, rgan.Ffd, nn.Conv2d, diffusion._ConvBlock):
            self._wrap_module_call(cls)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------

    def table(self, items: float) -> dict[str, dict[str, float]]:
        """Per-span totals divided by `items`: calls, self/inclusive ms,
        computed GFLOP and output MB."""
        out = {}
        for name, (calls, incl, self_s, flop, nbytes) in sorted(self.stats.items()):
            out[name] = {"calls": calls / items, "self_ms": 1e3 * self_s / items,
                         "incl_ms": 1e3 * incl / items, "gflop": flop / 1e9 / items,
                         "mb": nbytes / 1e6 / items}
        return out

    def total_self_s(self) -> float:
        return sum(s[2] for s in self.stats.values())

    def layer_metrics(self, items: float) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, per item."""
        st = self.stats

        def group(g, field):
            return sum(st[f"autodiff.{f}"][field] for f, grp in AUTODIFF_GROUPS.items()
                       if grp == g and f"autodiff.{f}" in st)

        def span(name, field):
            return st[name][field] if name in st else 0.0

        def by_prefix(prefix, field):
            return sum(s[field] for n, s in st.items() if n.startswith(prefix))

        m = {}
        for g in ("conv2d", "softmax", "matmul", "linear", "structural", "elementwise", "backward"):
            m[f"autodiff.{g}.calls"] = group(g, 0) / items
            m[f"autodiff.{g}.self_ms"] = 1e3 * group(g, 2) / items
        for g in ("conv2d", "matmul", "linear"):
            m[f"autodiff.{g}.gflop"] = group(g, 3) / 1e9 / items
        conv_s = group("conv2d", 2)
        m["autodiff.conv2d.gflops_per_s"] = group("conv2d", 3) / 1e9 / conv_s if conv_s else 0.0
        m["autodiff.layer_norm.self_ms"] = 1e3 * group("layer_norm", 2) / items
        m["autodiff.bilinear_resize.self_ms"] = 1e3 * group("bilinear_resize", 2) / items
        m["autodiff.out_mb"] = by_prefix("autodiff.", 4) / 1e6 / items
        for cat in ("embed", "sal", "cal", "specal", "ffd", "head"):
            m[f"rgan.{cat}.ms"] = 1e3 * by_prefix(f"rgan.{cat}|", 1) / items
        m["rgan.forward.ms"] = 1e3 * span("rgan.forward", 1) / items
        m["rgan.window_attention.calls"] = span("rgan.window_attention", 0) / items
        m["rgan.rca.duplicate_stream_calls"] = \
            self.counters["rgan.rca.duplicate_stream_calls"] / items
        m["diffusion.condition_features.calls"] = span("diffusion.condition_features", 0) / items
        m["diffusion.condition_features.ms"] = 1e3 * span("diffusion.condition_features", 1) / items
        for name in ("sample", "denoiser_forward", "ddim_step", "loss"):
            m[f"diffusion.{name}.ms"] = 1e3 * span(f"diffusion.{name}", 1) / items
        m["diffusion.denoiser_forward.calls"] = span("diffusion.denoiser_forward", 0) / items
        m["nn.adam_step.self_ms"] = 1e3 * span("nn.adam_step", 2) / items
        m["nn.loss.self_ms"] = 1e3 * span("nn.loss", 2) / items
        m["hsi.extract_rgb.ms"] = 1e3 * span("hsi.extract_rgb", 1) / items
        m["hsi.iter_patches.ms"] = 1e3 * span("hsi.iter_patches", 1) / items
        m["hsi.patches"] = self.counters["hsi.patches"] / items
        return m
