"""Synthetic fixtures: smooth reflectance cubes built from random mixtures.

The repo ships no real datasets; tests and the benchmark generate cubes
here. Cubes are convex mixtures of smooth spectral signatures with
smooth abundance maps, so values stay in [0,1] and spectra vary smoothly
with wavelength.
"""

from __future__ import annotations

import numpy as np

from .autodiff import RandomSource
from .hsi import HsiCube, check_int


def _smooth_field(rng: RandomSource, height: int, width: int) -> np.ndarray:
    # Sum of four cosine modes. Mode frequencies scale with extent so
    # feature size (~6 px) is resolution independent.
    ys, xs = np.mgrid[0:height, 0:width]
    ys = ys / height
    xs = xs / width
    out = np.zeros((height, width))
    for _ in range(4):
        u = rng.uniform((), -1.0, 1.0) * max(height / 6.0, 1.0)
        v = rng.uniform((), -1.0, 1.0) * max(width / 6.0, 1.0)
        phase = rng.uniform((), 0.0, 2 * np.pi)
        amp = rng.uniform((), 0.3, 1.0)
        out += amp * np.cos(2 * np.pi * (u * ys + v * xs) + phase)
    return out


def _smooth_signature(rng: RandomSource, wavelengths: np.ndarray) -> np.ndarray:
    lam = (wavelengths - wavelengths[0]) / (wavelengths[-1] - wavelengths[0] + 1e-12)
    sig = np.full_like(lam, float(rng.uniform((), 0.2, 0.8)))
    for _ in range(3):
        center = rng.uniform((), 0.0, 1.0)
        widthp = rng.uniform((), 0.05, 0.4)
        amp = rng.uniform((), -0.3, 0.3)
        sig = sig + amp * np.exp(-((lam - center) ** 2) / (2 * widthp**2))
    return np.clip(sig, 0.02, 0.98)


def synthetic_cube(seed: int, bands: int = 48, height: int = 64, width: int = 64,
                   wavelengths: np.ndarray | None = None) -> HsiCube:
    """Random smooth cube: abundance-weighted mixture of four smooth spectra."""
    for name, value in (("bands", bands), ("height", height), ("width", width)):
        check_int(value, name)
    rng = RandomSource(seed)
    if wavelengths is None:
        wavelengths = np.linspace(400.0, 1000.0, bands)
    wavelengths = np.asarray(wavelengths, dtype=np.float64)
    fields = np.stack([_smooth_field(rng.child(i), height, width) for i in range(4)])
    fields = np.exp(fields - fields.max(axis=0))
    abundances = fields / fields.sum(axis=0)
    signatures = np.stack([_smooth_signature(rng.child(100 + i), wavelengths)
                           for i in range(4)])
    values = np.einsum("mhw,mb->bhw", abundances, signatures)
    return HsiCube(np.clip(values, 0.0, 1.0), wavelengths)


def synthetic_rgb(seed: int, height: int = 64, width: int = 64) -> np.ndarray:
    """Smooth (3, H, W) image in [0,1]."""
    check_int(height, "height")
    check_int(width, "width")
    rng = RandomSource(seed)
    chans = [_smooth_field(rng.child(i), height, width) for i in range(3)]
    img = np.stack(chans)
    lo, hi = img.min(), img.max()
    return (img - lo) / (hi - lo + 1e-12)
