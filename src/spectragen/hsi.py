"""Hyperspectral cube type, file I/O, and the data-preparation operations.

Cubes and `nn` checkpoints share one container (`write_container`,
`read_container`): an 8-byte magic, a 4-byte little-endian header length,
a UTF-8 JSON object header with sorted keys, then the payloads in header
order as float32 little-endian values, and nothing after them. Cubes are:

* HSC (canonical): the container with magic ``HSCUBE\\x00\\x01``, header
  ``{height, width, bands, wavelengths_nm, dtype: "f32le", layout: "bsq"}``
  and one payload stored band-sequentially (band plane after band plane).
* ENVI subset: a text ``.hdr`` next to the binary payload, restricted to
  ``interleave = bsq``, ``data type = 4`` and ``byte order = 0``.
"""

from __future__ import annotations

import json
import math
import numbers
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import RandomSource

HSC_MAGIC = b"HSCUBE\x00\x01"

# Default alignment grid: 48 equally spaced bands spanning 400-1000 nm.
DEFAULT_GRID_START = 400.0
DEFAULT_GRID_STOP = 1000.0
DEFAULT_GRID_BANDS = 48

# Band targets (nm) for false-colour RGB extraction, in R, G, B order.
RGB_TARGETS_NM = (650.0, 550.0, 450.0)


class DataError(ValueError):
    """Malformed file or inconsistent data."""


@dataclass
class HsiCube:
    """Reflectance cube with per-band wavelengths.

    values are stored band-sequentially as a (bands, height, width) float64
    array; wavelengths are nanometers, strictly increasing.
    """

    values: np.ndarray
    wavelengths: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.wavelengths = np.asarray(self.wavelengths, dtype=np.float64)
        if self.values.ndim != 3:
            raise DataError(f"cube values must be (bands, height, width), got {self.values.shape}")
        if 0 in self.values.shape:
            raise DataError(f"cube extents must be positive, got {self.values.shape}")
        if self.wavelengths.ndim != 1 or len(self.wavelengths) != self.values.shape[0]:
            raise DataError(
                f"wavelength count {self.wavelengths.shape} does not match "
                f"{self.values.shape[0]} bands"
            )
        if len(self.wavelengths) > 1 and not np.all(np.diff(self.wavelengths) > 0):
            raise DataError("wavelengths must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise DataError("cube contains non-finite values")

    @property
    def bands(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


@dataclass
class PatchGrid:
    patch_size: int
    stride: int
    rows: int
    cols: int
    origins: list[tuple[int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.origins)


@dataclass
class DegradationSpec:
    kind: str  # "gaussian_noise" | "downsample"
    sigma: float = 0.0
    factor: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("gaussian_noise", "downsample"):
            raise DataError(f"unknown degradation kind {self.kind!r}")
        if not (isinstance(self.sigma, numbers.Real) and 0 <= self.sigma < math.inf):
            raise DataError(f"sigma must be a finite nonnegative number, got {self.sigma!r}")
        if self.kind == "downsample" and self.factor not in (2, 4):
            raise DataError("downsample factor must be 2 or 4")


@dataclass
class RgbBands:
    """False-colour selection: values (3,H,W) plus the chosen band indices."""

    values: np.ndarray
    band_indices: tuple[int, int, int]
    wavelengths: tuple[float, float, float]


# ---------------------------------------------------------------------------
# file I/O


def write_container(path, magic: bytes, header: dict, arrays) -> None:
    """Write the container: magic, header length, JSON header, each array as <f4."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def read_container(path, magic: bytes, what: str, shapes) -> tuple[dict, dict]:
    """Return (header, {name: float64 array}); DataError names the file.

    `shapes(header)` checks the format's fields and returns a (name, shape)
    per payload in file order; `what` names the header in messages. A name
    given to two payloads raises DataError naming it.
    """
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise DataError(f"{path}: bad magic, expected {magic!r}")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise DataError(f"{path}: truncated header length")
        (n,) = struct.unpack("<I", raw_len)
        try:
            header = json.loads(fh.read(n).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: malformed JSON {what}: {exc}") from exc
        if not isinstance(header, dict):
            raise DataError(f"{path}: {what} is a JSON {type(header).__name__}, expected an object")
        payload = fh.read()
    arrays, pos = {}, 0
    for name, shape in shapes(header):
        if name in arrays:
            raise DataError(f"{path}: payload name {name!r} appears twice")
        count = math.prod(shape)
        if 4 * count > len(payload) - pos:
            raise DataError(f"{path}: truncated payload for {name}")
        arrays[name] = np.frombuffer(payload, "<f4", count, pos).astype(np.float64).reshape(shape)
        pos += 4 * count
    if pos != len(payload):
        raise DataError(f"{path}: {len(payload) - pos} trailing bytes after the last payload")
    return header, arrays


def write_cube(cube: HsiCube, path) -> None:
    header = {
        "height": cube.height,
        "width": cube.width,
        "bands": cube.bands,
        "wavelengths_nm": [float(w) for w in cube.wavelengths],
        "dtype": "f32le",
        "layout": "bsq",
    }
    write_container(path, HSC_MAGIC, header, [cube.values])


def _file_cube(path, values, wavelengths) -> HsiCube:
    """HsiCube(values, wavelengths), with a validation error naming the file."""
    try:
        return HsiCube(values, wavelengths)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _read_hsc(path) -> HsiCube:
    def shapes(header):
        for key in ("height", "width", "bands", "wavelengths_nm", "dtype", "layout"):
            if key not in header:
                raise DataError(f"{path}: header missing {key!r}")
        if header["dtype"] != "f32le":
            raise DataError(f"{path}: unsupported dtype {header['dtype']!r}")
        if header["layout"] != "bsq":
            raise DataError(f"{path}: unsupported layout {header['layout']!r}")
        for key in ("height", "width", "bands"):
            value = header[key]
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise DataError(f"{path}: header {key!r} must be a positive integer, got {value!r}")
        wavelengths = header["wavelengths_nm"]
        if not isinstance(wavelengths, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                for v in wavelengths):
            raise DataError(f"{path}: header 'wavelengths_nm' must be a list of finite numbers, "
                            f"got {wavelengths!r}")
        if len(wavelengths) != header["bands"]:
            raise DataError(f"{path}: {header['bands']} bands declared but "
                            f"{len(wavelengths)} 'wavelengths_nm' given")
        return [("values", (header["bands"], header["height"], header["width"]))]

    header, arrays = read_container(path, HSC_MAGIC, "HSC header", shapes)
    return _file_cube(path, arrays["values"], header["wavelengths_nm"])


def _parse_envi_header(text: str, path) -> dict:
    # key = value lines; brace-delimited lists may span lines.
    text = re.sub(r"^ENVI\s*", "", text.strip())
    fields: dict[str, str] = {}
    pattern = re.compile(r"(?ms)^\s*([\w ]+?)\s*=\s*(\{.*?\}|[^\n]*)$")
    for key, value in pattern.findall(text):
        fields[key.strip().lower()] = value.strip()
    for required in ("samples", "lines", "bands", "wavelength", "interleave",
                     "data type", "byte order"):
        if required not in fields:
            raise DataError(f"{path}: ENVI header missing {required!r}")
    if fields["interleave"].lower() != "bsq":
        raise DataError(f"{path}: only interleave = bsq is supported, got {fields['interleave']!r}")
    if fields["data type"] != "4":
        raise DataError(f"{path}: only data type = 4 (float32) is supported")
    if fields["byte order"] != "0":
        raise DataError(f"{path}: only byte order = 0 is supported")
    return fields


def _envi_extent(fields: dict, key: str, path) -> int:
    text = fields[key]
    try:
        value = int(text) if text.isascii() and text.isdigit() else 0
    except ValueError:  # more digits than int() converts
        value = 0
    if value <= 0:
        raise DataError(f"{path}: ENVI header {key!r} must be a positive integer, got {text!r}")
    return value


def _envi_wavelengths(fields: dict, path) -> np.ndarray:
    values = []
    for tok in fields["wavelength"].strip("{}").split(","):
        if not tok.strip():
            continue
        try:
            value = float(tok)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise DataError(
                f"{path}: ENVI header 'wavelength' entry {tok.strip()!r} is not a finite number"
            )
        values.append(value)
    return np.array(values)


def _read_envi(header_path) -> HsiCube:
    header_path = Path(header_path)
    fields = _parse_envi_header(header_path.read_text(encoding="utf-8", errors="replace"),
                                header_path)
    samples = _envi_extent(fields, "samples", header_path)
    lines = _envi_extent(fields, "lines", header_path)
    bands = _envi_extent(fields, "bands", header_path)
    wavelengths = _envi_wavelengths(fields, header_path)
    if len(wavelengths) != bands:
        raise DataError(f"{header_path}: wavelength count {len(wavelengths)} != bands {bands}")
    data_path = header_path.with_suffix("")
    if not data_path.exists():
        data_path = header_path.with_suffix(".dat")
    if not data_path.exists():
        raise DataError(f"{header_path}: no matching data file")
    values = np.fromfile(data_path, dtype="<f4")
    if values.size != bands * lines * samples:
        raise DataError(
            f"{data_path}: payload has {values.size} values, expected {bands * lines * samples}"
        )
    return _file_cube(header_path, values.astype(np.float64).reshape(bands, lines, samples),
                      wavelengths)


def read_cube(path) -> HsiCube:
    """Read an HSC cube, or an ENVI-subset cube when given a .hdr path."""
    path = Path(path)
    if path.suffix.lower() == ".hdr":
        return _read_envi(path)
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head == HSC_MAGIC:
        return _read_hsc(path)
    if head[:4] == b"ENVI":
        raise DataError(f"{path}: pass the .hdr path for ENVI cubes")
    raise DataError(f"{path}: unrecognized cube format")


# ---------------------------------------------------------------------------
# wavelength alignment


def default_wavelength_grid() -> np.ndarray:
    return np.linspace(DEFAULT_GRID_START, DEFAULT_GRID_STOP, DEFAULT_GRID_BANDS)


def covered_default_grid(cube: HsiCube) -> tuple[np.ndarray, bool]:
    """Default grid restricted to the cube's wavelength range.

    Returns (grid, fully_covered); fully_covered is False when the source
    range does not span 400-1000 nm and the grid had to be clipped.
    """
    grid = default_wavelength_grid()
    lo, hi = cube.wavelengths[0], cube.wavelengths[-1]
    keep = (grid >= lo) & (grid <= hi)
    if not keep.any():
        raise DataError("cube wavelength range does not overlap the 400-1000 nm grid")
    return grid[keep], bool(keep.all())


def align_wavelengths(cube: HsiCube, target: np.ndarray | None = None) -> HsiCube:
    """Interpolate every pixel spectrum onto a target wavelength grid.

    Piecewise-linear, no extrapolation: an explicit target outside the
    source range is an error; the default target is the 48-band 400-1000 nm
    grid clipped to the covered range.
    """
    if target is None:
        target, _ = covered_default_grid(cube)
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 1 or target.size == 0 or not np.isfinite(target).all():
        raise DataError(f"target grid must be a non-empty 1-D array of finite values, got {target}")
    src = cube.wavelengths
    if target[0] < src[0] or target[-1] > src[-1]:
        raise DataError(
            f"target grid [{target[0]}, {target[-1]}] outside source range "
            f"[{src[0]}, {src[-1]}] (no extrapolation)"
        )
    if len(target) > 1 and not np.all(np.diff(target) > 0):
        raise DataError("target grid must be strictly increasing")

    hi = np.searchsorted(src, target, side="left")
    hi = np.clip(hi, 1, len(src) - 1)
    lo = hi - 1
    weight = (target - src[lo]) / (src[hi] - src[lo])
    flat = cube.values.reshape(cube.bands, -1)
    out = flat[lo] * (1.0 - weight)[:, None] + flat[hi] * weight[:, None]
    return HsiCube(out.reshape(len(target), cube.height, cube.width), target)


# ---------------------------------------------------------------------------
# patches


def patch_grid(height: int, width: int, size: int, stride: int) -> PatchGrid:
    """Patch origins for a size/stride sliding crop, row-major order."""
    if size < 1:
        raise DataError(f"patch size must be positive, got {size}")
    if size > height or size > width:
        raise DataError(f"patch size {size} exceeds extents {height}x{width}")
    if stride <= 0:
        raise DataError("stride must be positive")
    rows = (height - size) // stride + 1
    cols = (width - size) // stride + 1
    origins = [(r * stride, c * stride) for r in range(rows) for c in range(cols)]
    return PatchGrid(patch_size=size, stride=stride, rows=rows, cols=cols, origins=origins)


def crop_patches(cube: HsiCube, size: int, stride: int) -> PatchGrid:
    """Plan the sliding crop of a cube; iter_patches yields the patch cubes."""
    return patch_grid(cube.height, cube.width, size, stride)


def iter_patches(cube: HsiCube, grid: PatchGrid):
    """Yield patch cubes in the grid's row-major origin order."""
    s = grid.patch_size
    for r, c in grid.origins:
        yield HsiCube(cube.values[:, r : r + s, c : c + s].copy(), cube.wavelengths)


# ---------------------------------------------------------------------------
# RGB band selection


def nearest_band(wavelengths: np.ndarray, target_nm: float) -> int:
    """Index of the band nearest to target_nm; ties go to the lower index."""
    return int(np.argmin(np.abs(np.asarray(wavelengths) - target_nm)))


def extract_rgb(cube: HsiCube) -> RgbBands:
    """Select the bands nearest to 650/550/450 nm as an R, G, B image."""
    lo, hi = cube.wavelengths[0], cube.wavelengths[-1]
    if lo > min(RGB_TARGETS_NM) or hi < max(RGB_TARGETS_NM):
        raise DataError(
            f"cube range [{lo}, {hi}] nm does not cover the 450-650 nm RGB targets"
        )
    idx = tuple(nearest_band(cube.wavelengths, t) for t in RGB_TARGETS_NM)
    values = cube.values[list(idx)].copy()
    return RgbBands(values, idx, tuple(float(cube.wavelengths[i]) for i in idx))


# ---------------------------------------------------------------------------
# degradations


def area_downsample(values: np.ndarray, factor: int) -> np.ndarray:
    b, h, w = values.shape
    if h % factor or w % factor:
        raise DataError(f"extents {h}x{w} not divisible by factor {factor}")
    return values.reshape(b, h // factor, factor, w // factor, factor).mean(axis=(2, 4))


def degrade(cube: HsiCube, spec: DegradationSpec) -> HsiCube:
    """Apply a synthetic degradation for building training pairs.

    gaussian_noise adds seeded i.i.d. N(0, sigma^2) per value and clamps
    the result to [0,1]; downsample area-averages by the integer factor.
    """
    if spec.kind == "gaussian_noise":
        if spec.sigma == 0.0:
            return HsiCube(cube.values.copy(), cube.wavelengths)
        noise = RandomSource(spec.seed).normal(cube.values.shape, scale=spec.sigma)
        return HsiCube(np.clip(cube.values + noise, 0.0, 1.0), cube.wavelengths)
    return HsiCube(area_downsample(cube.values, spec.factor), cube.wavelengths)
