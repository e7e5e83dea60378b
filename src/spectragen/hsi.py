"""Hyperspectral cube type, file I/O, and the data-preparation operations.

Cubes and `nn` checkpoints share one container (`write_container`,
`read_container`): an 8-byte magic, a 4-byte little-endian header length,
a UTF-8 JSON object header with sorted keys, then the payloads in header
order, and nothing after them. Every header states ``dtype``, which names
the payload values: ``f32le`` (float32 little-endian) or ``f64le`` (float64
little-endian), and ``crc32``, the `zlib.crc32` of all payload bytes,
which a reader checks. Cubes are:

* HSC (canonical): the container with magic ``HSCUBE\\x00\\x01``, header
  ``{height, width, bands, wavelengths_nm, dtype: "f32le", layout: "bsq",
  crc32}``
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
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import DataError, RandomSource, check_int

HSC_MAGIC = b"HSCUBE\x00\x01"
PAYLOAD_DTYPES = {"f32le": np.dtype("<f4"), "f64le": np.dtype("<f8")}

# Default alignment grid: 48 equally spaced bands spanning 400-1000 nm.
DEFAULT_GRID_START = 400.0
DEFAULT_GRID_STOP = 1000.0
DEFAULT_GRID_BANDS = 48

# Band targets (nm) for false-colour RGB extraction, in R, G, B order.
RGB_TARGETS_NM = (650.0, 550.0, 450.0)


def chw_array(value, name: str) -> np.ndarray:
    """value as a float64 [C,H,W] array; DataError naming `name` when it is
    ragged or not numeric, not 3-D, has an empty extent or a non-finite
    value."""
    return _finite_array(value, name, 3, "a [C,H,W] array with non-empty extents")


def vector_array(value, name: str) -> np.ndarray:
    """value as a float64 1-D array; DataError naming `name` when it is
    ragged or not numeric, not 1-D, empty or has a non-finite value."""
    return _finite_array(value, name, 1, "a non-empty 1-D vector")


def as_list(value, name: str, what: str) -> list:
    """value as a list; DataError naming `name` when it is not iterable."""
    try:
        return list(value)
    except TypeError:
        raise DataError(f"{name} must be a list of {what}, got {type(value).__name__}") from None


def _finite_array(value, name: str, ndim: int, what: str) -> np.ndarray:
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise DataError(f"{name} is not a numeric array: {err}") from err
    if array.ndim != ndim or 0 in array.shape:
        raise DataError(f"{name} must be {what}, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise DataError(f"{name} contains non-finite values")
    return array


@dataclass
class HsiCube:
    """Reflectance cube with per-band wavelengths.

    values are stored band-sequentially as a (bands, height, width) float64
    array; wavelengths are finite nanometers, one per band, strictly
    increasing (DataError naming `wavelengths` otherwise).
    """

    values: np.ndarray
    wavelengths: np.ndarray

    def __post_init__(self):
        self.values = chw_array(self.values, "cube values")
        self.wavelengths = vector_array(self.wavelengths, "wavelengths")
        if len(self.wavelengths) != self.values.shape[0]:
            raise DataError(f"wavelengths has {len(self.wavelengths)} entries for "
                            f"{self.values.shape[0]} bands")
        if not np.all(np.diff(self.wavelengths) > 0):
            raise DataError("wavelengths must be strictly increasing")

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
        if (isinstance(self.sigma, bool) or not isinstance(self.sigma, numbers.Real)
                or not 0 <= self.sigma < math.inf):
            raise DataError(f"sigma must be a finite nonnegative number, got {self.sigma!r}")
        if self.kind == "downsample" and check_int(self.factor, "factor") not in (2, 4):
            raise DataError("downsample factor must be 2 or 4")
        check_int(self.seed, "seed", low=0)


@dataclass
class RgbBands:
    """False-colour selection: values (3,H,W) plus the chosen band indices."""

    values: np.ndarray
    band_indices: tuple[int, int, int]


# ---------------------------------------------------------------------------
# file I/O


def write_container(path, magic: bytes, header: dict, arrays) -> None:
    """Write the container: magic, header length, JSON header, each array
    in the header's dtype. The header written also holds ``crc32``, the
    `zlib.crc32` of the payload bytes."""
    dtype = PAYLOAD_DTYPES[header["dtype"]]
    payloads = [np.ascontiguousarray(a, dtype=dtype) for a in arrays]
    crc = 0
    for a in payloads:
        crc = zlib.crc32(a, crc)
    blob = json.dumps({**header, "crc32": crc}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for a in payloads:
            fh.write(a.tobytes())


def read_container(path, magic: bytes, what: str, shapes) -> tuple[dict, dict]:
    """Return (header, {name: float64 array}); DataError names the file.

    A header without ``dtype`` or ``crc32`` raises DataError naming the
    key, and so does a dtype other than those of PAYLOAD_DTYPES; then
    `shapes(header)` checks the format's fields and returns a (name, shape)
    per payload in file order. `what` names the header in messages. A name
    given to two payloads raises DataError naming it. Once the payloads are
    framed, a ``crc32`` that is not the `zlib.crc32` of the payload bytes
    raises DataError.
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
    for key in ("dtype", "crc32"):
        if key not in header:
            raise DataError(f"{path}: {what} missing {key!r}")
    kind = header["dtype"]
    if not isinstance(kind, str) or kind not in PAYLOAD_DTYPES:
        raise DataError(f"{path}: unsupported dtype {kind!r}")
    dtype = PAYLOAD_DTYPES[kind]
    arrays, pos = {}, 0
    for name, shape in shapes(header):
        if name in arrays:
            raise DataError(f"{path}: payload name {name!r} appears twice")
        count = math.prod(shape)
        if dtype.itemsize * count > len(payload) - pos:
            raise DataError(f"{path}: truncated payload for {name}")
        arrays[name] = np.frombuffer(payload, dtype, count, pos).astype(np.float64).reshape(shape)
        pos += dtype.itemsize * count
    if pos != len(payload):
        raise DataError(f"{path}: {len(payload) - pos} trailing bytes after the last payload")
    crc = zlib.crc32(payload)
    if header["crc32"] != crc:
        raise DataError(f"{path}: payload checksum {crc} does not match the header's "
                        f"crc32 {header['crc32']!r}: the file is corrupt")
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
        for key in ("height", "width", "bands", "wavelengths_nm", "layout"):
            if key not in header:
                raise DataError(f"{path}: header missing {key!r}")
        if header["dtype"] != "f32le":
            raise DataError(f"{path}: unsupported dtype {header['dtype']!r}")
        if header["layout"] != "bsq":
            raise DataError(f"{path}: unsupported layout {header['layout']!r}")
        for key in ("height", "width", "bands"):
            check_int(header[key], f"{path}: header {key!r}")
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
        value = int(text) if text.isascii() and text.isdigit() else text
    except ValueError:  # more digits than int() converts
        value = text
    return check_int(value, f"{path}: ENVI header {key!r}")


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


def align_wavelengths(cube: HsiCube, target: np.ndarray | None = None) -> HsiCube:
    """Interpolate every pixel spectrum onto a target wavelength grid.

    Piecewise-linear, no extrapolation: an explicit target outside the
    source range is an error; the default target is the 48-band 400-1000 nm
    grid clipped to the cube's range, which must hold one of its points.
    """
    src = cube.wavelengths
    if target is None:
        grid = default_wavelength_grid()
        target = grid[(grid >= src[0]) & (grid <= src[-1])]
        if len(target) == 0:
            raise DataError(f"no point of the 400-1000 nm default grid falls in the cube's "
                            f"range [{src[0]}, {src[-1]}] nm; pass a target grid")
    target = vector_array(target, "target grid")
    if target[0] < src[0] or target[-1] > src[-1]:
        raise DataError(
            f"target grid [{target[0]}, {target[-1]}] outside source range "
            f"[{src[0]}, {src[-1]}] (no extrapolation)"
        )
    if not np.all(np.diff(target) > 0):
        raise DataError("target grid must be strictly increasing")
    if cube.bands == 1:  # the checks above leave target equal to its one band
        return HsiCube(cube.values.copy(), target)

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
    for name, value in (("height", height), ("width", width), ("size", size), ("stride", stride)):
        check_int(value, name)
    if size > height or size > width:
        raise DataError(f"patch size {size} exceeds extents {height}x{width}")
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
    return RgbBands(values, idx)


# ---------------------------------------------------------------------------
# degradations


def area_downsample(values: np.ndarray, factor: int) -> np.ndarray:
    factor = check_int(factor, "factor")
    values = chw_array(values, "values")
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
