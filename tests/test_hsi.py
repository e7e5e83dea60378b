import json
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectragen import hsi, nn
from spectragen.autodiff import Parameter, RandomSource
from spectragen.hsi import DataError, DegradationSpec, HsiCube
from spectragen.synth import synthetic_cube


def random_cube(seed, bands=5, height=8, width=8):
    rng = RandomSource(seed)
    values = rng.uniform((bands, height, width)).astype(np.float32).astype(np.float64)
    wavelengths = np.linspace(420.0, 980.0, bands)
    return HsiCube(values, wavelengths)


# ---------------------------------------------------------------------------
# I/O


def test_hsc_round_trip(tmp_path):
    cube = random_cube(1)
    path = tmp_path / "cube.hsc"
    hsi.write_cube(cube, path)
    back = hsi.read_cube(path)
    np.testing.assert_array_equal(back.values, cube.values)
    np.testing.assert_array_equal(back.wavelengths, cube.wavelengths)


def test_hsc_header_band_mismatch(tmp_path):
    cube = random_cube(2, bands=10)
    path = tmp_path / "cube.hsc"
    hsi.write_cube(cube, path)
    blob = path.read_bytes()
    import json
    import struct

    n = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12 : 12 + n])
    header["wavelengths_nm"] = header["wavelengths_nm"][:9]
    new_header = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(new_header)) + new_header + blob[12 + n :])
    with pytest.raises(DataError):
        hsi.read_cube(path)


def test_hsc_truncated_payload(tmp_path):
    cube = random_cube(3)
    path = tmp_path / "cube.hsc"
    hsi.write_cube(cube, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(DataError):
        hsi.read_cube(path)


def test_hsc_bytes_follow_the_documented_layout(tmp_path):
    cube = HsiCube(np.array([[[0.5, -1.0]], [[2.0, 0.25]]]), np.array([500.0, 600.0]))
    path = tmp_path / "cube.hsc"
    hsi.write_cube(cube, path)
    payload = struct.pack("<4f", 0.5, -1.0, 2.0, 0.25)
    header = (b'{"bands": 2, "crc32": %d, "dtype": "f32le", "height": 1, "layout": "bsq", '
              b'"wavelengths_nm": [500.0, 600.0], "width": 2}' % zlib.crc32(payload))
    want = b"HSCUBE\x00\x01" + struct.pack("<I", len(header)) + header + payload
    assert path.read_bytes() == want
    np.testing.assert_array_equal(hsi.read_cube(path).values, cube.values)


@pytest.mark.parametrize("edit", ["fewer-bands", "appended"])
def test_hsc_rejects_bytes_after_the_payload(tmp_path, edit):
    path = tmp_path / "cube.hsc"
    hsi.write_cube(random_cube(8, bands=3, height=2, width=2), path)
    if edit == "fewer-bands":
        _rewrite_hsc_header(path, bands=2, wavelengths_nm=[420.0, 700.0])
    else:
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(DataError, match="cube.hsc.*trailing"):
        hsi.read_cube(path)


def test_hsc_rejects_extents_larger_than_the_file(tmp_path):
    path = tmp_path / "cube.hsc"
    hsi.write_cube(random_cube(8, bands=1, height=2, width=2), path)
    _rewrite_hsc_header(path, height=10**6, width=10**6)
    with pytest.raises(DataError, match="cube.hsc.*truncated payload"):
        hsi.read_cube(path)


def _rewrite_hsc_header(path, drop=(), **fields):
    blob = path.read_bytes()
    n = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12 : 12 + n])
    header.update(fields)
    for key in drop:
        del header[key]
    new_header = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(new_header)) + new_header + blob[12 + n :])


def test_hsc_with_a_flipped_payload_byte_raises(tmp_path):
    # the lowest mantissa bit of the last value: a valid cube, but not the one written
    path = tmp_path / "cube.hsc"
    hsi.write_cube(random_cube(13), path)
    blob = bytearray(path.read_bytes())
    blob[-4] ^= 1
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=f"{re.escape(str(path))}: payload checksum"):
        hsi.read_cube(path)


@pytest.mark.parametrize("key", ["dtype", "crc32"])
@pytest.mark.parametrize("kind", ["hsc", "checkpoint"])
def test_container_without_a_framing_key_raises(tmp_path, kind, key):
    # cubes and checkpoints share the container, so both must state its keys
    if kind == "hsc":
        path, what, read = tmp_path / "cube.hsc", "HSC header", hsi.read_cube
        hsi.write_cube(random_cube(14), path)
    else:
        path, what = tmp_path / "model.ckpt", "checkpoint manifest"
        nn.save_checkpoint(path, "toy", {}, [Parameter(np.array([0.1, -1.0]), "a.weight")])
        read = nn.load_checkpoint
    _rewrite_hsc_header(path, drop=[key])
    with pytest.raises(DataError, match=re.escape(f"{path}: {what} missing {key!r}")):
        read(path)


@pytest.mark.parametrize("blob, message", [
    (b"5", "JSON int"), (b'"bsq"', "JSON str"), (b"[1, 2]", "JSON list"), (b"null", "JSON NoneType"),
    (b"\xff{}", "malformed JSON"), (b"{", "malformed JSON"),
], ids=["int", "str", "list", "null", "not-utf8", "truncated-json"])
def test_hsc_header_must_be_a_json_object(tmp_path, blob, message):
    path = tmp_path / "cube.hsc"
    hsi.write_cube(random_cube(7, bands=2, height=2, width=2), path)
    raw = path.read_bytes()
    n = struct.unpack("<I", raw[8:12])[0]
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n :])
    with pytest.raises(DataError, match=f"cube.hsc.*{message}"):
        hsi.read_cube(path)


@pytest.mark.parametrize("value", ["2", 2.0, True, None, 0, -1])
@pytest.mark.parametrize("key", ["height", "width", "bands"])
def test_hsc_header_extents_must_be_positive_ints(tmp_path, key, value):
    cube = random_cube(7, bands=2, height=2, width=2)
    path = tmp_path / "cube.hsc"
    hsi.write_cube(cube, path)
    _rewrite_hsc_header(path, **{key: value})
    with pytest.raises(DataError, match=key):
        hsi.read_cube(path)


@pytest.mark.parametrize("value", [500.0, "abc", "ab", [None, None], [500.0, "600"],
                                   [500.0, True], [500.0, float("nan")],
                                   [500.0, float("inf")], {"a": 1, "b": 2}])
def test_hsc_header_wavelengths_must_be_finite_numbers(tmp_path, value):
    cube = random_cube(7, bands=2, height=2, width=2)
    path = tmp_path / "cube.hsc"
    hsi.write_cube(cube, path)
    _rewrite_hsc_header(path, wavelengths_nm=value)
    with pytest.raises(DataError, match="wavelengths_nm"):
        hsi.read_cube(path)


def _write_envi(tmp_path, cube, interleave="bsq", data_type="4", byte_order="0"):
    data = tmp_path / "scene.dat"
    np.ascontiguousarray(cube.values, dtype="<f4").tofile(data)
    wl = ", ".join(f"{w:.2f}" for w in cube.wavelengths)
    hdr = tmp_path / "scene.hdr"
    hdr.write_text(
        "ENVI\n"
        f"samples = {cube.width}\n"
        f"lines = {cube.height}\n"
        f"bands = {cube.bands}\n"
        f"data type = {data_type}\n"
        f"interleave = {interleave}\n"
        f"byte order = {byte_order}\n"
        "wavelength = {" + wl + "}\n"
    )
    return hdr


def test_envi_bsq_accepted(tmp_path):
    cube = random_cube(4, bands=3, height=5, width=6)
    hdr = _write_envi(tmp_path, cube)
    back = hsi.read_cube(hdr)
    np.testing.assert_array_equal(back.values, cube.values)
    np.testing.assert_allclose(back.wavelengths, cube.wavelengths, atol=0.01)


def test_envi_bil_rejected(tmp_path):
    cube = random_cube(5, bands=3, height=5, width=6)
    hdr = _write_envi(tmp_path, cube, interleave="bil")
    with pytest.raises(DataError):
        hsi.read_cube(hdr)


def test_envi_wrong_dtype_rejected(tmp_path):
    cube = random_cube(6, bands=2, height=4, width=4)
    hdr = _write_envi(tmp_path, cube, data_type="5")
    with pytest.raises(DataError):
        hsi.read_cube(hdr)


def _set_envi_field(hdr, key, text):
    lines = [f"{key} = {text}" if line.split(" = ")[0] == key else line
             for line in hdr.read_text(encoding="utf-8").splitlines()]
    hdr.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("text", ["two", "0", "-3", "2.0", "+2", "1e3", "3 4",
                                  pytest.param("\u0663", id="arabic-indic-3"),
                                  pytest.param("9" * 5000, id="5000-digits")])
@pytest.mark.parametrize("key", ["samples", "lines", "bands"])
def test_envi_extents_must_be_positive_integers(tmp_path, key, text):
    hdr = _write_envi(tmp_path, random_cube(8, bands=3, height=5, width=6))
    _set_envi_field(hdr, key, text)
    with pytest.raises(DataError, match=f"{re.escape(str(hdr))}.*{key}"):
        hsi.read_cube(hdr)


@pytest.mark.parametrize("text", ["{500, abc}", "{500, nan}", "{500, -inf}", "{500, 1e400}",
                                  "{500, 6 00}", "{500, 0x2}"])
def test_envi_wavelengths_must_be_finite_numbers(tmp_path, text):
    hdr = _write_envi(tmp_path, random_cube(9, bands=2, height=4, width=4))
    _set_envi_field(hdr, "wavelength", text)
    with pytest.raises(DataError, match=f"{re.escape(str(hdr))}.*wavelength"):
        hsi.read_cube(hdr)


@pytest.mark.parametrize("fault, message", [
    ("hsc-nan", "non-finite"),
    ("hsc-decreasing", "strictly increasing"),
    ("envi-decreasing", "strictly increasing"),
])
def test_cube_validation_errors_name_the_file(tmp_path, fault, message):
    cube = random_cube(12, bands=2, height=4, width=4)
    if fault.startswith("envi"):
        path = _write_envi(tmp_path, cube)
        _set_envi_field(path, "wavelength", "{600.0, 500.0}")
    else:
        path = tmp_path / "cube.hsc"
        hsi.write_cube(cube, path)
        if fault == "hsc-nan":  # a NaN written with its checksum, not a corrupt byte
            blob = path.read_bytes()[:-4] + struct.pack("<f", float("nan"))
            path.write_bytes(blob)
            n = struct.unpack("<I", blob[8:12])[0]
            _rewrite_hsc_header(path, crc32=zlib.crc32(blob[12 + n :]))
        else:
            _rewrite_hsc_header(path, wavelengths_nm=[600.0, 500.0])
    with pytest.raises(DataError, match=f"{re.escape(str(path))}: .*{message}"):
        hsi.read_cube(path)


def test_envi_header_that_is_not_utf8_raises_data_error(tmp_path):
    hdr = _write_envi(tmp_path, random_cube(10, bands=2, height=4, width=4))
    hdr.write_bytes(hdr.read_bytes().replace(b"samples = 4", b"samples = \xff4"))
    with pytest.raises(DataError, match="samples"):
        hsi.read_cube(hdr)


_FLOAT_LISTS = st.lists(st.floats(), max_size=4).map(lambda v: "{" + ", ".join(map(repr, v)) + "}")


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    key=st.sampled_from(["samples", "lines", "bands", "wavelength"]),
    text=st.one_of(st.text(st.characters(blacklist_categories=("Cs",)), max_size=24),
                   st.integers(-3, 40).map(str), _FLOAT_LISTS),
)
def test_envi_header_fields_fuzz(tmp_path, key, text):
    hdr = _write_envi(tmp_path, random_cube(11, bands=2, height=4, width=6))
    _set_envi_field(hdr, key, text)
    try:
        cube = hsi.read_cube(hdr)
    except DataError:
        return
    assert isinstance(cube, HsiCube) and cube.values.size == 48


def test_cube_invariants_enforced():
    with pytest.raises(DataError):
        HsiCube(np.zeros((3, 4, 4)), np.array([500.0, 450.0, 600.0]))
    with pytest.raises(DataError):
        HsiCube(np.zeros((3, 4, 4)), np.array([500.0, 600.0]))
    bad = np.zeros((2, 4, 4))
    bad[0, 0, 0] = np.nan
    with pytest.raises(DataError):
        HsiCube(bad, np.array([500.0, 600.0]))


@pytest.mark.parametrize("shape", [(1, 0, 4), (1, 4, 0), (0, 4, 4)])
def test_cube_rejects_zero_extent(shape):
    with pytest.raises(DataError, match="extents"):
        HsiCube(np.zeros(shape), np.linspace(500.0, 600.0, shape[0]))


# ---------------------------------------------------------------------------
# wavelength alignment


def test_align_identity_on_target_grid():
    cube = synthetic_cube(7, bands=48)
    aligned = hsi.align_wavelengths(cube, cube.wavelengths)
    np.testing.assert_allclose(aligned.values, cube.values, atol=1e-12)


def test_align_exact_on_affine_spectra():
    # value = a*lambda + b per pixel; linear interpolation is exact.
    rng = RandomSource(8)
    h = w = 6
    src_wl = np.linspace(380.0, 1040.0, 20)
    a = rng.uniform((h, w), -0.001, 0.001)
    b = rng.uniform((h, w), 0.1, 0.5)
    values = a[None] * src_wl[:, None, None] + b[None]
    cube = HsiCube(values, src_wl)
    target = hsi.default_wavelength_grid()
    aligned = hsi.align_wavelengths(cube, target)
    expect = a[None] * target[:, None, None] + b[None]
    np.testing.assert_allclose(aligned.values, expect, atol=1e-7)


def test_align_chikusei_like_grid_against_scalar_oracle():
    # 128-band 343-1018 nm source onto the default 48-band grid.
    cube = synthetic_cube(9, bands=128, height=4, width=5,
                          wavelengths=np.linspace(343.0, 1018.0, 128))
    aligned = hsi.align_wavelengths(cube, hsi.default_wavelength_grid())
    assert aligned.bands == 48
    target = aligned.wavelengths
    for i in range(cube.height):
        for j in range(cube.width):
            expect = np.interp(target, cube.wavelengths, cube.values[:, i, j])
            np.testing.assert_allclose(aligned.values[:, i, j], expect, atol=1e-12)


def test_align_single_band_cube_returns_that_band():
    values = RandomSource(13).uniform((1, 3, 4))
    aligned = hsi.align_wavelengths(HsiCube(values, [500.0]), [500.0])
    np.testing.assert_array_equal(aligned.values, values)
    np.testing.assert_array_equal(aligned.wavelengths, [500.0])


def test_align_rejects_extrapolation():
    cube = synthetic_cube(10, bands=16, wavelengths=np.linspace(450.0, 900.0, 16))
    with pytest.raises(DataError):
        hsi.align_wavelengths(cube, np.array([400.0, 500.0]))


@pytest.mark.parametrize("target", [[], 500.0, [[500.0, 600.0]], [np.nan], [500.0, np.inf]],
                         ids=["empty", "0d", "2d", "nan", "inf"])
def test_align_rejects_a_target_grid_that_is_not_a_non_empty_vector(target):
    cube = synthetic_cube(10, bands=16, wavelengths=np.linspace(450.0, 900.0, 16))
    with pytest.raises(DataError, match="target grid"):
        hsi.align_wavelengths(cube, target)


def test_align_default_grid_clips_to_coverage():
    cube = synthetic_cube(11, bands=16, height=4, width=4,
                          wavelengths=np.linspace(450.0, 900.0, 16))
    aligned = hsi.align_wavelengths(cube)
    grid = aligned.wavelengths
    assert aligned.bands < 48
    assert grid[0] >= 450.0 and grid[-1] <= 900.0
    np.testing.assert_array_equal(grid, [w for w in hsi.default_wavelength_grid()
                                         if 450.0 <= w <= 900.0])


def test_align_default_grid_names_a_range_between_its_points():
    # 500 nm lies inside 400-1000 nm, but between two points of the 12.8 nm grid
    cube = HsiCube(np.full((1, 2, 2), 0.5), [500.0])
    with pytest.raises(DataError, match=re.escape(
            "no point of the 400-1000 nm default grid falls in the cube's range "
            "[500.0, 500.0] nm; pass a target grid")):
        hsi.align_wavelengths(cube)


def test_align_idempotent_on_target():
    cube = synthetic_cube(12, bands=32, height=4, width=4,
                          wavelengths=np.linspace(350.0, 1050.0, 32))
    once = hsi.align_wavelengths(cube, hsi.default_wavelength_grid())
    twice = hsi.align_wavelengths(once, hsi.default_wavelength_grid())
    np.testing.assert_allclose(twice.values, once.values, atol=1e-12)


# ---------------------------------------------------------------------------
# patches


def test_patch_count_chikusei_extents():
    grid = hsi.patch_grid(2517, 2335, 256, 128)
    assert grid.rows == 18 and grid.cols == 17
    assert len(grid) == 306


def test_patch_exact_fit_and_two_per_axis():
    assert len(hsi.patch_grid(256, 256, 256, 128)) == 1
    assert len(hsi.patch_grid(384, 384, 256, 128)) == 4


@settings(deadline=None, max_examples=40)
@given(
    h=st.integers(8, 64),
    w=st.integers(8, 64),
    size=st.integers(4, 8),
    stride=st.integers(1, 8),
)
def test_patch_count_formula_property(h, w, size, stride):
    grid = hsi.patch_grid(h, w, size, stride)
    assert len(grid) == ((h - size) // stride + 1) * ((w - size) // stride + 1)
    for r, c in grid.origins:
        assert r % stride == 0 and c % stride == 0
        assert r + size <= h and c + size <= w


def test_patch_reassembly_bit_exact():
    cube = random_cube(13, bands=3, height=12, width=8)
    grid = hsi.crop_patches(cube, 4, 4)
    out = np.zeros_like(cube.values)
    for patch, (r, c) in zip(hsi.iter_patches(cube, grid), grid.origins):
        out[:, r : r + 4, c : c + 4] = patch.values
    np.testing.assert_array_equal(out, cube.values)


@pytest.mark.parametrize("size", [0, -2])
def test_patch_size_must_be_positive(size):
    with pytest.raises(DataError, match=f"size must be an integer >= 1, got {size}"):
        hsi.patch_grid(8, 8, size, 2)


def test_patch_size_exceeds_extent():
    with pytest.raises(DataError):
        hsi.patch_grid(100, 100, 128, 64)


# ---------------------------------------------------------------------------
# RGB extraction


def test_extract_rgb_exact_grid():
    wl = np.array([400.0, 450.0, 550.0, 650.0, 700.0])
    cube = HsiCube(np.zeros((5, 2, 2)), wl)
    sel = hsi.extract_rgb(cube)
    assert sel.band_indices == (3, 2, 1)


def test_extract_rgb_nearest_against_argmin_oracle():
    cube = synthetic_cube(14, bands=48, height=4, width=4)
    sel = hsi.extract_rgb(cube)
    for idx, target in zip(sel.band_indices, hsi.RGB_TARGETS_NM):
        want = int(np.argmin(np.abs(cube.wavelengths - target)))
        assert idx == want
    np.testing.assert_array_equal(sel.values, cube.values[list(sel.band_indices)])


def test_extract_rgb_tie_takes_lower_index():
    wl = np.array([440.0, 460.0, 540.0, 560.0, 640.0, 660.0])
    cube = HsiCube(np.zeros((6, 2, 2)), wl)
    sel = hsi.extract_rgb(cube)
    assert sel.band_indices == (4, 2, 0)


def test_extract_rgb_coverage_gap():
    cube = synthetic_cube(15, bands=8, wavelengths=np.linspace(500.0, 900.0, 8))
    with pytest.raises(DataError):
        hsi.extract_rgb(cube)


# ---------------------------------------------------------------------------
# degradations


def test_degrade_sigma_zero_is_identity():
    cube = random_cube(16)
    out = hsi.degrade(cube, DegradationSpec("gaussian_noise", sigma=0.0, seed=5))
    np.testing.assert_array_equal(out.values, cube.values)


def test_degrade_downsample_constant():
    cube = HsiCube(np.full((2, 8, 8), 0.3), np.array([500.0, 600.0]))
    out = hsi.degrade(cube, DegradationSpec("downsample", factor=4))
    assert out.values.shape == (2, 2, 2)
    np.testing.assert_allclose(out.values, 0.3, atol=1e-15)


def test_degrade_downsample_matches_block_mean():
    cube = random_cube(17, bands=2, height=8, width=12)
    out = hsi.degrade(cube, DegradationSpec("downsample", factor=2))
    for b in range(2):
        for i in range(4):
            for j in range(6):
                block = cube.values[b, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                assert abs(out.values[b, i, j] - block.mean()) < 1e-12


def test_degrade_noise_statistics():
    # The sigma=0.2 noise stream itself: mean within 3*sigma/sqrt(n) of 0,
    # std within 2% of sigma, over 1e6 draws.
    sigma, n = 0.2, 1_000_000
    noise = RandomSource(99).normal((n,), scale=sigma)
    assert abs(noise.mean()) < 3 * sigma / np.sqrt(n)
    assert abs(noise.std() - sigma) < 0.02 * sigma
    # Applied mid-range, clamping keeps the moments close to the ideal ones.
    cube = HsiCube(np.full((16, 250, 250), 0.5), np.linspace(400, 1000, 16))
    out = hsi.degrade(cube, DegradationSpec("gaussian_noise", sigma=sigma, seed=99))
    delta = out.values - 0.5
    assert abs(delta.mean()) < 3 * sigma / np.sqrt(delta.size)
    assert abs(delta.std() - sigma) < 0.02 * sigma
    assert out.values.min() >= 0.0 and out.values.max() <= 1.0


def test_degrade_reproducible():
    cube = random_cube(18)
    spec = DegradationSpec("gaussian_noise", sigma=0.1, seed=7)
    a = hsi.degrade(cube, spec)
    b = hsi.degrade(cube, spec)
    np.testing.assert_array_equal(a.values, b.values)


def test_degrade_factor_must_divide():
    cube = random_cube(19, height=9, width=8)
    with pytest.raises(DataError):
        hsi.degrade(cube, DegradationSpec("downsample", factor=2))


@pytest.mark.parametrize("factor", [0, -2])
def test_area_downsample_rejects_a_factor_below_one(factor):
    with pytest.raises(DataError, match="factor"):
        hsi.area_downsample(np.zeros((1, 4, 4)), factor)


def test_degradation_spec_validation():
    with pytest.raises(DataError):
        DegradationSpec("blur")
    with pytest.raises(DataError):
        DegradationSpec("gaussian_noise", sigma=-1.0)
    with pytest.raises(DataError):
        DegradationSpec("downsample", factor=3)


@pytest.mark.parametrize("sigma", [np.inf, np.nan, -np.inf, "0.1", None])
def test_degradation_spec_rejects_a_sigma_that_is_not_a_finite_number(sigma):
    with pytest.raises(DataError, match="sigma"):
        DegradationSpec("gaussian_noise", sigma=sigma)
