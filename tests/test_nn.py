import json
import struct

import numpy as np
import pytest

from spectragen import nn
from spectragen.autodiff import Parameter

MAGIC = nn.CHECKPOINT_MAGIC


def params():
    return [Parameter(np.arange(6.0).reshape(2, 3), "a.weight"),
            Parameter(np.array([0.5, -1.0]), "a.bias")]


def saved(tmp_path):
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, "toy", {"width": 3}, params())
    return path


def rewrite_manifest(path, drop=(), **fields):
    blob = path.read_bytes()
    start = len(MAGIC) + 4
    n = struct.unpack("<I", blob[len(MAGIC) : start])[0]
    manifest = json.loads(blob[start : start + n])
    manifest.update(fields)
    for key in drop:
        del manifest[key]
    new = json.dumps(manifest).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(new)) + new + blob[start + n :])


def test_load_checkpoint_rejects_short_length_field(tmp_path):
    path = tmp_path / "short.ckpt"
    path.write_bytes(MAGIC + b"\x07\x00")
    with pytest.raises(ValueError, match="header length"):
        nn.load_checkpoint(path)


def test_load_checkpoint_rejects_unknown_format(tmp_path):
    path = saved(tmp_path)
    rewrite_manifest(path, format="spectragen-checkpoint-v2")
    with pytest.raises(ValueError, match="format"):
        nn.load_checkpoint(path)


@pytest.mark.parametrize("key", ["parameters", "kind", "config"])
def test_load_checkpoint_rejects_manifest_without_key(tmp_path, key):
    path = saved(tmp_path)
    rewrite_manifest(path, drop=[key])
    with pytest.raises(ValueError, match=f"model.ckpt.*{key}"):
        nn.load_checkpoint(path)


@pytest.mark.parametrize("parameters", [None, 5, {"name": "a.weight", "shape": [2, 3]}])
def test_load_checkpoint_rejects_parameters_not_a_list(tmp_path, parameters):
    path = saved(tmp_path)
    rewrite_manifest(path, parameters=parameters)
    with pytest.raises(ValueError, match="model.ckpt.*parameters"):
        nn.load_checkpoint(path)


@pytest.mark.parametrize("entry, named", [
    ({"shape": [2, 3]}, "entry 0"),
    ({"name": "a.weight"}, "a.weight"),
    ({"name": "a.weight", "shape": [-1]}, "a.weight"),
    ({"name": "a.weight", "shape": [2, -3]}, "a.weight"),
    ({"name": "a.weight", "shape": [2.0, 3]}, "a.weight"),
    ({"name": "a.weight", "shape": ["2", 3]}, "a.weight"),
    ({"name": "a.weight", "shape": [True, 6]}, "a.weight"),
    ({"name": "a.weight", "shape": 6}, "a.weight"),
])
def test_load_checkpoint_rejects_bad_parameter_entry(tmp_path, entry, named):
    path = saved(tmp_path)
    rewrite_manifest(path, parameters=[entry, {"name": "a.bias", "shape": [2]}])
    with pytest.raises(ValueError, match=f"model.ckpt.*{named}"):
        nn.load_checkpoint(path)


def test_load_checkpoint_rejects_trailing_bytes(tmp_path):
    path = saved(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="trailing"):
        nn.load_checkpoint(path)


def test_assign_parameters_rejects_unknown_name(tmp_path):
    _, _, values = nn.load_checkpoint(saved(tmp_path))
    values["b.weight"] = np.zeros(1)
    with pytest.raises(ValueError, match="b.weight"):
        nn.assign_parameters(params(), values)
