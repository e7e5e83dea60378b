import json
import re
import struct
import zlib

import numpy as np
import pytest

from spectragen import autodiff as ad
from spectragen import nn
from spectragen.autodiff import Parameter, Tensor
from spectragen.diffusion import ConditionalDenoiser, DenoiserConfig
from spectragen.hsi import DataError
from spectragen.rgan import AttentionConfig, RganConfig, RganModel

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


def test_checkpoint_bytes_follow_the_documented_layout(tmp_path):
    payload = struct.pack("<8d", 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.5, -1.0)
    manifest = (b'{"config": {"width": 3}, "crc32": %d, "dtype": "f64le", '
                b'"format": "spectragen-checkpoint-v1", "kind": "toy", '
                b'"parameters": [{"name": "a.weight", "shape": [2, 3]}, '
                b'{"name": "a.bias", "shape": [2]}]}' % zlib.crc32(payload))
    want = b"SGCKPT\x00\x01" + struct.pack("<I", len(manifest)) + manifest + payload
    assert saved(tmp_path).read_bytes() == want


def test_checkpoint_round_trip_keeps_float64_values(tmp_path):
    # 0.1 and 1/3 are not float32 values: a float32 payload would move them
    values = np.array([0.1, 1.0 / 3.0, -2.0 ** -30, 1e300])
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, "toy", {}, [Parameter(values, "a.weight")])
    _, _, back = nn.load_checkpoint(path)
    np.testing.assert_array_equal(back["a.weight"], values)
    assert back["a.weight"].dtype == np.float64


@pytest.mark.parametrize("dtype", ["f16le", "<f8", ["f64le"], None])
def test_load_checkpoint_rejects_an_unknown_dtype(tmp_path, dtype):
    path = saved(tmp_path)
    rewrite_manifest(path, dtype=dtype)
    with pytest.raises(DataError, match=re.escape(f"model.ckpt: unsupported dtype {dtype!r}")):
        nn.load_checkpoint(path)


def test_load_checkpoint_rejects_short_length_field(tmp_path):
    path = tmp_path / "short.ckpt"
    path.write_bytes(MAGIC + b"\x07\x00")
    with pytest.raises(ValueError, match="header length"):
        nn.load_checkpoint(path)


@pytest.mark.parametrize("blob", [b"\xff\xfe{}", b"{", b"not json", b""],
                         ids=["not-utf8", "truncated-json", "not-json", "empty"])
def test_load_checkpoint_rejects_malformed_manifest(tmp_path, blob):
    path = saved(tmp_path)
    raw = path.read_bytes()
    start = len(MAGIC) + 4
    n = struct.unpack("<I", raw[len(MAGIC) : start])[0]
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[start + n :])
    with pytest.raises(ValueError, match="model.ckpt.*manifest"):
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


def test_load_checkpoint_rejects_a_parameter_name_given_twice(tmp_path):
    path = tmp_path / "twice.ckpt"
    nn.save_checkpoint(path, "toy", {}, [Parameter(np.zeros(3), "a.weight"),
                                         Parameter(np.full(3, 7.0), "a.weight"),
                                         Parameter(np.zeros(2), "a.bias")])
    with pytest.raises(DataError, match="twice.ckpt.*'a.weight' appears twice"):
        nn.load_checkpoint(path)


def test_assign_parameters_rejects_unknown_name(tmp_path):
    _, _, values = nn.load_checkpoint(saved(tmp_path))
    values["b.weight"] = np.zeros(1)
    with pytest.raises(ValueError, match="b.weight"):
        nn.assign_parameters(params(), values)


# ---------------------------------------------------------------------------
# Module: the parameter walk


def test_module_walks_attributes_in_assignment_order():
    class Leaf(nn.Module):
        def __init__(self, name):
            self.w = Parameter(np.zeros(1), f"{name}.w")

    class Tree(nn.Module):
        def __init__(self):
            self.late = Parameter(np.zeros(1), "late")
            self.config = {"w": Parameter(np.zeros(1), "in_a_dict")}
            self.width = 3
            self.missing = None
            self.constant = Tensor(np.zeros(1))
            self.children = [Leaf("c0"), [Leaf("c1"), Parameter(np.zeros(1), "bare")]]
            self.empty = []
            self.sub = Leaf("sub")

    assert [p.name for p in Tree().parameters()] == ["late", "c0.w", "c1.w", "bare", "sub.w"]


def test_conv2d_layer_records_one_graph_node():
    conv = nn.Conv2d(2, 3, ad.RandomSource(3), "conv")
    x = Parameter(ad.RandomSource(4).normal((2, 5, 4)), "x")
    y = conv(x)
    assert len(y.node.parents) == 3
    assert all(a is b.node for a, b in zip(y.node.parents, (x, conv.weight, conv.bias)))
    np.testing.assert_array_equal(y.data, ad.conv2d(x, conv.weight, conv.bias).data)


def weight_bias(*names):
    return [f"{n}.{k}" for n in names for k in ("weight", "bias")]


def test_rgan_parameter_order_is_pinned():
    def rca(n):
        return weight_bias(f"{n}.qkv") + [f"{n}.pos_h", f"{n}.pos_v"]

    def gate(n):
        return weight_bias(f"{n}.fc1", f"{n}.fc2", f"{n}.value")

    def ffd(n):
        return [f"{n}.norm.gamma", f"{n}.norm.beta"] + weight_bias(f"{n}.fc1", f"{n}.fc2")

    model = RganModel(RganConfig(bands=4, attention=AttentionConfig(8, layers=1)))
    assert [p.name for p in model.parameters()] == (
        weight_bias("embed_hsi", "embed_rgb")
        + rca("gal0.sal_hsi") + rca("gal0.sal_rgb") + rca("gal0.cal")
        + gate("gal0.spec_hsi") + gate("gal0.spec_rgb")
        + ffd("gal0.ffd_hsi") + ffd("gal0.ffd_rgb")
        + weight_bias("head"))


def test_denoiser_parameter_order_is_pinned():
    def block(n):
        return weight_bias(f"{n}.conv1", f"{n}.conv2")

    model = ConditionalDenoiser(DenoiserConfig(
        2, base_channels=4, levels=2, time_dim=8, cond_slots=(("hed", 1), ("seg", 1)),
        global_dim=5))
    assert [p.name for p in model.parameters()] == (
        weight_bias("time.fc1", "time.fc2", "time.level0", "time.level1", "global.proj",
                    "conv_in")
        + block("enc0") + block("enc1") + block("dec0") + weight_bias("head", "cond_in")
        + block("cond0") + block("cond1") + weight_bias("zero0", "zero1", "zero_out"))


@pytest.mark.parametrize("lr", [0.0, -1.0, np.inf, np.nan])
def test_adam_rejects_a_learning_rate_that_is_not_finite_and_positive(lr):
    with pytest.raises(ValueError, match="lr"):
        nn.Adam([Parameter(np.zeros(2), "p")], lr=lr)


def test_adam_rejects_an_empty_parameter_list():
    with pytest.raises(ValueError, match="params"):
        nn.Adam([], lr=0.1)


def test_adam_names_a_non_finite_parameter_before_any_gradient():
    # b's NaN value is checked before a's NaN gradient, and nothing moves
    a = Parameter(np.zeros(2), "a")
    b = Parameter(np.array([1.0, np.nan]), "b")
    a.grad[:] = np.nan
    opt = nn.Adam([a, b], lr=0.1)
    with pytest.raises(nn.NumericalFailure, match="non-finite value in parameter b"):
        opt.step()
    assert opt.t == 0
    np.testing.assert_array_equal(a.data, np.zeros(2))


# ---------------------------------------------------------------------------
# fit: the training loop


def quadratic(opt_rates, p, target):
    """step_loss for mean((p - target)^2) that records the rate it ran at."""
    def step_loss(step):
        opt_rates.append(opt.lr)
        yield nn.mse_loss(p, Tensor(target))

    opt = nn.Adam([p], lr=0.1)
    return opt, step_loss


@pytest.mark.parametrize("warmup_frac, tail_frac", [(0.0, 0.0), (0.2, 0.5)])
def test_fit_schedules_the_rate_and_descends(warmup_frac, tail_frac):
    p = Parameter(np.zeros(3), "p")
    target = np.array([1.0, -2.0, 0.5])
    rates = []
    opt, step_loss = quadratic(rates, p, target)
    trace = nn.fit(opt, 20, step_loss, warmup_frac=warmup_frac, tail_frac=tail_frac)
    warmup, tail_start = max(int(20 * warmup_frac), 1), int(20 * (1.0 - tail_frac))
    assert rates == [0.1 * nn.warmup_flat_cosine(s, 20, warmup, tail_start) for s in range(20)]
    assert len(trace) == 20 and opt.t == 20
    assert trace[0] == pytest.approx(np.mean(target**2)) and trace[-1] < trace[0]


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_fit_gives_back_the_entry_rate(fails):
    p = Parameter(np.zeros(3), "p")
    opt, step_loss = quadratic([], p, np.ones(3))
    opt.lr = 1e-2

    def losses(step):
        if fails and step == 8:  # in the cosine tail
            yield Tensor(np.array(np.nan))
        yield from step_loss(step)

    if fails:
        with pytest.raises(nn.NumericalFailure, match="step 8"):
            nn.fit(opt, 10, losses, warmup_frac=0.1, tail_frac=0.3)
    else:
        nn.fit(opt, 10, losses, warmup_frac=0.1, tail_frac=0.3)
    assert opt.lr == 1e-2


@pytest.mark.parametrize("steps", [-1, -20])
def test_fit_rejects_negative_steps(steps):
    p = Parameter(np.zeros(3), "p")
    opt, step_loss = quadratic([], p, np.ones(3))
    with pytest.raises(ValueError, match=f"steps.*{steps}"):
        nn.fit(opt, steps, step_loss)
    assert opt.t == 0
    assert nn.fit(opt, 0, step_loss) == [] and opt.t == 0


def test_fit_raises_on_a_non_finite_loss_before_stepping():
    p = Parameter(np.zeros(2), "p")
    opt = nn.Adam([p], lr=0.1)

    def step_loss(step):
        scale = np.nan if step == 2 else 1.0
        yield ad.mul(nn.mse_loss(p, Tensor(np.ones(2))), scale)

    with pytest.raises(nn.NumericalFailure, match="loss.*step 2"):
        nn.fit(opt, 5, step_loss)
    assert opt.t == 2 and np.all(np.isfinite(p.data))


def test_fit_names_the_step_of_a_non_finite_gradient():
    p = Parameter(np.zeros(2), "p")
    opt = nn.Adam([p], lr=0.1)

    def step_loss(step):
        # relu maps the NaN to 0: the loss is finite, the gradient is not
        x = Tensor(np.array([1.0, np.nan if step == 1 else 1.0]))
        yield ad.tsum(ad.relu(ad.mul(p, x)))

    with pytest.raises(nn.NumericalFailure, match="gradient in p at step 1"):
        nn.fit(opt, 3, step_loss)
    assert opt.t == 1


def test_fit_checks_each_part_before_its_backward():
    p = Parameter(np.zeros(2), "p")
    opt = nn.Adam([p], lr=0.1)
    at_step, asked = [], []

    def step_loss(step):
        at_step.append(p.data.copy())
        for part in range(3):
            asked.append((step, part))
            scale = np.nan if (step, part) == (1, 1) else 1.0
            yield ad.mul(nn.mse_loss(p, Tensor(np.ones(2))), scale)

    with pytest.raises(nn.NumericalFailure, match="loss nan at step 1"):
        nn.fit(opt, 3, step_loss)
    assert opt.t == 1 and asked[-1] == (1, 1)
    np.testing.assert_array_equal(p.data, at_step[1])


def test_fit_sums_the_gradients_of_the_parts_of_a_step():
    # dyadic values over a power-of-two size keep every sum exact, so the
    # gradients must match whatever order they add in
    init = np.array([0.5, -1.0, 2.0, 0.25])
    targets = [np.array([1.0, 0.0, -0.5, 2.0]), np.array([0.0, 4.0, 1.0, -1.0]),
               np.array([-2.0, 0.5, 0.5, 0.0])]
    p = Parameter(init.copy(), "p")

    def step_loss(step):
        for t in targets:
            yield nn.mse_loss(p, Tensor(t))

    trace = nn.fit(nn.Adam([p], lr=0.1), 1, step_loss)
    q = Parameter(init.copy(), "q")
    parts = [nn.mse_loss(q, Tensor(t)) for t in targets]
    summed = ad.add(ad.add(parts[0], parts[1]), parts[2])
    ad.backward(summed)
    np.testing.assert_array_equal(p.grad, q.grad)
    assert trace == [float(summed.data)]


@pytest.mark.parametrize("loss", [nn.l1_loss, nn.mse_loss])
@pytest.mark.parametrize("target_shape", [(1, 4, 4), (2, 1, 4), (4,)])
def test_losses_reject_a_target_of_another_shape(loss, target_shape):
    pred = Parameter(np.zeros((2, 4, 4)), "pred")
    with pytest.raises(ValueError, match=re.escape(f"(2, 4, 4) != target shape {target_shape}")):
        loss(pred, Tensor(np.zeros(target_shape)))
