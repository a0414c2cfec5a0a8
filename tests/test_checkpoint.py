import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from wsgat.checkpoint import save_arrays, load_arrays, MAGIC
from wsgat import pipelines
from wsgat.pipelines import TaskModel, TrainConfig
from wsgat.verify import random_graph


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "layer.w0": rng.standard_normal((3, 5)),
        "layer.b0": rng.standard_normal(5),
        "scalar": np.array(2.5),
    }
    p = tmp_path / "m.ckpt"
    save_arrays(p, arrays)
    loaded = load_arrays(p)
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert loaded[k].shape == np.asarray(arrays[k]).shape
        assert np.array_equal(loaded[k], arrays[k])


def test_layout_is_little_endian_with_magic(tmp_path):
    p = tmp_path / "m.ckpt"
    save_arrays(p, {"x": np.array([1.0, 2.0])})
    blob = p.read_bytes()
    assert blob[:5] == MAGIC
    # count=1, name_len=1, 'x', ndim=1, dim=2, then two float64 LE
    assert int.from_bytes(blob[5:9], "little") == 1
    assert int.from_bytes(blob[9:13], "little") == 1
    assert blob[13:14] == b"x"
    assert int.from_bytes(blob[14:18], "little") == 1
    assert int.from_bytes(blob[18:26], "little") == 2
    assert np.frombuffer(blob[26:42], dtype="<f8").tolist() == [1.0, 2.0]


def test_deterministic_bytes(tmp_path):
    arrays = {"b": np.ones(3), "a": np.zeros((2, 2))}
    p1, p2 = tmp_path / "1.ckpt", tmp_path / "2.ckpt"
    save_arrays(p1, arrays)
    save_arrays(p2, dict(reversed(list(arrays.items()))))
    assert p1.read_bytes() == p2.read_bytes()  # sorted by name


def test_failed_save_leaves_the_previous_checkpoint_whole(tmp_path):
    p = tmp_path / "m.ckpt"
    save_arrays(p, {"a": np.arange(3.0)})
    before = p.read_bytes()
    # "a" is written before the lone surrogate fails to encode
    with pytest.raises(UnicodeEncodeError):
        save_arrays(p, {"a": np.zeros(3), "\ud800": np.ones(2)})
    assert p.read_bytes() == before
    assert load_arrays(p)["a"].tolist() == [0.0, 1.0, 2.0]
    assert [q.name for q in tmp_path.iterdir()] == ["m.ckpt"]


def test_truncated_file_raises_value_error_naming_the_path(tmp_path):
    p = tmp_path / "m.ckpt"
    save_arrays(p, {"layer.w0": np.ones((2, 3)), "layer.b0": np.zeros(3)})
    blob = p.read_bytes()
    cut = tmp_path / "cut.ckpt"
    # inside the magic, count, a name length, a name, ndim, dims and data
    for offset in (0, 3, 7, 11, 15, 20, 30, 50, len(blob) - 1):
        cut.write_bytes(blob[:offset])
        with pytest.raises(ValueError, match=re.escape(f"{cut}: truncated")):
            load_arrays(cut)


def test_trailing_bytes_raise_value_error_naming_the_path(tmp_path):
    p = tmp_path / "m.ckpt"
    save_arrays(p, {"layer.w0": np.ones((2, 3)), "layer.b0": np.zeros(3)})
    p.write_bytes(p.read_bytes() + b"garbage")
    with pytest.raises(ValueError, match=re.escape(f"{p}: trailing bytes")):
        load_arrays(p)


def test_foreign_file_raises_value_error_naming_the_path(tmp_path):
    p = tmp_path / "m.ckpt"
    save_arrays(p, {"w": np.ones(2)})
    p.write_bytes(b"WSGT2" + p.read_bytes()[len(MAGIC):])  # whole but for its magic
    with pytest.raises(ValueError, match=re.escape(f"{p}: not a wsgat checkpoint")):
        load_arrays(p)


@pytest.mark.parametrize("name, dims", [
    (b"w", (2**40,)),          # 8 TB of data declared
    (b"w", (2**32, 2**32)),    # element count past 2**64
    (b"\xff", (1,)),          # name that is not UTF-8
])
def test_corrupt_header_raises_value_error_naming_the_path(tmp_path, name, dims):
    p = tmp_path / "corrupt.ckpt"
    p.write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(name)) + name
                  + struct.pack("<I", len(dims)) + b"".join(struct.pack("<Q", d) for d in dims)
                  + np.ones(1, "<f8").tobytes())
    with pytest.raises(ValueError, match=re.escape(f"{p}: ")):
        load_arrays(p)


def test_repeated_array_name_raises_value_error_naming_the_path(tmp_path):
    # save_arrays cannot write this file: two records named "w", ones then zeros
    def record(values):
        return (struct.pack("<I", 1) + b"w" + struct.pack("<I", 1)
                + struct.pack("<Q", len(values)) + np.asarray(values, "<f8").tobytes())

    p = tmp_path / "twice.ckpt"
    p.write_bytes(MAGIC + struct.pack("<I", 2) + record([1.0, 1.0]) + record([0.0, 0.0]))
    with pytest.raises(ValueError, match=re.escape(f"{p}: array 'w' stored twice")):
        load_arrays(p)


def test_checkpoint_from_before_the_split_first_layer_scores_the_same():
    """The data files were written by the model that built each MLP's full
    pair input: a signed-weight TaskModel on random_graph(default_rng(5), 9,
    0.35) with the config below, each parameter its initial value plus
    0.3 * default_rng(8).standard_normal, drawn in sorted name order, then
    save_arrays, and that model's outputs on nine pairs. The split model takes
    the same names and shapes and gives the same outputs up to summation
    order."""
    data = Path(__file__).parent / "data"
    g = random_graph(np.random.default_rng(5), 9, 0.35)
    cfg = TrainConfig(layers=2, hidden=5, embed=4, heads=2, attention_hidden=6,
                      head_hidden=7, feature_dim=4, seed=3)
    model = TaskModel("signed-weight", g, cfg)
    model.load_parameter_arrays(load_arrays(data / "signed_weight_2head.ckpt"))
    expected = json.loads((data / "signed_weight_2head.json").read_text(encoding="utf-8"))
    pairs = np.array(expected["pairs"])
    emb = model.embeddings()
    for head, output in (("exist_head", "existence_logits"), ("weight_head", "weight_values")):
        got = pipelines._head_values(getattr(model, head), emb, pairs)[:, 0]
        assert np.max(np.abs(got - expected[output])) < 1e-12
