import numpy as np
import pytest

import gen
from wsgat import load_edge_list


@pytest.mark.parametrize("name", ["alpha", "otc", "epin16"])
def test_same_seed_same_bytes(tmp_path, name):
    paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
    for p in paths:
        gen.write_tsv(p, *gen.generate(gen.SHAPES[name], 7)[1:])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    gen.write_tsv(paths[1], *gen.generate(gen.SHAPES[name], 8)[1:])
    assert paths[0].read_bytes() != paths[1].read_bytes()


@pytest.mark.parametrize("name", ["alpha", "otc", "epin16"])
def test_loaded_shape_is_exact(tmp_path, name):
    shape = gen.SHAPES[name]
    path = tmp_path / "g.tsv"
    gen.write_tsv(path, *gen.generate(shape, 3)[1:])
    g = load_edge_list(str(path))
    assert g.num_nodes == shape.nodes
    assert g.num_edges == shape.edges
    assert np.sum(g.weight < 0) == round((1 - shape.positive) * shape.edges)
    assert set(np.unique(np.abs(g.weight))) <= set(range(1, 11))


def test_full_epinions_arrays():
    shape = gen.SHAPES["epinions"]
    n, src, dst, w = gen.generate(shape, 1)
    keys = src * n + dst
    assert n == shape.nodes and len(src) == shape.edges
    assert len(np.unique(keys)) == shape.edges and not np.any(src == dst)
    degree = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    assert degree.min() >= 1
    assert np.sum(w < 0) == round((1 - shape.positive) * shape.edges)


def test_degrees_are_heavy_tailed():
    n, src, dst, _ = gen.generate(gen.SHAPES["otc"], 2)
    for deg in (np.bincount(src, minlength=n), np.bincount(dst, minlength=n)):
        assert deg.max() > 50 * np.median(deg)


def test_sign_is_planted_on_the_faction():
    # negatives concentrate on nodes that receive many of them: the in-share
    # of negatives is far from uniform across targets
    n, src, dst, w = gen.generate(gen.SHAPES["alpha"], 4)
    neg_in = np.bincount(dst, weights=w < 0, minlength=n)
    in_deg = np.bincount(dst, minlength=n)
    share = neg_in / in_deg
    assert np.mean(share > 0.5) > 0.02
    assert np.mean(share == 0) > 0.5


def test_rejects_impossible_shape():
    with pytest.raises(ValueError):
        gen.generate(gen.Shape(10, 200, 0.9), 0)
