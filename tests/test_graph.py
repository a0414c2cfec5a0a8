import numpy as np
import pytest

from wsgat.errors import EmptyGraphError, GraphParseError, SamplingExhaustedError
from wsgat.graph import (
    SignedWeightedGraph,
    pair_keys,
    load_edge_list,
    save_edge_list,
    normalize_weights,
    split_edges,
    sample_negative_edges,
)

from wsgat.verify import random_graph


def test_load_single_tsv3_line(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("a\tb\t0.5\n")
    g = load_edge_list(p, "tsv3")
    assert g.num_nodes == 2
    assert g.num_edges == 1
    assert g.weight[0] == 0.5


def test_load_comments_and_blank_lines(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("# header comment\n\n1\t2\t1.0\n2\t3\t-2.5\n")
    g = load_edge_list(p, "tsv3")
    assert g.num_nodes == 3
    assert g.num_edges == 2
    assert sorted(g.weight.tolist()) == [-2.5, 1.0]


def test_load_csv4_with_header_and_time_column(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("SOURCE,TARGET,RATING,TIME\n7,2,4,1289241911\n2,7,-3,1289241941\n")
    g = load_edge_list(p, "csv4")
    assert g.num_nodes == 2
    assert g.num_edges == 2
    assert set(g.weight.tolist()) == {4.0, -3.0}


def test_csv4_header_may_follow_comments_but_not_a_record(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("# exported\n\nSOURCE,TARGET,RATING,TIME\n7,2,4,1289241911\n2,7,-3,1\n")
    g = load_edge_list(p, "csv4")
    assert g.num_edges == 2 and set(g.weight.tolist()) == {4.0, -3.0}
    p.write_text("# exported\n7,2,4,1289241911\nSOURCE,TARGET,RATING,TIME\n")
    with pytest.raises(GraphParseError, match="bad weight 'RATING'") as e:
        load_edge_list(p, "csv4")
    assert e.value.lineno == 3


def test_format_defaults_to_csv4_for_a_csv_file_only(tmp_path):
    csv = tmp_path / "g.csv"
    csv.write_text("SOURCE,TARGET,RATING,TIME\n7,2,4,1289241911\n")
    assert load_edge_list(csv).weight.tolist() == [4.0]
    tsv = tmp_path / "g.tsv"
    tsv.write_text("src\tdst\tweight\n7\t2\t4\n")
    with pytest.raises(GraphParseError, match="bad weight 'weight'"):
        load_edge_list(tsv)  # tsv3 has no header row


def test_file_that_is_not_utf8_raises_graph_parse_error(tmp_path):
    p = tmp_path / "bin.tsv"
    p.write_bytes(b"1\t2\t1.0\n\xff\t3\t-1.0\n")
    with pytest.raises(GraphParseError, match="not UTF-8 text") as e:
        load_edge_list(p)
    assert e.value.lineno is None and str(e.value).startswith(f"{p}: ")


def test_duplicate_keeps_last(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("1\t2\t3\n1\t2\t-5\n")
    g = load_edge_list(p, "tsv3")
    assert g.num_edges == 1
    assert g.weight[0] == -5.0


def test_malformed_line_reports_lineno(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("1\t2\t1.0\n1\t2\n")
    with pytest.raises(GraphParseError) as e:
        load_edge_list(p, "tsv3")
    assert e.value.lineno == 2


def test_zero_weight_rejected(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("1\t2\t0\n")
    with pytest.raises(GraphParseError):
        load_edge_list(p, "tsv3")


def test_empty_file_errors(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("# nothing here\n")
    with pytest.raises(EmptyGraphError):
        load_edge_list(p, "tsv3")


def test_self_loops_dropped(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("1\t1\t2.0\n1\t2\t1.0\n")
    g = load_edge_list(p, "tsv3")
    assert g.num_edges == 1


def test_symmetrize_emits_both_arcs(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("a\tb\t0.8\n")
    g = load_edge_list(p, "tsv3", symmetrize=True)
    assert g.num_edges == 2
    assert sorted(g.edge_keys().tolist()) == [1, 2]  # (0, 1) and (1, 0) with n = 2


def test_roundtrip_tsv3(tmp_path):
    g = random_graph(np.random.default_rng(3), 12, 0.4)
    out = tmp_path / "rt.tsv"
    save_edge_list(g, out)
    g2 = load_edge_list(out, "tsv3")
    assert g2.num_nodes == g.num_nodes
    pairs = sorted(zip(g.src, g.dst, g.weight))
    pairs2 = sorted(zip(g2.src, g2.dst, g2.weight))
    assert pairs == pairs2


def test_in_edges_match_edge_list():
    g = random_graph(np.random.default_rng(1), 8, 0.4)
    for i in range(8):
        srcs, ws = g.in_edges(i)
        expected = sorted((s, w) for s, d, w in zip(g.src.tolist(), g.dst.tolist(),
                                                    g.weight.tolist()) if d == i)
        assert list(zip(srcs.tolist(), ws.tolist())) == expected


@pytest.mark.parametrize("src,dst", [([-1, 0], [1, 2]), ([0, 1], [1, 3])])
def test_from_edges_rejects_node_ids_out_of_range(src, dst):
    with pytest.raises(ValueError, match="node ids"):
        SignedWeightedGraph.from_edges(3, src, dst, [1.0, 1.0])


def test_from_edges_rejects_duplicate_pairs():
    with pytest.raises(ValueError, match="duplicate"):
        SignedWeightedGraph.from_edges(3, [0, 1, 0], [1, 2, 1], [1.0, 1.0, -1.0])


def test_normalize_signed_unit():
    g = SignedWeightedGraph.from_edges(3, [0, 1, 2], [1, 2, 0], [10.0, -7.0, 2.0])
    gn = normalize_weights(g, "signed_unit")
    assert gn.weight.tolist() == [1.0, -0.7, 0.2]
    assert g.weight.tolist() == [10.0, -7.0, 2.0]  # input untouched


def test_normalize_unit_abs():
    g = SignedWeightedGraph.from_edges(3, [0, 1, 2], [1, 2, 0], [0.8, -1.0, 0.5])
    gn = normalize_weights(g, "unit_abs")
    assert gn.weight.tolist() == [0.8, 1.0, 0.5]
    assert np.all(gn.weight > 0)


def test_normalize_preserves_sign_and_ratios():
    g = random_graph(np.random.default_rng(7), 15, 0.4)
    gn = normalize_weights(g, "signed_unit")
    assert np.array_equal(np.sign(gn.weight), np.sign(g.weight))
    ratio = g.weight[0] / g.weight[1]
    ratio_n = gn.weight[0] / gn.weight[1]
    assert abs(ratio - ratio_n) <= 1e-12 * abs(ratio)


def test_split_counts_and_disjointness():
    g = random_graph(np.random.default_rng(2), 20, 0.3)
    split = split_edges(g, 0.8, seed=5)
    n_train = int(np.floor(0.8 * g.num_edges))
    assert split.train_graph.num_edges == n_train
    assert len(split.test_pos) == g.num_edges - n_train
    assert len(split.train_neg) == n_train
    assert len(split.test_neg) == len(split.test_pos)
    train_keys = split.train_graph.edge_keys()
    test_keys = pair_keys(split.test_pos[:, 0], split.test_pos[:, 1], g.num_nodes)
    assert not np.isin(test_keys, train_keys).any()
    assert np.array_equal(np.sort(np.concatenate([train_keys, test_keys])),
                          np.sort(g.edge_keys()))


def test_split_with_no_train_edges_says_so():
    # floor(0.8 * 1) = 0 train edges; the input graph itself is not empty
    g = SignedWeightedGraph.from_edges(3, [0], [1], [0.5])
    with pytest.raises(EmptyGraphError, match=r"train split is empty: 1 edge\(s\) at "
                                              r"train_fraction 0\.8"):
        split_edges(g, 0.8, seed=0)


def test_split_deterministic():
    g = random_graph(np.random.default_rng(4), 15, 0.4)
    s1 = split_edges(g, 0.8, seed=9)
    s2 = split_edges(g, 0.8, seed=9)
    assert np.array_equal(s1.test_pos, s2.test_pos)
    assert np.array_equal(s1.train_neg, s2.train_neg)
    assert np.array_equal(s1.test_neg, s2.test_neg)


def test_split_negatives_absent_from_original_edges():
    # brute-force membership oracle on a small graph
    g = random_graph(np.random.default_rng(11), 6, 0.3)
    split = split_edges(g, 0.8, seed=1)
    edges = set(zip(g.src.tolist(), g.dst.tolist()))
    for s, d in np.vstack([split.train_neg, split.test_neg]):
        assert (int(s), int(d)) not in edges
        assert s != d


def test_negative_sampling_forced_outcome():
    # complete digraph minus one arc: the only possible negative is that arc
    n = 4
    src, dst, w = [], [], []
    for i in range(n):
        for j in range(n):
            if i != j and not (i == 3 and j == 0):
                src.append(i); dst.append(j); w.append(1.0)
    g = SignedWeightedGraph.from_edges(n, src, dst, w)
    negs = sample_negative_edges(g, 1, seed=0)
    assert negs.tolist() == [[3, 0]]


def test_negative_sampling_zero_count():
    g = random_graph(np.random.default_rng(0), 5, 0.4)
    assert len(sample_negative_edges(g, 0, seed=0)) == 0


def test_negative_sampling_exhaustion():
    g = SignedWeightedGraph.from_edges(2, [0, 1], [1, 0], [1.0, 1.0])
    with pytest.raises(SamplingExhaustedError):
        sample_negative_edges(g, 1, seed=0)


def test_negative_sampling_no_duplicates_and_deterministic():
    g = random_graph(np.random.default_rng(5), 30, 0.1)
    a = sample_negative_edges(g, 100, seed=42)
    b = sample_negative_edges(g, 100, seed=42)
    assert np.array_equal(a, b)
    assert len({(int(s), int(d)) for s, d in a}) == 100
    edges = set(zip(g.src.tolist(), g.dst.tolist()))
    assert all((int(s), int(d)) not in edges for s, d in a)


def loop_sample_negative_edges(g, count, seed):
    """Reference sampler: the pair-at-a-time loop over Python sets."""
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    rng = np.random.default_rng(seed)
    n = g.num_nodes
    forbidden = set(zip(g.src.tolist(), g.dst.tolist()))
    if count > n * n - n - len(forbidden):
        raise SamplingExhaustedError("not enough non-edges")
    out, seen = [], set()
    for _ in range(200):
        need = count - len(out)
        if need == 0:
            break
        for s, d in rng.integers(0, n, size=(max(4 * need, 64), 2)).tolist():
            if len(out) == count:
                break
            if s != d and (s, d) not in forbidden and (s, d) not in seen:
                seen.add((s, d))
                out.append((s, d))
    if len(out) < count:
        remaining = [(s, d) for s in range(n) for d in range(n)
                     if s != d and (s, d) not in forbidden and (s, d) not in seen]
        rng.shuffle(remaining)
        out.extend(remaining[: count - len(out)])
    return np.array(out, dtype=np.int64)


def test_negative_sampling_matches_loop_reference():
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(150):
        n = int(rng.integers(2, 12))
        m = rng.random((n, n)) < rng.choice([0.1, 0.5, 0.9, 1.0])
        np.fill_diagonal(m, False)
        cases.append((n, m, None))
    # nearly complete digraphs: 200 rounds of 64 draws often miss the last
    # free pairs, so these reach the enumerate-and-shuffle fallback
    for k in (1, 2, 3):
        n = 150
        m = ~np.eye(n, dtype=bool)
        m.flat[rng.choice(np.flatnonzero(m), size=k, replace=False)] = False
        cases.append((n, m, k))
    for n, m, count in cases:
        src, dst = np.nonzero(m)
        if len(src) == 0:
            continue
        g = SignedWeightedGraph.from_edges(n, src, dst, np.ones(len(src)))
        capacity = n * n - n - len(src)
        counts = {0, 1, capacity // 2, capacity, capacity + 1} if count is None else {count}
        for c in sorted(counts):
            seed = int(rng.integers(0, 2**31))
            if c > capacity:
                with pytest.raises(SamplingExhaustedError):
                    sample_negative_edges(g, c, seed)
                continue
            got = sample_negative_edges(g, c, seed)
            assert got.dtype == np.int64 and got.shape == (c, 2)
            assert np.array_equal(got, loop_sample_negative_edges(g, c, seed))
