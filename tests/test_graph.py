import itertools
import re

import numpy as np
import pytest

from wsgat.errors import (DegenerateTaskError, EmptyGraphError, GraphParseError,
                          GraphWriteError, SamplingExhaustedError)
from wsgat.graph import (
    SignedWeightedGraph,
    _label_key,
    _member,
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
    for name in ("g.csv", "g.CSV", "g.Csv"):  # the suffix in any case
        csv = tmp_path / name
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


@pytest.mark.parametrize("name, text", [("g.tsv", "1 2 0.5\n2 1 -1\n1 3 1\n"),
                                        ("g.csv", "1,2,0.5,0\n2,1,-1,0\n1,3,1,0\n")],
                         ids=["tsv3", "csv4"])
def test_a_leading_bom_is_not_part_of_the_first_label(tmp_path, name, text):
    # Excel's "CSV UTF-8" and Notepad start a UTF-8 file with U+FEFF
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    a, b = load_edge_list(plain), load_edge_list(marked)
    assert a.node_labels == b.node_labels == ("1", "2", "3")
    for x, y in ((a.src, b.src), (a.dst, b.dst), (a.weight, b.weight)):
        assert np.array_equal(x, y)


def loop_load_edge_list(path, fmt=None, symmetrize=False):
    """Reference loader: one (src, dst, weight) tuple per record, labels indexed
    by a list comprehension, np.isfinite on each weight."""
    if fmt is None:
        fmt = "csv4" if str(path).lower().endswith(".csv") else "tsv3"
    raw = []
    first_record = True
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line.startswith(("#", "%")):
                    continue
                is_first, first_record = first_record, False
                if fmt == "tsv3":
                    parts = line.split("\t")
                    if len(parts) == 1:
                        parts = line.split()
                    if len(parts) != 3:
                        raise GraphParseError(path, lineno, f"expected 3 fields, got {len(parts)}")
                    s, d, w = parts
                else:
                    parts = line.split(",")
                    if len(parts) < 3:
                        raise GraphParseError(path, lineno, f"expected >=3 comma fields, got {len(parts)}")
                    s, d, w = parts[0], parts[1], parts[2]
                try:
                    wv = float(w)
                except ValueError:
                    if is_first and fmt == "csv4":
                        continue  # header row
                    raise GraphParseError(path, lineno, f"bad weight {w!r}") from None
                if not np.isfinite(wv):
                    raise GraphParseError(path, lineno, f"non-finite weight {w!r}")
                if wv == 0.0:
                    raise GraphParseError(path, lineno, "zero weight (0 is reserved for non-existent links)")
                s, d = s.strip(), d.strip()
                raw.append((s, d, wv))
                if symmetrize and s != d:
                    raw.append((d, s, wv))
    except UnicodeDecodeError as e:
        raise GraphParseError(path, None, f"not UTF-8 text ({e.reason})") from None
    if not raw:
        raise EmptyGraphError(f"{path}: no edges parsed")
    labels = sorted({s for s, _, _ in raw} | {d for _, d, _ in raw}, key=_label_key)
    index = {lab: i for i, lab in enumerate(labels)}
    src = np.array([index[s] for s, _, _ in raw], dtype=np.int64)
    dst = np.array([index[d] for _, d, _ in raw], dtype=np.int64)
    weight = np.array([w for _, _, w in raw], dtype=np.float64)
    loop_free = src != dst
    if not loop_free.any():
        raise EmptyGraphError(f"{path}: only self-loops present")
    src, dst, weight = src[loop_free], dst[loop_free], weight[loop_free]
    keys = pair_keys(src, dst, len(labels))
    _, first_reversed = np.unique(keys[::-1], return_index=True)
    last = len(keys) - 1 - first_reversed
    return SignedWeightedGraph.from_edges(len(labels), src[last], dst[last], weight[last], labels)


_LABELS = ["1", "2", "10", "-3", "0.5", "1e3", "nan", "inf", "alice", "bob smith", "#x", "%x", "é"]
_WEIGHTS = ["1", "-2.5", "0.5", " 3 ", "7e-1", "-10"]
_FAULTY_WEIGHTS = ["0", "-0.0", "nan", "inf", "-inf", "x", "1,5", ""]


def _random_edge_file(rng, csv4):
    """Bytes of a small edge list: mostly valid records, with comments, blank and
    whitespace-only lines, mixed line endings, self-loops, duplicates and, now
    and then, a faulty line."""
    labels = list(rng.choice(_LABELS, size=int(rng.integers(2, 6)), replace=False))
    lines = []
    if csv4 and rng.random() < 0.5:
        lines.append(str(rng.choice(["SOURCE,TARGET,RATING,TIME", "a,b,RATING", "s,d,w"])))
    for _ in range(int(rng.integers(0, 12))):
        u = rng.random()
        if u < 0.1:
            lines.append(str(rng.choice(["# comment", "", "   ", "\t", "#a\tb\t1",
                                         "% asym positive", "%a\tb\t1"])))
            continue
        s, d = rng.choice(labels, size=2)
        fault = rng.random()  # < 0.03: a faulty weight; < 0.05: a wrong field count
        w = str(rng.choice(_FAULTY_WEIGHTS if fault < 0.03 else _WEIGHTS))
        if csv4:
            fields = [s, d, w] + ["1289241911"] * int(rng.integers(0, 2))
            if 0.03 <= fault < 0.05:
                fields = fields[: int(rng.integers(1, 3))]
            lines.append(",".join(fields))
        else:
            sep = str(rng.choice(["\t", "\t", " ", "  ", " \t"]))
            fields = [s, d, w] + ["extra"] * int(0.03 <= fault < 0.05)
            lines.append(sep.join(fields))
        if u > 0.99:
            lines.append("late,header,RATING")
    ends = rng.choice(["\n", "\r\n", "\r"], size=len(lines))
    data = "".join(f"{line}{end}" for line, end in zip(lines, ends)).encode("utf-8")
    if rng.random() < 0.03:
        cut = int(rng.integers(0, len(data) + 1))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def _load_outcome(load, path, fmt, symmetrize):
    try:
        g = load(path, fmt, symmetrize)
    except (GraphParseError, EmptyGraphError) as e:
        return type(e), str(e), getattr(e, "lineno", None)
    return (g.num_nodes, g.node_labels, g.src.tobytes(), g.dst.tobytes(),
            g.weight.tobytes(), g.src.dtype, g.weight.dtype)


def test_load_matches_loop_reference(tmp_path):
    rng = np.random.default_rng(0)
    kinds = set()
    for i in range(600):
        csv4 = i % 2 == 1
        path = tmp_path / f"g{i}.{'csv' if csv4 else 'tsv'}"
        path.write_bytes(_random_edge_file(rng, csv4))
        for symmetrize in (False, True):
            want = _load_outcome(loop_load_edge_list, path, None, symmetrize)
            assert _load_outcome(load_edge_list, path, None, symmetrize) == want, path.read_bytes()
            if len(want) == 3:  # the first word of the message after "path[:lineno]: "
                kinds.add(re.match(rf"{re.escape(str(path))}(:\d+)?: (\S+)", want[1])[2])
            else:
                kinds.add("graph")
    # every error kind and the valid outcome were reached
    assert kinds >= {"graph", "expected", "bad", "non-finite", "zero", "not", "no", "only"}


def test_label_order_does_not_depend_on_input_order():
    # a label that parses to NaN sorts with the non-numeric labels
    labels = ["2", "nan", "10", "alice", "inf"]
    orders = {tuple(sorted(p, key=_label_key)) for p in itertools.permutations(labels)}
    assert orders == {("2", "10", "inf", "alice", "nan")}


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


@pytest.mark.parametrize("labels, bad", [
    (("a\tq", "c"), "a\tq"), (("a", "c\td"), "c\td"), (("a\rq", "c"), "a\rq"),
    ((" a", "c"), " a"), (("a", "c "), "c "), (("", "c"), ""), (("#a", "c"), "#a"),
    (("\ufeffa", "c"), "\ufeffa"), (("%a", "c"), "%a"),
])
def test_save_rejects_a_label_tsv3_cannot_read_back(tmp_path, labels, bad):
    g = SignedWeightedGraph.from_edges(2, [0], [1], [2.0], labels)
    out = tmp_path / "g.tsv"
    with pytest.raises(GraphWriteError, match=re.escape(f"node label {bad!r} cannot be written")):
        save_edge_list(g, out)
    assert not out.exists()


def test_save_keeps_an_empty_or_hash_label_that_never_starts_a_line(tmp_path):
    # a target field may be empty or begin with '#': only a line's first field is at risk
    g = SignedWeightedGraph.from_edges(3, [0, 0], [1, 2], [2.0, -1.0], ("a", "", "#b"))
    out = tmp_path / "g.tsv"
    save_edge_list(g, out)
    g2 = load_edge_list(out, "tsv3")
    assert sorted(g2.node_labels) == sorted(g.node_labels)
    assert g2.num_edges == 2


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
    # unsorted input whose first and last pair are the same, (2, 0)
    with pytest.raises(ValueError, match="duplicate"):
        SignedWeightedGraph.from_edges(3, [2, 0, 1, 1, 2], [0, 1, 2, 0, 0], np.ones(5))


def test_from_edges_keeps_no_view_of_the_callers_arrays():
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    w = np.array([1.0, -1.0, 2.0])
    g = SignedWeightedGraph.from_edges(3, edges[:, 0], edges[:, 1], w)
    edges[0, 0] = 1  # would make edge 0 the self-loop 1 -> 1
    w[:] = 0.0
    assert (g.src.tolist(), g.dst.tolist(), g.weight.tolist()) == ([0, 1, 2], [1, 2, 0],
                                                                    [1.0, -1.0, 2.0])


def test_from_edges_leaves_the_callers_arrays_writable():
    src, dst = np.array([0, 1], dtype=np.int64), np.array([1, 2], dtype=np.int64)
    w = np.array([1.0, -1.0])
    g = SignedWeightedGraph.from_edges(3, src, dst, w)
    assert all(a.flags.writeable for a in (src, dst, w))
    assert not any(a.flags.writeable for a in (g.src, g.dst, g.weight))
    src[0] = 2
    assert g.src.tolist() == [0, 1]


def test_member_matches_isin():
    rng = np.random.default_rng(0)
    for n_keys in (0, 1, 2, 50):
        keys = np.sort(rng.choice(100, size=n_keys, replace=False)).astype(np.int64)
        for x in (np.zeros(0, dtype=np.int64), np.arange(-3, 104), rng.integers(-5, 110, 40)):
            got = _member(x, keys)
            assert got.dtype == bool and got.shape == x.shape
            assert np.array_equal(got, np.isin(x, keys))


@pytest.mark.parametrize("labels", [("a",), ("a", "b"), ("a", "b", "c", "d")])
def test_from_edges_rejects_a_label_count_other_than_0_or_num_nodes(labels):
    with pytest.raises(ValueError, match=f"{len(labels)} node labels for 3 nodes"):
        SignedWeightedGraph.from_edges(3, [0, 1], [1, 2], [1.0, -1.0], labels)
    g = SignedWeightedGraph.from_edges(3, [0, 1], [1, 2], [1.0, -1.0], ("a", "b", "c"))
    assert g.node_labels == ("a", "b", "c")


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


# a subnormal weight, and a range wider than float64 can scale: both round to 0
@pytest.mark.parametrize("weights, scale", [([5e-324, -2.0, 1.0], "2.0"),
                                            ([1e-300, -1e300, 1.0], "1e+300")],
                         ids=["subnormal", "range"])
@pytest.mark.parametrize("mode", ["signed_unit", "unit_abs"])
def test_normalize_rejects_a_weight_that_rounds_to_zero(weights, scale, mode):
    g = SignedWeightedGraph.from_edges(3, [0, 1, 2], [1, 2, 0], weights)
    with pytest.raises(DegenerateTaskError,
                       match=f"^1 of 3 edge weights round to 0 .*, {re.escape(scale)}$"):
        normalize_weights(g, mode)


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


@pytest.mark.parametrize("count", [-1, 2.5, True, np.float64(3.0), "3"])
def test_negative_sampling_rejects_bad_count(count):
    # count=-1 returned 60 pairs and count=2.5 failed inside a slice
    g = SignedWeightedGraph.from_edges(50, range(49), range(1, 50), np.ones(49))
    with pytest.raises(ValueError, match="count"):
        sample_negative_edges(g, count, seed=0)


def test_negative_sampling_takes_numpy_integer_count():
    g = SignedWeightedGraph.from_edges(50, range(49), range(1, 50), np.ones(49))
    assert np.array_equal(sample_negative_edges(g, np.int64(7), seed=0),
                          sample_negative_edges(g, 7, seed=0))


def stream_negatives(g, draws):
    """The admissible distinct pairs of the (rows, 2) ``draws``, in draw order."""
    edges = set(zip(g.src.tolist(), g.dst.tolist()))
    out, seen = [], set()
    for s, d in draws.tolist():
        if s != d and (s, d) not in edges and (s, d) not in seen:
            seen.add((s, d))
            out.append((s, d))
    return out


class RecordingGenerator(np.random.Generator):
    """``default_rng(seed)`` that records the row count of each ``integers`` call."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.rows = []

    def integers(self, low, high=None, size=None, **kwargs):
        self.rows.append(size[0])
        return super().integers(low, high, size=size, **kwargs)


def test_negative_sampling_round_draws_need_plus_an_eighth_plus_64():
    for n, density, count, seed in ((300, 0.05, 3000, 1), (40, 0.4, 400, 2), (30, 0.1, 100, 3)):
        g = random_graph(np.random.default_rng(seed), n, density)
        rng = RecordingGenerator(seed)
        sample_negative_edges(g, count, rng)
        # replay the stream: a round's need is count minus the admissible
        # pairs that the rounds before it drew
        draws = np.random.default_rng(seed).integers(0, n, (sum(rng.rows), 2))
        start = 0
        for rows in rng.rows:
            need = count - len(stream_negatives(g, draws[:start]))
            assert 0 < need and rows <= need + need // 8 + 64
            start += rows


def test_negative_sampling_is_first_admissible_pairs_of_the_stream():
    # however the rounds cut the stream, they read on where the last one
    # stopped, so the result is a prefix of one long draw's admissible pairs
    rng = np.random.default_rng(7)
    for n, density in ((300, 0.01), (120, 0.1), (40, 0.3), (25, 0.5)):
        g = random_graph(rng, n, density)
        capacity = n * n - n - g.num_edges
        for count in (1, 100, capacity // 2):
            seed = int(rng.integers(2**31))
            draws = np.random.default_rng(seed).integers(0, n, (8 * count + 1000, 2))
            expect = stream_negatives(g, draws)[:count]
            assert len(expect) == count
            assert sample_negative_edges(g, count, seed).tolist() == [list(p) for p in expect]


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
        for s, d in rng.integers(0, n, size=(need + need // 8 + 64, 2)).tolist():
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


def test_negative_sampling_matches_loop_reference_on_2000_nodes():
    rng = np.random.default_rng(1)
    src, dst = rng.integers(0, 2000, size=(2, 30000))
    keep = np.unique(pair_keys(src, dst, 2000)[src != dst])
    g = SignedWeightedGraph.from_edges(2000, keep // 2000, keep % 2000, np.ones(len(keep)))
    for count in (1, 20000, 50000):
        got = sample_negative_edges(g, count, count)
        assert np.array_equal(got, loop_sample_negative_edges(g, count, count))


def test_negative_sampling_rounds_keep_their_count_and_read_on():
    # on 20-60 nodes a round's draw often holds just as many admissible pairs
    # as the round needs, or one short, so an off-by-one in how many pairs a
    # round keeps, or in where the next round reads on, shows
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(20, 60))
        m = rng.random((n, n)) < rng.uniform(0.0, 0.3)
        np.fill_diagonal(m, False)
        src, dst = np.nonzero(m)
        g = SignedWeightedGraph.from_edges(n, src, dst, np.ones(len(src)))
        count, seed = int(rng.integers(1, (n * n - n - len(src)) // 3)), int(rng.integers(2**30))
        assert np.array_equal(sample_negative_edges(g, count, seed),
                              loop_sample_negative_edges(g, count, seed))


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
