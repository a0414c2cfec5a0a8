import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wsgat
from wsgat.cli import main, parse_config
from wsgat.graph import save_edge_list
from wsgat.pipelines import TrainConfig

from wsgat.verify import random_graph


@pytest.fixture
def toy_tsv(tmp_path):
    g = random_graph(np.random.default_rng(9), 12, 0.35)
    p = tmp_path / "toy.tsv"
    save_edge_list(g, p)
    return str(p)


@pytest.fixture
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(
        "# tiny run\n"
        "layers = 1\nhidden = 8\nembed = 8\nattention_hidden = 8\n"
        "head_hidden = 16\nfeature_dim = 6\nlr = 0.02\nepochs = 10\npatience = 10\n"
    )
    return str(p)


@pytest.fixture
def table4_data(tmp_path):
    # stand-in files named like the table-4 datasets
    data = tmp_path / "data"
    data.mkdir()
    for name, seed in (("bitcoin-alpha", 1), ("bitcoin-otc", 2)):
        save_edge_list(random_graph(np.random.default_rng(seed), 12, 0.35), data / f"{name}.tsv")
    return data


def test_ingest_stats_line(toy_tsv, tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["ingest", toy_tsv, "--format", "tsv3", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "nodes" in captured and "% positive" in captured
    assert (out / "toy.tsv").exists()


def test_ingest_idempotent(toy_tsv, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    main(["ingest", toy_tsv, "--out", str(out1)])
    main(["ingest", toy_tsv, "--out", str(out2)])
    assert (out1 / "toy.tsv").read_bytes() == (out2 / "toy.tsv").read_bytes()


def test_ingest_empty_file_exit_code(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("# nothing\n")
    assert main(["ingest", str(p), "--out", str(tmp_path / "o")]) == 2


def test_ingest_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.tsv"
    p.write_text("a\tb\tnot_a_number\n")
    assert main(["ingest", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "bad.tsv:1" in capsys.readouterr().err


def test_ingest_picks_csv4_for_a_csv_file(tmp_path, capsys):
    # the SNAP file name of bitcoin-alpha, with its header line, and no --format
    p = tmp_path / "soc-sign-bitcoinalpha.csv"
    p.write_text("SOURCE,TARGET,RATING,TIME\n7188,1,10,1407470400\n430,1,-3,1376539200\n"
                 "3134,1,10,1369713600\n")
    out = tmp_path / "data"
    assert main(["ingest", str(p), "--name", "bitcoin-alpha", "--out", str(out)]) == 0
    assert "3 edges" in capsys.readouterr().out
    assert (out / "bitcoin-alpha.tsv").exists()


def test_train_picks_csv4_for_a_csv_file(tmp_path, tiny_cfg, capsys):
    # the same suffix rule as ingest: a SNAP-style file with a header, no --format
    g = random_graph(np.random.default_rng(9), 12, 0.35)
    p = tmp_path / "g.csv"
    p.write_text("SOURCE,TARGET,RATING,TIME\n" + "".join(
        f"{s},{d},{float(w)!r},0\n" for s, d, w in zip(g.src, g.dst, g.weight)))
    out = tmp_path / "runs"
    assert main(["train", "sign", str(p), "--config", tiny_cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("sign g seed=0: auc=")
    assert (out / "g_sign_seed0.ckpt").exists()


@pytest.mark.parametrize("graph", ["missing.tsv", "somedir.tsv", "bin.tsv"])
def test_unreadable_graph_exits_2_with_one_line(tmp_path, tiny_cfg, capsys, graph):
    (tmp_path / "somedir.tsv").mkdir()
    (tmp_path / "bin.tsv").write_bytes(b"1\t2\t1.0\n\xff\xfe\t3\t-1.0\n")
    path = str(tmp_path / graph)
    assert main(["train", "sign", path, "--config", tiny_cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert path in err and "Traceback" not in err


def test_config_that_is_not_utf8_exits_2_with_one_line(toy_tsv, tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_bytes(b"epochs = 3\n# caf\xe9\n")
    assert main(["train", "sign", toy_tsv, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: not UTF-8") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [["train", "sign", "g.tsv", "--seed", "-1"],
                                  ["reproduce", "4", "--seeds", "0"],
                                  ["reproduce", "4", "--seeds", "-2"]])
def test_out_of_range_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "must be >= " in capsys.readouterr().err


def test_train_writes_checkpoint_and_reports(toy_tsv, tiny_cfg, tmp_path, capsys):
    out = tmp_path / "runs"
    rc = main(["train", "signed-weight", toy_tsv, "--config", tiny_cfg,
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "toy_signed-weight_seed1.ckpt").exists()
    with open(out / "reports.jsonl") as f:
        rec = json.loads(f.readline())
    assert rec["task"] == "signed-weight"
    assert "auc" in rec and "f1" in rec and "mae" in rec
    csv_lines = (out / "reports.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "task,dataset,seed,auc,f1,mae"
    assert len(csv_lines) == 2


def _run_with_closed_stdout(argv, unbuffered):
    """Run the CLI in a subprocess whose stdout reader is gone before the first write."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(Path(wsgat.__file__).parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "wsgat.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, timeout=120, env=env)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_train_with_closed_stdout_exits_1_without_traceback(toy_tsv, tiny_cfg, tmp_path,
                                                            unbuffered):
    # buffered, the closed pipe fails at the final flush; unbuffered, at the print
    out = tmp_path / "runs"
    proc = _run_with_closed_stdout(["train", "signed-weight", toy_tsv, "--config", tiny_cfg,
                                    "--seed", "1", "--out", str(out)], unbuffered)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert (out / "toy_signed-weight_seed1.ckpt").exists()


def test_reproduce_with_closed_stdout_writes_the_whole_table(table4_data, tiny_cfg, tmp_path):
    # unbuffered, the first print fails at once: every dataset must be trained
    # and the table written before it
    out = tmp_path / "o"
    proc = _run_with_closed_stdout(["reproduce", "4", "--data", str(table4_data), "--seeds",
                                    "1", "--config", tiny_cfg, "--out", str(out)],
                                   unbuffered=True)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    rows = (out / "table4.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["bitcoin-alpha", "bitcoin-otc"]


def test_train_deterministic_reports(toy_tsv, tiny_cfg, tmp_path):
    o1, o2 = tmp_path / "r1", tmp_path / "r2"
    main(["train", "weight", toy_tsv, "--config", tiny_cfg, "--seed", "3", "--out", str(o1)])
    main(["train", "weight", toy_tsv, "--config", tiny_cfg, "--seed", "3", "--out", str(o2)])
    r1 = json.loads((o1 / "reports.jsonl").read_text())
    r2 = json.loads((o2 / "reports.jsonl").read_text())
    for k in ("auc", "f1", "mae"):
        assert r1[k] == r2[k]


def test_sign_task_on_all_positive_graph_exit_code(tmp_path, tiny_cfg):
    p = tmp_path / "pos.tsv"
    p.write_text("".join(f"{i}\t{i+1}\t1.0\n" for i in range(8)))
    assert main(["train", "sign", str(p), "--config", tiny_cfg,
                 "--out", str(tmp_path / "o")]) == 3


def test_reproduce_missing_dataset_message(tmp_path, capsys):
    rc = main(["reproduce", "4", "--data", str(tmp_path), "--seeds", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bitcoin-alpha.tsv" in err and "bitcoin-otc.tsv" in err and "wsgat ingest" in err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_reproduce_on_toy_datasets(table4_data, tmp_path, tiny_cfg, capsys):
    rc = main(["reproduce", "4", "--data", str(table4_data), "--seeds", "1",
               "--config", tiny_cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = (tmp_path / "o" / "table4.csv").read_text().strip().splitlines()
    assert lines[0].startswith("dataset,auc_mean,auc_std")
    assert len(lines) == 3
    # seeds=1 -> zero std
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[2]) == 0.0


def test_reproduce_sign_table_reads_nan_for_mae(tmp_path, tiny_cfg, capsys):
    # the sign table has no MAE; under filterwarnings = error a numpy
    # empty-slice warning would fail the run
    data = tmp_path / "data"
    data.mkdir()
    for name, seed in (("bitcoin-alpha", 1), ("bitcoin-otc", 2), ("epinions", 3)):
        save_edge_list(random_graph(np.random.default_rng(seed), 18, 0.35), data / f"{name}.tsv")
    rc = main(["reproduce", "2", "--data", str(data), "--seeds", "2",
               "--config", tiny_cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "o" / "table2.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[5:] == ["nan", "nan"] and "nan" not in fields[1:5]


def test_verify_metrics_suite(capsys):
    assert main(["verify", "metrics"]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_oracle_suite():
    assert main(["verify", "oracle"]) == 0


def test_verify_gradcheck_fault_injection(monkeypatch):
    import wsgat.autodiff as ad
    from wsgat import verify
    matmul = ad.matmul

    def matmul_wrong_backward(a, b):
        out = matmul(a, b)
        backward = out._backward
        out._backward = lambda g, o: backward(2.0 * g, o)
        return out

    monkeypatch.setattr(ad, "matmul", matmul_wrong_backward)
    failures = verify.run_suite("gradcheck")
    assert ("autodiff", "gradcheck:matmul") in [(m, prop) for m, prop, _ in failures]


def test_oracle_suite_covers_registered_properties():
    from wsgat import verify
    import inspect
    source = inspect.getsource(verify._suite_oracle) + inspect.getsource(verify._suite_gradcheck)
    for prop in verify.ORACLE_PROPERTIES:
        if prop.startswith("gradcheck"):
            continue
        assert prop in source, f"oracle suite does not exercise {prop}"


def test_parse_config_values(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("layers = 3\nlr = 0.005\nprojection = false\nfeatures = sse\n")
    cfg = parse_config(str(p))
    assert cfg.layers == 3
    assert cfg.lr == 0.005
    assert cfg.projection is False
    assert cfg.features == "sse"
    # untouched keys keep defaults
    assert cfg.heads == TrainConfig().heads


def test_parse_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("nonsense = 1\n")
    with pytest.raises(ValueError):
        parse_config(str(p))


@pytest.mark.parametrize("line", ["nonsense = 1", "epochs = 1.5", "projection = flase",
                                  "lr = fast", "epochs", "features = bogus",
                                  "activation = relu", "train_fraction = 1.5", "heads = 0",
                                  "feature_dim = 0", "val_fraction = 1.0", "head_hidden = 0",
                                  "epochs = 0", "hidden = 0", "embed = 0",
                                  "attention_hidden = 0", "head_layers = 0", "patience = 0",
                                  "lr = -1", "lr = 0", "lr = nan", "layers = -1",
                                  "lambda_weight = -1", "sse_dim = 0",
                                  "self_loop_weight = nan", "self_loop_weight = inf",
                                  "lambda_weight = inf", "lr = inf",
                                  "layers = 0\nheads = 0", "layers = 0\nactivation = relu"])
def test_train_config_error_exit_code(toy_tsv, tmp_path, capsys, line):
    p = tmp_path / "bad.cfg"
    p.write_text(line + "\n")
    assert main(["train", "sign", toy_tsv, "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_undefined_metric_exit_code(tmp_path, tiny_cfg, capsys):
    # one negative edge among 20: at seed 0 it lands in training, so the test
    # split holds positive edges only and sign AUC is undefined
    p = tmp_path / "one_neg.tsv"
    p.write_text("".join(f"{i}\t{(i + 1) % 20}\t{-1.0 if i == 0 else 1.0}\n" for i in range(20)))
    assert main(["train", "sign", str(p), "--config", tiny_cfg,
                 "--out", str(tmp_path / "o")]) == 3
    assert "ROC AUC needs both classes" in capsys.readouterr().err


def test_sampling_exhausted_exit_code(tmp_path, tiny_cfg):
    # complete digraph on three nodes: no non-edge to sample
    p = tmp_path / "complete.tsv"
    p.write_text("".join(f"{i}\t{j}\t{1.0 if i < j else -1.0}\n"
                         for i in range(3) for j in range(3) if i != j))
    assert main(["train", "sign", str(p), "--config", tiny_cfg,
                 "--out", str(tmp_path / "o")]) == 6
