import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wsgat
from wsgat import cli
from wsgat.cli import main, parse_config
from wsgat.errors import ConfigError
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


def test_ingest_of_a_label_with_a_tab_exits_2_and_writes_nothing(tmp_path, capsys):
    p = tmp_path / "g.csv"
    p.write_text("a\tq,c,2,0\n")
    out = tmp_path / "o"
    assert main(["ingest", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "'a\\tq'" in err
    assert not (out / "g.tsv").exists()


def test_ingest_of_an_unwritable_label_makes_no_directory(tmp_path, capsys):
    # symmetrized, the empty target label would start a line of the tsv3 file
    p = tmp_path / "raw.csv"
    p.write_text("a,,2,0\n")
    out = tmp_path / "newdir"
    assert main(["ingest", str(p), "--symmetrize", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "''" in err
    assert not out.exists()


def test_ingest_picks_csv4_for_a_csv_file(tmp_path, capsys):
    # the SNAP file name of bitcoin-alpha, with its header line, and no --format
    p = tmp_path / "soc-sign-bitcoinalpha.csv"
    p.write_text("SOURCE,TARGET,RATING,TIME\n7188,1,10,1407470400\n430,1,-3,1376539200\n"
                 "3134,1,10,1369713600\n")
    out = tmp_path / "data"
    assert main(["ingest", str(p), "--name", "bitcoin-alpha", "--out", str(out)]) == 0
    assert "3 edges" in capsys.readouterr().out
    assert (out / "bitcoin-alpha.tsv").exists()
    upper = p.rename(tmp_path / "SOC-SIGN-BITCOINALPHA.CSV")  # the suffix in any case
    assert main(["ingest", str(upper), "--out", str(out)]) == 0
    assert "3 edges" in capsys.readouterr().out
    assert (out / "SOC-SIGN-BITCOINALPHA.tsv").exists()


def test_ingest_skips_the_percent_comment_lines_of_a_konect_file(tmp_path, capsys):
    # KONECT's out.* edge lists (advogato, paper Table 3) open with '%' lines
    p = tmp_path / "out.advogato"
    p.write_text("% asym positive\n% 4 3 3\n1 2 0.8\n2 3 0.6\n3 1 1.0\n1 3 0.4\n")
    out = tmp_path / "data"
    assert main(["ingest", str(p), "--name", "advogato", "--out", str(out)]) == 0
    assert "4 edges" in capsys.readouterr().out
    assert (out / "advogato.tsv").read_text() == "1\t2\t0.8\n1\t3\t0.4\n2\t3\t0.6\n3\t1\t1.0\n"


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


@pytest.mark.parametrize("task", ["sign", "weight"])
@pytest.mark.parametrize("tiny", ["5e-324", "1e-300"], ids=["subnormal", "range"])
def test_a_weight_that_rounds_to_zero_exits_3_with_one_line(tmp_path, tiny_cfg, capsys,
                                                            task, tiny):
    # 5e-324 next to -2, and 1e-300 next to -1e300, are 0 once divided by max |w|
    big = "-2" if tiny == "5e-324" else "-1e300"
    p = tmp_path / "tiny.tsv"
    p.write_text(f"0\t1\t{tiny}\n1\t2\t{big}\n2\t0\t1\n1\t0\t1\n0\t2\t-1\n2\t1\t1\n")
    assert main(["train", task, str(p), "--config", tiny_cfg,
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: 1 of 6 edge weights round to 0")
    assert len(err.strip().splitlines()) == 1 and "np.float64" not in err


def test_reproduce_missing_dataset_message(tmp_path, capsys):
    rc = main(["reproduce", "4", "--data", str(tmp_path), "--seeds", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bitcoin-alpha.tsv" in err and "bitcoin-otc.tsv" in err and "wsgat ingest" in err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["train", "reproduce"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_an_out_that_cannot_be_a_directory_exits_2_before_training(
        toy_tsv, table4_data, tiny_cfg, tmp_path, monkeypatch, capsys, command, below):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if below else afile

    def no_training(*args, **kwargs):
        pytest.fail("train was called although --out cannot be made")

    monkeypatch.setattr(cli, "train", no_training)
    argv = (["train", "sign", toy_tsv] if command == "train"
            else ["reproduce", "4", "--data", str(table4_data), "--seeds", "1"])
    assert main(argv + ["--config", tiny_cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(afile) in err
    assert len(err.strip().splitlines()) == 1
    assert afile.read_text() == "kept\n"


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


def test_parity_digests_repeat_within_one_process(capsys):
    from wsgat import autodiff, verify
    cases = [("tiny", "sign", random_graph(np.random.default_rng(4), 12, 0.35),
              TrainConfig(layers=1, hidden=4, embed=4, heads=2, attention_hidden=4,
                          head_hidden=5, feature_dim=3, epochs=3))]
    overall = verify.parity(cases)
    assert verify.parity(cases) == overall
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == lines[3:] and lines[2] == f"overall {overall[:16]}"
    assert [line.split()[:2] for line in lines[:2]] == [["chunk_rows=8192", "tiny"],
                                                       ["chunk_rows=37", "tiny"]]
    assert autodiff._CHUNK_ROWS == 8192


@pytest.mark.parametrize("argv", [[], ["metrics"], ["parity", "parity"]])
def test_verify_module_usage_error_exits_2(argv):
    # exit 1 is reserved for a closed standard output
    env = dict(os.environ, PYTHONPATH=str(Path(wsgat.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wsgat.verify", *argv], capture_output=True,
                          timeout=120, env=env)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"usage: python -m wsgat.verify parity\n"


@pytest.mark.parametrize("op", ["matmul", "linear", "gather_sum", "propagate", "recompute",
                                "chunked"])
def test_verify_gradcheck_fault_injection(monkeypatch, op):
    import wsgat.autodiff as ad
    from wsgat import verify
    correct = getattr(ad, op)

    def wrong_backward(*args, **kwargs):
        out = correct(*args, **kwargs)
        backward = out._backward
        out._backward = lambda g: backward(2.0 * g)
        return out

    monkeypatch.setattr(ad, op, wrong_backward)
    failures = verify._gradcheck_ops()  # the model checks take seconds and see the ops too
    assert ("autodiff", f"gradcheck:{op}") in [(m, prop) for m, prop, _ in failures]


def test_verify_gradcheck_catches_an_activation_derivative_that_drops_g(monkeypatch):
    """The gradient reaching an elementwise op in the checks is not all ones,
    so a derivative that ignores g is reported under the op's own name."""
    import wsgat.autodiff as ad
    from wsgat import verify
    forward, grad = ad._ACTIVATIONS["elu"]
    monkeypatch.setitem(ad._ACTIVATIONS, "elu",
                        (forward, lambda g, out, saved: grad(np.ones_like(g), out, saved)))
    failures = verify._gradcheck_ops()
    assert ("autodiff", "gradcheck:elu") in [(m, prop) for m, prop, _ in failures]


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


def test_parse_config_ignores_a_leading_bom(tmp_path):
    # Notepad and Excel start a UTF-8 file with U+FEFF, which is no part of the first key
    p = tmp_path / "c.cfg"
    p.write_text("\ufeffepochs = 3\nlr = 0.01\n", encoding="utf-8")
    cfg = parse_config(str(p))
    assert (cfg.epochs, cfg.lr) == (3, 0.01)


def test_parse_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("nonsense = 1\n")
    with pytest.raises(ValueError):
        parse_config(str(p))


def test_parse_config_names_a_repeated_key_and_both_lines(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("epochs = 3\n# a comment\nlr = 0.01\nepochs = 5\n")
    with pytest.raises(ConfigError, match="epochs given twice, on lines 1 and 4"):
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
                                  "layers = 0\nheads = 0", "layers = 0\nactivation = relu",
                                  "epochs = 3\nepochs = 5"])
def test_train_config_error_exit_code(toy_tsv, tmp_path, capsys, line):
    p = tmp_path / "bad.cfg"
    p.write_text(line + "\n")
    assert main(["train", "sign", toy_tsv, "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("line", ["val_fraction = 1.0", "activation = relu", "features = see"])
def test_config_is_checked_before_the_graph_is_read(tmp_path, capsys, line):
    p = tmp_path / "bad.cfg"
    p.write_text(line + "\n")
    assert main(["train", "sign", str(tmp_path / "missing.tsv"), "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and "missing.tsv" not in err


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


def test_out_of_memory_exits_8_with_one_line(toy_tsv, tiny_cfg, tmp_path, monkeypatch, capsys):
    message = ("Unable to allocate 5.55 GiB for an array with shape (1211575, 100) "
               "and data type float64")

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "train", out_of_memory)
    assert main(["train", "sign", toy_tsv, "--config", tiny_cfg,
                 "--out", str(tmp_path / "o")]) == 8
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
