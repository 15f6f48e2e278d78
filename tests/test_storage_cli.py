"""Config parsing, checkpoint/manifest formats, and the command-line surface."""

import json

import numpy as np
import pytest

from fedhin import (
    ExperimentConfig,
    load_checkpoint,
    params_from_checkpoint,
    parse_config,
    read_jsonl,
    save_checkpoint,
    shape_manifest,
)
from fedhin.cli import main
from fedhin.config import ConfigError
from fedhin.model import ModelDims, init_params
from fedhin.storage import StorageError, dataset_fingerprint, export_embeddings


def random_params(seed=0, n=6, m=2, d=3, k=2, labels=3):
    dims = ModelDims(n_targets=n, n_paths=m, embedding_dim=d, preference_dim=k, n_labels=labels)
    return init_params(dims, np.random.default_rng(seed))


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("")
        cfg = parse_config(path)
        assert cfg == ExperimentConfig()
        assert cfg.embedding_dim == 128
        assert cfg.learning_rate == 0.001
        assert cfg.clients == 3

    def test_grid_corner(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"local_epochs": 5, "batch_size": 64}))
        cfg = parse_config(path)
        assert cfg.local_epochs == 5
        assert cfg.batch_size == 64

    def test_negative_staleness_exponent_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"staleness_exponent": -1.0}))
        with pytest.raises(ConfigError, match="staleness_exponent"):
            parse_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learning_rte": 0.01}))
        with pytest.raises(ConfigError, match="learning_rte"):
            parse_config(path)

    def test_out_of_range_values_report_bounds(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"train_fraction": 1.5}))
        with pytest.raises(ConfigError, match=r"\(0, 1\)"):
            parse_config(path)

    def test_speed_multiplier_length_checked(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"clients": 3, "speed_multipliers": [1, 2]}))
        with pytest.raises(ConfigError, match="speed_multipliers"):
            parse_config(path)


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        params = random_params(seed=3)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params)
        restored = params_from_checkpoint(path)
        for (name, a), (_, b) in zip(params.tensor_items(), restored.tensor_items()):
            assert a.tobytes() == b.tobytes(), name

    def test_truncated_file_rejected(self, tmp_path):
        params = random_params()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(StorageError):
            load_checkpoint(path)

    def test_manifest_mismatch_rejected(self, tmp_path):
        params = random_params()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params)
        other = shape_manifest(random_params(n=9, d=4))
        with pytest.raises(StorageError, match="manifest mismatch"):
            load_checkpoint(path, expected_manifest=other)

    def test_non_finite_values_refused(self, tmp_path):
        params = random_params()
        params.wp[0, 0] = np.inf
        with pytest.raises(StorageError, match="non-finite"):
            save_checkpoint(tmp_path / "ckpt.npz", params)

    def test_resume_continues_identically(self, tmp_path):
        from conftest import toy_coauthor_graph
        from fedhin import AttentionModel, MetaPathSpec, metapath_adjacency

        g = toy_coauthor_graph()
        adj = metapath_adjacency(g, MetaPathSpec.from_string("APA"))
        model = AttentionModel([adj], n_labels=2, embedding_dim=3, preference_dim=2, sample_size=None)
        params = init_params(model.dims, np.random.default_rng(0))
        labels = g.labels[g.nodes_of_type("author")]

        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params)
        restored = params_from_checkpoint(path)
        loss_a, _ = model.loss(params, [0, 1], labels)
        loss_b, _ = model.loss(restored, [0, 1], labels)
        assert loss_a == loss_b


class TestExportsAndFingerprints:
    def test_embedding_export_format(self, tmp_path):
        path = tmp_path / "emb.csv"
        export_embeddings(path, [10, 11], np.array([[1.0, 2.0], [3.0, 4.5]]))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "node_id,e_1,e_2"
        assert lines[1] == "10,1.0,2.0"
        assert len(lines) == 3

    def test_fingerprint_changes_with_content(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("x")
        b.write_text("y")
        f1 = dataset_fingerprint([a, b])
        b.write_text("z")
        assert dataset_fingerprint([a, b]) != f1


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main([
        "generate", "--out", str(out), "--authors", "60", "--papers", "150",
        "--venues", "6", "--classes", "3", "--p-in", "0.15", "--p-out", "0.02",
        "--seed", "4",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def train_run(dataset_dir, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("run")
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps({
        "clients": 2, "rounds": 3, "local_epochs": 1, "batch_size": 64,
        "embedding_dim": 6, "preference_dim": 3, "metapaths": ["APA", "APPA"],
        "seed": 1,
    }))
    code = main([
        "train", "--data", str(dataset_dir), "--config", str(config_path),
        "--out", str(run_dir / "out"),
    ])
    assert code == 0
    return dataset_dir, run_dir / "out", config_path


class TestCli:
    def test_generate_writes_dataset(self, dataset_dir):
        assert (dataset_dir / "nodes.csv").exists()
        assert (dataset_dir / "edges.csv").exists()
        schema = json.loads((dataset_dir / "schema.json").read_text())
        assert schema["target_type"] == "author"

    def test_partition_command(self, dataset_dir, tmp_path):
        out = tmp_path / "partition.json"
        assert main(["partition", "--data", str(dataset_dir), "--out", str(out), "--clients", "3"]) == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 3
        combined = [n for nodes in doc.values() for n in nodes]
        assert len(combined) == len(set(combined)) == 60

    def test_train_outputs_complete_run_directory(self, train_run):
        _, out_dir, _ = train_run
        for name in ("manifest.json", "config.json", "metrics.jsonl", "decisions.jsonl", "checkpoint.npz"):
            assert (out_dir / name).exists(), name
        metrics = read_jsonl(out_dir / "metrics.jsonl")
        assert [m["round"] for m in metrics] == [0, 1, 2, 3]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["dataset_fingerprint"]
        assert manifest["seed"] == 1

    def test_manifest_replay_reproduces_metrics_bit_for_bit(self, train_run, tmp_path):
        _, out_dir, _ = train_run
        replay_dir = tmp_path / "replay"
        code = main(["train", "--manifest", str(out_dir / "manifest.json"), "--out", str(replay_dir)])
        assert code == 0
        original = (out_dir / "metrics.jsonl").read_bytes()
        replayed = (replay_dir / "metrics.jsonl").read_bytes()
        assert original == replayed

    def test_eval_command_prints_scores(self, train_run, capsys):
        dataset_dir, out_dir, config_path = train_run
        code = main([
            "eval", "--data", str(dataset_dir), "--checkpoint", str(out_dir / "checkpoint.npz"),
            "--config", str(config_path),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(payload) == {"micro_f1", "macro_f1", "n_test"}
        assert payload["n_test"] > 0

    def test_export_embeddings_command(self, train_run, tmp_path, capsys):
        dataset_dir, out_dir, config_path = train_run
        out = tmp_path / "embeddings.csv"
        code = main([
            "export-embeddings", "--data", str(dataset_dir),
            "--checkpoint", str(out_dir / "checkpoint.npz"),
            "--config", str(config_path), "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 61  # header + one row per author
        assert lines[0].startswith("node_id,e_1")

    def test_aggregate_demo(self, tmp_path, capsys):
        records = tmp_path / "records.json"
        records.write_text(json.dumps({
            "alpha": 1.0,
            "records": [
                {"client": 0, "version": 5, "weights": [1.0, 1.0]},
                {"client": 1, "version": 3, "weights": [5.0, 5.0]},
            ],
        }))
        assert main(["aggregate-demo", "--records", str(records)]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["coefficients"] == [0.75, 0.25]
        assert payload["aggregate"] == [2.0, 2.0]
        assert payload["max_version_gap"] == 2

    def test_failure_prints_machine_readable_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": 1}))
        code = main(["train", "--data", str(tmp_path), "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "nope" in err["message"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_prints_machine_readable_error(self, dataset_dir, tmp_path, capsys):
        # a learning rate this large overflows the weights within a few steps
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "clients": 2, "rounds": 3, "batch_size": 16, "embedding_dim": 6,
            "preference_dim": 3, "learning_rate": 1e300, "seed": 1,
        }))
        out = tmp_path / "out"
        code = main([
            "train", "--data", str(dataset_dir), "--config", str(config_path), "--out", str(out),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "TrainingDiverged"
        assert list(out.glob("diverged_round*.npz"))
