"""Config parsing, checkpoint/manifest formats, and the command-line surface."""

import contextlib
import hashlib
import io
import json
import re
import shutil
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedhin import (
    ExperimentConfig,
    params_from_checkpoint,
    parse_config,
    save_checkpoint,
    shape_manifest,
)
from fedhin.cli import _dataset_files, _load_dataset, main
from fedhin.config import ConfigError
from fedhin.model import ModelDims, init_params
from fedhin.simulation import build_experiment, client_partition, run_experiment
from fedhin.storage import StorageError, dataset_fingerprint, export_embeddings


def random_params(seed=0, n=6, m=2, d=3, k=2, labels=3):
    dims = ModelDims(n_targets=n, n_paths=m, embedding_dim=d, preference_dim=k, n_labels=labels)
    return init_params(dims, np.random.default_rng(seed))


# any value json.loads can return (NaN and infinities included)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def with_bad_pref(path, pref) -> None:
    """Rewrite the checkpoint at ``path`` with ``pref`` as its preference matrix."""
    with np.load(path) as archive:
        arrays = dict(archive)
    np.savez(path, **{**arrays, "pref": pref})


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

    def test_infinite_staleness_exponent_rejected_in_python(self):
        # JSON has no infinity, so only a config built in Python can hold one
        with pytest.raises(ConfigError, match="staleness_exponent must be finite"):
            ExperimentConfig(staleness_exponent=float("inf"))

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

    @pytest.mark.parametrize("field, allowed", [
        ("aggregator", "'staleness' or 'fedavg' or 'ema'"),
        ("granularity", "'round' or 'batch'"),
        ("partition_strategy", "'uniform' or 'label_skew'"),
    ])
    def test_bad_choice_names_the_field_and_its_values(self, tmp_path, field, allowed):
        message = re.escape(f"{field} must be {allowed}, got 'bogus'")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({field: "bogus"}))
        with pytest.raises(ConfigError, match=message):
            parse_config(path)
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**{field: "bogus"})

    @given(field=st.sampled_from(sorted(asdict(ExperimentConfig()))), value=JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_gives_a_config_or_config_error(self, field, value):
        raw = {**json.loads(json.dumps(asdict(ExperimentConfig()))), field: value}
        try:
            cfg = ExperimentConfig.from_dict(raw)
        except ConfigError as exc:
            assert field in str(exc)
        else:
            assert ExperimentConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


def with_transform_major_layout(path) -> None:
    """Rewrite the checkpoint at ``path`` the way earlier versions wrote it:
    each transform as its (d, N) transpose, and no layout key."""
    with np.load(path) as archive:
        arrays = dict(archive)
    manifest = json.loads(bytes(arrays["manifest"]).decode())
    blocks, start = [], 0
    for entry in manifest:
        size = int(np.prod(entry["shape"]))
        block = arrays["flat"][start : start + size]
        start += size
        if entry.pop("layout", None) == "node-major":
            n, d = entry["shape"]
            block = block.reshape(n, d).T.ravel()
            entry["shape"] = [d, n]
        blocks.append(block)
    arrays["flat"] = np.concatenate(blocks)
    arrays["manifest"] = np.frombuffer(json.dumps(manifest, sort_keys=True).encode(), np.uint8)
    np.savez(path, **arrays)


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        params = random_params(seed=3)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params)
        restored = params_from_checkpoint(path)
        for (name, a), (_, b) in zip(params.tensor_items(), restored.tensor_items()):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("name", ["m.ckpt", "m"])
    @pytest.mark.parametrize("kind", [str, Path], ids=["str", "Path"])
    def test_written_to_exactly_the_path_given(self, tmp_path, name, kind):
        # np.savez appends ".npz" to a path that lacks it, but not to a handle
        params = random_params(seed=5)
        save_checkpoint(kind(tmp_path / name), params)
        save_checkpoint(tmp_path / "reference.npz", params)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, "reference.npz"])
        assert (tmp_path / name).read_bytes() == (tmp_path / "reference.npz").read_bytes()
        restored = params_from_checkpoint(kind(tmp_path / name))
        assert restored.buffer.tobytes() == params.buffer.tobytes()

    def test_truncated_file_rejected(self, tmp_path):
        params = random_params()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(StorageError):
            params_from_checkpoint(path)

    def test_manifest_mismatch_rejected(self, tmp_path):
        params = random_params()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params)
        other = shape_manifest(random_params(n=9, d=4))
        with pytest.raises(StorageError, match="manifest mismatch"):
            params_from_checkpoint(path, expected_manifest=other)

    def test_wrong_pref_shape_rejected(self, tmp_path):
        # the manifest of N=6 targets and k=2 implies a (6, 2) preference matrix
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, random_params(n=6, k=2))
        with_bad_pref(path, np.zeros((5, 7)))
        with pytest.raises(StorageError, match=r"preference matrix has shape \(5, 7\)"):
            params_from_checkpoint(path)

    @pytest.mark.parametrize("n, d", [(6, 3), (4, 4)], ids=["d-not-N", "d-equals-N"])
    def test_transforms_stored_node_major(self, tmp_path, n, d):
        params = random_params(n=n, d=d)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params)
        with np.load(path) as archive:
            manifest = json.loads(bytes(archive["manifest"]).decode())
            flat = archive["flat"]
        for p in range(2):
            assert manifest[p] == {"name": f"wt_{p}", "shape": [n, d], "layout": "node-major"}
            assert flat[p * n * d : (p + 1) * n * d].tobytes() == params.wt[p].tobytes()

    @pytest.mark.parametrize("n, d", [(6, 3), (4, 4)], ids=["d-not-N", "d-equals-N"])
    def test_transform_major_checkpoint_refused(self, tmp_path, n, d):
        # with d == N the older layout's shapes are the new ones; the key tells them apart
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, random_params(n=n, d=d))
        with_transform_major_layout(path)
        with pytest.raises(StorageError, match="no model parameter layout"):
            params_from_checkpoint(path)

    @pytest.mark.parametrize(
        "name, dtype",
        [("flat", np.complex128), ("flat", np.bool_), ("flat", "<U32"), ("pref", np.int8)],
        ids=["flat-complex", "flat-bool", "flat-numerals", "pref-int8"],
    )
    def test_array_of_another_dtype_refused(self, tmp_path, name, dtype):
        # np.asarray(..., dtype=np.float64) would convert each of these
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, random_params())
        with np.load(path) as archive:
            arrays = dict(archive)
        np.savez(path, **{**arrays, name: arrays[name].astype(dtype)})
        with pytest.raises(StorageError, match=f"{name} holds .* values, not float64"):
            params_from_checkpoint(path)

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
        loss_a = model.forward(params, [0, 1], labels=labels).total_loss
        loss_b = model.forward(restored, [0, 1], labels=labels).total_loss
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

    def test_fingerprint_of_a_file_read_in_chunks_hashes_its_whole_bytes(self, tmp_path):
        # 2.5 MiB spans three reads of the hash's chunk; the digest is the one
        # manifests already record: each name, then the file's bytes, by name
        data = np.random.default_rng(0).bytes(5 * (1 << 19))
        (tmp_path / "edges.csv").write_bytes(data)
        (tmp_path / "nodes.csv").write_bytes(b"id\n")
        expected = hashlib.sha256(b"edges.csv" + data + b"nodes.csv" + b"id\n").hexdigest()
        assert dataset_fingerprint([tmp_path / "nodes.csv", tmp_path / "edges.csv"]) == expected


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
    return dataset_dir, run_dir / "out"


# a dataset small enough to load, for failures after the data is read
TINY_DATASET = {
    "schema.json": json.dumps({"triples": [["author", "writes", "paper"]], "target_type": "author"}),
    "nodes.csv": "id,type,label\n0,author,0\n1,paper,\n",
    "edges.csv": "src,dst,relation\n0,1,writes\n",
}
_ONE_CLIENT = json.dumps({"clients": 1})  # a config TINY_DATASET's one labeled node can split


def _config_case(field, value) -> pytest.param:
    """A train run whose config sets ``field`` to ``value``, which must be refused."""
    return pytest.param(
        {"bad.json": json.dumps({field: value})},
        ["train", "--data", "{tmp}", "--config", "{tmp}/bad.json", "--out", "{tmp}/o"],
        "ConfigError", field, id=f"config-{field}-{json.dumps(value)}",
    )


def _generated_dataset(classes):
    """A callable that generates a 30-author dataset of ``classes`` label classes at its path."""
    def dataset(path) -> None:
        assert main(["generate", "--out", str(path), "--authors", "30", "--papers", "60",
                     "--venues", "3", "--classes", str(classes)]) == 0

    return dataset


def _model_case(embedding_dim) -> pytest.param:
    """A train run on a generated dataset whose model is too large to allocate."""
    return pytest.param(
        {"data": _generated_dataset(2),
         "big.json": json.dumps({"embedding_dim": embedding_dim, "rounds": 1})},
        ["train", "--data", "{tmp}/data", "--config", "{tmp}/big.json", "--out", "{tmp}/o"],
        "ModelError", "float64 parameters", id=f"config-embedding_dim-{embedding_dim}-unallocatable",
    )


def _small_run(root) -> None:
    """A generated dataset in ``root/data``, its config in ``root/config.json``
    and its untrained model's checkpoint in ``root/run``."""
    root.mkdir()
    _generated_dataset(2)(root / "data")
    (root / "config.json").write_text(json.dumps({"rounds": 0, "embedding_dim": 4,
                                                  "preference_dim": 2}))
    assert main(["train", "--data", str(root / "data"), "--config", str(root / "config.json"),
                 "--out", str(root / "run")]) == 0


def _small_run_without_checkpoint(root) -> None:
    """A ``_small_run`` whose run directory lost its checkpoint, as a diverged run's has none."""
    _small_run(root)
    (root / "run" / "checkpoint.npz").unlink()


def _small_run_of_a_changed_dataset(root) -> None:
    """A ``_small_run`` whose dataset gained a parallel edge after the run:
    it still loads, and would be scored on another graph."""
    _small_run(root)
    edges = root / "data" / "edges.csv"
    with open(edges, "a") as fh:
        fh.write(edges.read_text().splitlines(keepends=True)[1])


def _run_copy(run_dir, dest) -> Path:
    """A copy of the run directory ``run_dir`` at ``dest``, for a test to change."""
    shutil.copytree(run_dir, dest)
    return dest


def _directory(path) -> None:
    path.mkdir(parents=True)


# a device whose every write fails with "No space left on device"
_NEEDS_DEV_FULL = pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")


def _output_names_a_directory(name, error) -> pytest.param:
    """A generate or train run whose output file ``name`` is a directory."""
    if name in ("nodes.csv", "edges.csv", "schema.json"):
        files = {f"out/{name}": _directory}
        argv = ["generate", "--out", "{tmp}/out", "--authors", "30", "--papers", "60",
                "--venues", "3", "--classes", "2"]
    else:
        files = {"small": _small_run, f"small/out/{name}": _directory}
        argv = ["train", "--data", "{tmp}/small/data", "--config", "{tmp}/small/config.json",
                "--out", "{tmp}/small/out"]
    return pytest.param(files, argv, error, name, id=f"{name}-names-a-directory")


def _manifest_doc(**fields) -> dict:
    """A well-formed run manifest with ``fields`` replaced."""
    doc = {
        "config": {"rounds": 1}, "code_version": "0.1.0",
        "dataset_fingerprint": "0" * 64, "data_dir": "data",
    }
    return {**doc, **fields}


_RECORD = '{"client": 0, "version": 1, "weights": [1.0]}'


def _records_case(text, fragment, case_id) -> pytest.param:
    """An aggregate-demo run on the records file ``text``, which must be refused."""
    return pytest.param(
        {"records.json": text}, ["aggregate-demo", "--records", "{tmp}/records.json"],
        "FederationError", fragment, id=case_id,
    )


_DELETE = object()  # in place of a value: the key is removed

# a valid document of each kind the CLI reads, with the command that reads it from {doc}
_FUZZ_BASE = {
    "config": (
        json.loads(json.dumps(asdict(ExperimentConfig(
            clients=2, rounds=1, batch_size=64, embedding_dim=4, preference_dim=2,
            metapaths=("APA",), seed=1,
        )))),
        ["train", "--data", "{data}", "--config", "{doc}", "--out", "{tmp}/out"],
    ),
    "manifest": (
        _manifest_doc(config={"clients": 2, "rounds": 1, "embedding_dim": 4,
                              "preference_dim": 2, "metapaths": ["APA"]}),
        ["train", "--manifest", "{doc}", "--out", "{tmp}/out"],
    ),
    "records": (
        {"alpha": 1.0,
         "records": [{"client": 0, "version": 5, "weights": [1.0, 1.0]},
                     {"client": 1, "version": 3, "weights": [5.0, 5.0]}]},
        ["aggregate-demo", "--records", "{doc}"],
    ),
}
# (kind, path to a value that kind's document holds)
_FUZZ_PATHS = [
    *((kind, (key,)) for kind, (doc, _) in _FUZZ_BASE.items() for key in doc),
    *(("records", ("records", 1, key)) for key in ("client", "version", "weights")),
]


def _trains_long(config) -> bool:
    """Whether ``config`` is a valid config with a long training run: the
    fuzzer skips those, since they only take time."""
    try:
        cfg = ExperimentConfig.from_dict(config)
    except ConfigError:
        return False
    return max(cfg.rounds * cfg.local_epochs, cfg.embedding_dim, cfg.preference_dim) > 8


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def _ends_in_exit_0_or_one_json_error(argv) -> None:
    """Run ``main(argv)`` in process: exit 0 must leave stderr empty and print
    strict JSON, exit 1 must print one JSON error object to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
        # strict JSON: NaN and the infinities are not
        json.loads(out.getvalue(), parse_constant=_not_json)
    else:
        assert code == 1 and len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


# a change to one array of a checkpoint: a function of the stored array, or
# _DELETE; the array in another shape, another dtype, as objects, or any array
_CHECKPOINT_CHANGES = st.one_of(
    st.just(_DELETE),
    st.sampled_from([
        lambda a: a.reshape(-1)[:-1],
        lambda a: a.reshape(-1)[:0],
        lambda a: a.reshape(-1, 1),
        lambda a: a[None],
        lambda a: a.reshape(-1)[0],
        lambda a: a.T,
    ]),
    (hnp.scalar_dtypes() | hnp.byte_string_dtypes() | hnp.unicode_string_dtypes()).map(
        lambda dtype: lambda a: a.astype(dtype)
    ),
    st.just(lambda a: a.astype(object)),
    hnp.arrays(hnp.scalar_dtypes(), hnp.array_shapes(min_dims=0, max_dims=3, max_side=4)).map(
        lambda b: lambda a: b
    ),
)


def _paper_labeled_dataset(path) -> None:
    """A dataset whose ``schema.json`` names papers as the target type; each
    author's papers share a label."""
    path.mkdir()
    (path / "schema.json").write_text(json.dumps({
        "triples": [["author", "writes", "paper"], ["paper", "written_by", "author"]],
        "target_type": "paper",
    }))
    authors, papers = range(4), range(4, 28)
    (path / "nodes.csv").write_text("id,type,label\n" + "".join(
        [f"{a},author,\n" for a in authors] + [f"{p},paper,{p % 2}\n" for p in papers]
    ))
    (path / "edges.csv").write_text("src,dst,relation\n" + "".join(
        f"{p % 4},{p},writes\n{p},{p % 4},written_by\n" for p in papers
    ))


class TestCli:
    def test_generate_writes_dataset(self, dataset_dir):
        assert (dataset_dir / "nodes.csv").exists()
        assert (dataset_dir / "edges.csv").exists()
        schema = json.loads((dataset_dir / "schema.json").read_text())
        assert schema["target_type"] == "author"

    def test_partition_command(self, dataset_dir, tmp_path):
        out = tmp_path / "partition.json"
        assert main(["partition", "--data", str(dataset_dir), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 3
        combined = [n for nodes in doc.values() for n in nodes]
        assert len(combined) == len(set(combined)) == 60

    def test_partition_refuses_proportions_that_cannot_split_a_class(
        self, dataset_dir, tmp_path, capsys
    ):
        # a Dirichlet this concentrated draws proportions that underflow to 0
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"partition_strategy": "label_skew",
                                           "dirichlet_alpha": 1e308}))
        out = tmp_path / "partition.json"
        argv = ["partition", "--data", str(dataset_dir), "--config", str(config_path),
                "--out", str(out)]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SimulationError" and "dirichlet_alpha" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("clients", [None, 2])
    def test_partition_command_prints_the_training_split(self, dataset_dir, tmp_path, clients):
        doc = {"partition_strategy": "label_skew", "dirichlet_alpha": 0.5,
               "embedding_dim": 4, "preference_dim": 2, "seed": 7}
        if clients is not None:  # else the default count
            doc["clients"] = clients
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        out = tmp_path / "partition.json"
        argv = ["partition", "--data", str(dataset_dir), "--config", str(config_path),
                "--out", str(out)]
        assert main(argv) == 0
        config = ExperimentConfig.from_dict(doc)
        # build_experiment trains on client_partition's split (test_simulation.py)
        part = client_partition(config, _load_dataset(str(dataset_dir)))
        assert json.loads(out.read_text()) == {str(c): p.tolist() for c, p in enumerate(part)}

    def test_train_outputs_complete_run_directory(self, train_run):
        dataset_dir, out_dir = train_run
        assert {path.name for path in out_dir.iterdir()} == {
            "manifest.json", "metrics.jsonl", "decisions.jsonl", "checkpoint.npz"
        }
        metrics = [json.loads(line) for line in (out_dir / "metrics.jsonl").read_text().splitlines()]
        assert [m["round"] for m in metrics] == [0, 1, 2, 3]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["dataset_fingerprint"]
        assert manifest["config"]["seed"] == 1
        assert manifest["data_dir"] == str(dataset_dir.resolve())

    def test_manifest_replay_reproduces_metrics_bit_for_bit(self, train_run, tmp_path):
        _, out_dir = train_run
        replay_dir = tmp_path / "replay"
        code = main(["train", "--manifest", str(out_dir / "manifest.json"), "--out", str(replay_dir)])
        assert code == 0
        original = (out_dir / "metrics.jsonl").read_bytes()
        replayed = (replay_dir / "metrics.jsonl").read_bytes()
        assert original == replayed

    def test_replay_hashes_its_dataset_once(self, train_run, tmp_path, monkeypatch):
        _, out_dir = train_run
        hashed = []
        monkeypatch.setattr(
            "fedhin.cli.dataset_fingerprint",
            lambda paths: hashed.append(paths) or dataset_fingerprint(paths),
        )
        replay_dir = tmp_path / "replay"
        code = main(["train", "--manifest", str(out_dir / "manifest.json"), "--out", str(replay_dir)])
        assert code == 0
        assert len(hashed) == 1
        original, replayed = (
            json.loads((run / "manifest.json").read_text()) for run in (out_dir, replay_dir)
        )
        assert replayed["dataset_fingerprint"] == original["dataset_fingerprint"]

    @pytest.mark.parametrize("edit", ["edges.csv"])
    def test_replay_of_a_changed_dataset_or_seed_is_refused(self, train_run, tmp_path, capsys, edit):
        dataset_dir, out_dir = train_run
        data = tmp_path / "data"
        data.mkdir()
        for path in _dataset_files(dataset_dir):
            (data / path.name).write_bytes(path.read_bytes())
        manifest = json.loads((out_dir / "manifest.json").read_text())
        manifest["data_dir"] = str(data)
        recorded = manifest["dataset_fingerprint"]
        # a parallel edge: the edited dataset still loads and trains
        edges = (data / edit).read_text().splitlines(keepends=True)
        (data / edit).write_text("".join(edges + edges[1:2]))
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        replay_dir = tmp_path / "replay"
        code = main(["train", "--manifest", str(manifest_path), "--out", str(replay_dir)])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "StorageError"
        assert str(manifest_path) in err["message"]
        changed = dataset_fingerprint(_dataset_files(data))
        assert recorded in err["message"] and changed in err["message"]
        assert not replay_dir.exists()

    def test_target_type_is_the_datasets(self, tmp_path):
        # the target type is the one schema.json names: papers
        data = tmp_path / "data"
        _paper_labeled_dataset(data)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "clients": 2, "rounds": 2, "batch_size": 8, "embedding_dim": 4,
            "preference_dim": 2, "metapaths": ["PAP"], "seed": 1,
        }))
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--config", str(config_path),
                     "--out", str(run)]) == 0
        assert main(["eval", "--run", str(run)]) == 0
        out = tmp_path / "embeddings.csv"
        assert main(["export-embeddings", "--run", str(run), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(4, 28))

    def test_a_run_on_a_relative_data_dir_is_read_from_another_directory(
        self, dataset_dir, tmp_path, monkeypatch
    ):
        work = tmp_path / "rel1"
        shutil.copytree(dataset_dir, work / "data")
        (work / "config.json").write_text(json.dumps({
            "clients": 2, "rounds": 1, "batch_size": 64, "embedding_dim": 4, "preference_dim": 2,
        }))
        monkeypatch.chdir(work)
        assert main(["train", "--data", "data", "--config", "config.json", "--out", "run"]) == 0
        manifest = json.loads((work / "run" / "manifest.json").read_text())
        assert manifest["data_dir"] == str((work / "data").resolve())
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--run", "rel1/run"]) == 0
        assert main(["export-embeddings", "--run", "rel1/run", "--out", "embeddings.csv"]) == 0
        assert main(["train", "--manifest", "rel1/run/manifest.json", "--out", "replay"]) == 0
        assert (tmp_path / "replay" / "metrics.jsonl").read_bytes() == (
            work / "run" / "metrics.jsonl"
        ).read_bytes()

    def test_eval_command_prints_scores(self, train_run, capsys):
        _, out_dir = train_run
        code = main(["eval", "--run", str(out_dir)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(payload) == {"micro_f1", "macro_f1", "n_test"}
        assert payload["n_test"] > 0

    def test_checkpoint_keeps_the_trained_preferences(self, train_run):
        # each training node's row is trained by the client that holds it;
        # every other row keeps its initial bits
        dataset_dir, out_dir = train_run
        manifest = json.loads((out_dir / "manifest.json").read_text())
        config = ExperimentConfig.from_dict(manifest["config"])
        graph = _load_dataset(str(dataset_dir))
        setup = build_experiment(config, graph)
        list(run_experiment(config, graph, setup=setup))
        initial = setup.initial_params.pref
        trained = np.zeros(initial.shape[0], dtype=bool)
        trained[np.concatenate([c.train_nodes for c in setup.clients])] = True
        checkpoint = params_from_checkpoint(out_dir / "checkpoint.npz").pref
        for pref in (setup.global_params().pref, checkpoint):
            np.testing.assert_array_equal((pref != initial).any(axis=1), trained)
            assert pref[~trained].tobytes() == initial[~trained].tobytes()
        assert checkpoint.tobytes() == setup.global_params().pref.tobytes()

    def test_eval_rejects_checkpoint_with_wrong_pref_shape(self, train_run, tmp_path, capsys):
        _, out_dir = train_run
        bad = _run_copy(out_dir, tmp_path / "run")
        with_bad_pref(bad / "checkpoint.npz", np.zeros((59, 3)))
        code = main(["eval", "--run", str(bad)])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "StorageError"
        assert "preference matrix" in err["message"]

    def test_eval_rejects_checkpoint_in_the_transform_major_layout(
        self, train_run, tmp_path, capsys
    ):
        _, out_dir = train_run
        old = _run_copy(out_dir, tmp_path / "run")
        with_transform_major_layout(old / "checkpoint.npz")
        code = main(["eval", "--run", str(old)])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "StorageError"
        assert "no model parameter layout" in err["message"]

    def test_export_embeddings_command(self, train_run, tmp_path, capsys):
        _, out_dir = train_run
        out = tmp_path / "embeddings.csv"
        code = main(["export-embeddings", "--run", str(out_dir), "--out", str(out)])
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

    def test_aggregate_demo_takes_several_uploads_of_one_client(self, tmp_path, capsys):
        def run(uploads):
            records = tmp_path / "records.json"
            records.write_text(json.dumps({"records": [
                {"client": c, "version": v, "weights": w} for c, v, w in uploads
            ]}))
            code = main(["aggregate-demo", "--records", str(records)])
            return code, capsys.readouterr()

        code, repeated = run([(0, 1, [1.0, 1.0]), (0, 2, [3.0, 3.0]), (1, 1, [5.0, 5.0])])
        assert code == 0
        assert repeated.out == run([(0, 2, [3.0, 3.0]), (1, 1, [5.0, 5.0])])[1].out
        code, refused = run([(0, 1, [1.0]), (0, 1, [2.0])])
        assert code == 1 and json.loads(refused.err)["error"] == "StalenessRejected"

    # without the refusal, the diverging rerun overflows with warnings
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("second", [{"seed": 2}, {"learning_rate": 1e300}],
                             ids=["another-seed", "diverging"])
    def test_train_refuses_an_out_that_holds_a_run(self, dataset_dir, tmp_path, capsys, second):
        base = {"clients": 2, "rounds": 1, "batch_size": 64, "embedding_dim": 4,
                "preference_dim": 2}
        out = tmp_path / "run"

        def train(doc) -> int:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(doc))
            return main(["train", "--data", str(dataset_dir), "--config", str(config_path),
                         "--out", str(out)])

        assert train(base) == 0
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert train({**base, **second}) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "StorageError"
        assert str(out / "manifest.json") in err["message"]
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first

    def test_train_with_no_client_due_on_the_first_tick(self, dataset_dir, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "clients": 2, "rounds": 3, "speed_multipliers": [2, 3], "batch_size": 16,
            "embedding_dim": 6, "preference_dim": 3, "seed": 1,
        }))
        out = tmp_path / "out"
        code = main([
            "train", "--data", str(dataset_dir), "--config", str(config_path), "--out", str(out),
        ])
        assert code == 0
        assert (out / "checkpoint.npz").exists()
        assert len((out / "metrics.jsonl").read_text().splitlines()) == 4

    @pytest.mark.parametrize(
        "files, argv, error, fragment",
        [
            pytest.param(
                {"bad.json": json.dumps({"nope": 1})},
                ["train", "--data", "{tmp}", "--config", "{tmp}/bad.json", "--out", "{tmp}/o"],
                "ConfigError", "nope", id="unknown-config-key",
            ),
            pytest.param(
                {"schema.json": "{not json"},
                ["train", "--data", "{tmp}", "--out", "{tmp}/o"],
                "GraphError", "schema.json", id="schema-not-json",
            ),
            pytest.param(
                {"schema.json": json.dumps({"target_type": "author"})},
                ["train", "--data", "{tmp}", "--out", "{tmp}/o"],
                "GraphError", "triples", id="schema-without-triples",
            ),
            pytest.param(
                {**TINY_DATASET, "schema.json": json.dumps(
                    {"triples": [["author", "writes"]], "target_type": "author"})},
                ["train", "--data", "{tmp}", "--out", "{tmp}/o"],
                "GraphError", "schema.json", id="schema-triple-of-two",
            ),
            pytest.param(
                {**TINY_DATASET,
                 "schema.json": json.dumps(
                     {"triples": [["author", 5, "paper"]], "target_type": "author"})},
                ["train", "--data", "{tmp}", "--out", "{tmp}/o"],
                "GraphError", "schema.json", id="schema-triple-not-strings",
            ),
            pytest.param(
                {**TINY_DATASET, "schema.json": json.dumps(
                    {"triples": [["author", "writes", "paper"]], "target_type": ["author"]})},
                ["train", "--data", "{tmp}", "--out", "{tmp}/o"],
                "GraphError", "schema.json", id="schema-target-type-not-a-string",
            ),
            # a dataset names its target type; schemas once could leave it to the config
            pytest.param(
                {**TINY_DATASET,
                 "schema.json": json.dumps({"triples": [["author", "writes", "paper"]]})},
                ["train", "--data", "{tmp}", "--out", "{tmp}/o"],
                "GraphError", "missing key(s): ['target_type']", id="schema-without-target-type",
            ),
            # settings that configs once held: one activation, walk counts, the dataset's type
            *(pytest.param(
                {"old.json": json.dumps({key: value})},
                ["train", "--data", "{tmp}", "--config", "{tmp}/old.json", "--out", "{tmp}/o"],
                "ConfigError", f"unknown key(s): ['{key}']", id=f"config-with-{key}",
            ) for key, value in (("activation", "elu"), ("adjacency_mode", "counts"),
                                 ("target_type", "author"))),
            pytest.param(
                {"manifest.json": "not json"},
                ["train", "--manifest", "{tmp}/manifest.json", "--out", "{tmp}/o"],
                "StorageError", "manifest", id="manifest-not-json",
            ),
            pytest.param(
                {"records.json": "{not json"},
                ["aggregate-demo", "--records", "{tmp}/records.json"],
                "FederationError", "records", id="records-not-json",
            ),
            pytest.param(
                {"records.json": json.dumps([{"client": 0, "version": 1, "weights": [1.0]}])},
                ["aggregate-demo", "--records", "{tmp}/records.json"],
                "FederationError", "records", id="records-not-an-object",
            ),
            pytest.param(
                {"records.json": json.dumps({"records": [{"client": 0, "weights": [1.0]}]})},
                ["aggregate-demo", "--records", "{tmp}/records.json"],
                "FederationError", "version", id="record-without-version",
            ),
            pytest.param(
                {"records.json": json.dumps({"records": [
                    {"client": 0, "version": 2, "weights": [1.0, 2.0]},
                    {"client": 1, "version": 1, "weights": [3.0]},
                ]})},
                ["aggregate-demo", "--records", "{tmp}/records.json"],
                "FederationError", "shape", id="records-unequal-length",
            ),
            pytest.param(
                {"records.json": json.dumps({"records": [
                    {"client": 0, "version": 1.5, "weights": [1.0]},
                ]})},
                ["aggregate-demo", "--records", "{tmp}/records.json"],
                "FederationError", "version", id="record-version-not-an-integer",
            ),
            pytest.param(
                {"records.json": json.dumps({"records": [
                    {"client": 0, "version": True, "weights": [1.0]},
                ]})},
                ["aggregate-demo", "--records", "{tmp}/records.json"],
                "FederationError", "version", id="record-version-true",
            ),
            _records_case(f'{{"alpha": "nan", "records": [{_RECORD}]}}', "alpha",
                          "records-alpha-nan-string"),
            _records_case(f'{{"alpha": "0.5", "records": [{_RECORD}]}}', "alpha",
                          "records-alpha-numeral"),
            _records_case(f'{{"alpha": true, "records": [{_RECORD}]}}', "alpha",
                          "records-alpha-true"),
            _records_case(f'{{"gap_threshold": 2.7, "records": [{_RECORD}]}}', "gap_threshold",
                          "records-gap-threshold-not-an-integer"),
            # aggregate-demo prints no dispatch mode, so it reads no threshold
            _records_case(f'{{"gap_threshold": 1, "records": [{_RECORD}]}}', "gap_threshold",
                          "records-gap-threshold-is-not-a-key"),
            _records_case('{"records": [{"client": 0, "version": 1, "weights": [1e400]}]}',
                          "weights", "record-weight-beyond-the-float-range"),
            _records_case('{"records": [{"client": 0, "version": 1, "weights": [null]}]}',
                          "weights", "record-weight-null"),
            _records_case(f'{{"alhpa": 1.0, "records": [{_RECORD}]}}', "alhpa",
                          "records-unknown-key"),
            _records_case('{"records": [{"client": 0, "version": 1, "weights": [1.0], '
                          '"wieghts": [2.0]}]}', "wieghts", "record-unknown-key"),
            _records_case('{"records": []}', "no upload", "records-empty"),
            pytest.param(
                {**TINY_DATASET, "schema.json": json.dumps(
                    {"triples": [["author", "writes", "paper"]], "targettype": "author"})},
                ["train", "--data", "{tmp}", "--out", "{tmp}/o"],
                "GraphError", "targettype", id="schema-unknown-key",
            ),
            pytest.param(
                {**TINY_DATASET, "many.json": json.dumps({"clients": 2**40})},
                ["train", "--data", "{tmp}", "--config", "{tmp}/many.json", "--out", "{tmp}/o"],
                "SimulationError", "clients", id="config-clients-beyond-the-labeled-nodes",
            ),
            # a replay's config and dataset are its manifest's; the run exists
            pytest.param(
                {"small": _small_run},
                ["train", "--manifest", "{tmp}/small/run/manifest.json",
                 "--config", "{tmp}/small/config.json", "--out", "{tmp}/o"],
                "ConfigError", "--config", id="manifest-with-config",
            ),
            pytest.param(
                {"small": _small_run},
                ["train", "--manifest", "{tmp}/small/run/manifest.json",
                 "--data", "{tmp}/small/data", "--out", "{tmp}/o"],
                "ConfigError", "--data", id="manifest-with-data",
            ),
            pytest.param(
                {"manifest.json": json.dumps(_manifest_doc(config=5))},
                ["train", "--manifest", "{tmp}/manifest.json", "--out", "{tmp}/o"],
                "StorageError", "config", id="manifest-config-not-an-object",
            ),
            pytest.param(
                {"manifest.json": json.dumps(_manifest_doc(data_dir="da\x00ta"))},
                ["train", "--manifest", "{tmp}/manifest.json", "--out", "{tmp}/o"],
                "StorageError", "null byte", id="manifest-data-dir-with-a-nul-byte",
            ),
            pytest.param(
                {"manifest.json": json.dumps(_manifest_doc(data_dir=5))},
                ["train", "--manifest", "{tmp}/manifest.json", "--out", "{tmp}/o"],
                "StorageError", "data_dir", id="manifest-data-dir-not-a-string",
            ),
            # a config error in a manifest names the manifest; runs once recorded "scheduling"
            pytest.param(
                {"manifest.json": json.dumps(_manifest_doc(
                    config={"rounds": 1, "scheduling": "deterministic"}))},
                ["train", "--manifest", "{tmp}/manifest.json", "--out", "{tmp}/o"],
                "ConfigError", "manifest.json: unknown key(s): ['scheduling']",
                id="manifest-config-with-scheduling",
            ),
            # manifests once repeated the config's seed and listed the run's files
            *(pytest.param(
                {"manifest.json": json.dumps(_manifest_doc(**{key: value}))},
                ["train", "--manifest", "{tmp}/manifest.json", "--out", "{tmp}/o"],
                "StorageError", f"manifest.json: unknown key(s): ['{key}']",
                id=f"manifest-with-{key}",
            ) for key, value in (("seed", 0), ("outputs", {}))),
            # a run is read only with its checkpoint and on the dataset it ran on
            *(pytest.param(
                {"small": run}, [*argv, "--run", "{tmp}/small/run"], "StorageError", fragment,
                id=f"{argv[0]}-{case_id}",
            ) for argv in (["eval"], ["export-embeddings", "--out", "{tmp}/o"])
              for run, fragment, case_id in (
                (_small_run_without_checkpoint, "small/run/checkpoint.npz", "run-without-checkpoint"),
                (_small_run_of_a_changed_dataset, "dataset fingerprint", "run-of-a-changed-dataset"),
            )),
            _config_case("embedding_dim", 2.5),
            _config_case("batch_size", 1.5),
            _config_case("clients", True),
            _config_case("neighbor_sample_size", 2.5),
            _config_case("rounds", "ten"),
            _config_case("seed", -1),
            _config_case("embedding_dim", 10**20),
            # beyond numpy's array size limit, and beyond any machine's memory
            _model_case(2**40),
            _model_case(2**24),
            pytest.param(
                {**TINY_DATASET, "one.json": _ONE_CLIENT},
                ["partition", "--data", "{tmp}", "--config", "{tmp}/one.json", "--out", "{tmp}"],
                "StorageError", "cannot write", id="partition-out-names-a-directory",
            ),
            pytest.param(
                {"small": _small_run},
                ["export-embeddings", "--run", "{tmp}/small/run", "--out", "{tmp}/small"],
                "StorageError", "cannot write", id="export-out-names-a-directory",
            ),
            # the open succeeds and a write or the close fails
            pytest.param(
                {**TINY_DATASET, "one.json": _ONE_CLIENT},
                ["partition", "--data", "{tmp}", "--config", "{tmp}/one.json",
                 "--out", "/dev/full"],
                "StorageError", "cannot write /dev/full", id="partition-out-on-a-full-disk",
                marks=_NEEDS_DEV_FULL,
            ),
            pytest.param(
                {"small": _small_run},
                ["export-embeddings", "--run", "{tmp}/small/run", "--out", "/dev/full"],
                "StorageError", "cannot write /dev/full", id="export-out-on-a-full-disk",
                marks=_NEEDS_DEV_FULL,
            ),
            pytest.param(
                {"afile": "not a directory"},
                ["train", "--data", "{tmp}/afile", "--out", "{tmp}/o"],
                "GraphError", "afile", id="data-names-a-file",
            ),
            pytest.param(
                {**TINY_DATASET, "nodes.csv": b"id,type,label\n0,author,0\n1,\xff\xfepaper,\n"},
                ["train", "--data", "{tmp}", "--out", "{tmp}/o"],
                "ParseError", "nodes.csv", id="nodes-not-utf8",
            ),
            pytest.param(
                {**TINY_DATASET, "nodes.csv": "id,type,label\n0,author,100000000000000000000\n"},
                ["partition", "--data", "{tmp}", "--out", "{tmp}/partition.json"],
                "ParseError", "line 2: label", id="label-beyond-int64",
            ),
            *(pytest.param(
                {**TINY_DATASET, "nodes.csv": nodes},
                ["train", "--data", "{tmp}", "--out", "{tmp}/o"],
                "ParseError", fragment, id=case_id,
            ) for nodes, fragment, case_id in (
                ("", "nodes.csv: empty table", "nodes-empty"),
                ("id,kind,label\n0,author,0\n", "line 1: expected header", "nodes-header-kind"),
                ("id,type,label\n0,author,0,1\n", "line 2: expected 3 columns, got 4",
                 "nodes-row-of-four-columns"),
                ("id,type,label\n0,author,x\n", "line 2: label 'x' is not an integer",
                 "nodes-label-not-an-integer"),
            )),
            pytest.param(
                {**TINY_DATASET, "edges.csv": "src,dst,relation\n0,x,writes\n"},
                ["train", "--data", "{tmp}", "--out", "{tmp}/o"],
                "ParseError", "line 2: edge endpoints '0','x' must be integers",
                id="edge-endpoint-not-an-integer",
            ),
            pytest.param(
                {"schema.json": TINY_DATASET["schema.json"]},
                ["train", "--data", "{tmp}", "--out", "{tmp}/o"],
                "GraphError", "cannot read the dataset", id="data-without-nodes-csv",
            ),
            pytest.param(
                {"data": _generated_dataset(1)},
                ["train", "--data", "{tmp}/data", "--out", "{tmp}/o"],
                "SimulationError", "need at least two label classes", id="one-label-class",
            ),
            pytest.param(
                {}, ["train", "--out", "{tmp}/o"],
                "ConfigError", "train needs --data", id="train-without-data-or-manifest",
            ),
            pytest.param(
                {"afile": "not a directory"}, ["generate", "--out", "{tmp}/afile"],
                "StorageError", "cannot create the output directory",
                id="generate-out-names-a-file",
            ),
            pytest.param(
                {}, ["generate", "--out", "{tmp}/out", "--classes", "0"],
                "SimulationError", "need at least one author per class", id="generate-zero-classes",
            ),
            pytest.param(
                TINY_DATASET,
                ["train", "--data", "{tmp}", "--out", "{tmp}/nodes.csv"],
                "StorageError", "nodes.csv", id="out-names-a-file",
            ),
            pytest.param(
                {}, ["train", "--data", "{tmp}", "--config", "{tmp}", "--out", "{tmp}/o"],
                "ConfigError", "config file", id="config-names-a-directory",
            ),
            pytest.param(
                {"bad.json": b'{"seed": "\xff"}'},
                ["train", "--data", "{tmp}", "--config", "{tmp}/bad.json", "--out", "{tmp}/o"],
                "ConfigError", "bad.json", id="config-not-utf8",
            ),
            pytest.param(
                {"manifest.json": b"\xff"},
                ["train", "--manifest", "{tmp}/manifest.json", "--out", "{tmp}/o"],
                "StorageError", "manifest", id="manifest-not-utf8",
            ),
            pytest.param(
                {}, ["aggregate-demo", "--records", "{tmp}"],
                "FederationError", "records", id="records-names-a-directory",
            ),
            pytest.param(
                {"records.json": b"\xff"},
                ["aggregate-demo", "--records", "{tmp}/records.json"],
                "FederationError", "records", id="records-not-utf8",
            ),
            pytest.param(
                {}, ["generate", "--out", "{tmp}/out", "--venues", "-1"],
                "SimulationError", "n_venues", id="generate-negative-venues",
            ),
            pytest.param(
                {}, ["generate", "--out", "{tmp}/out", "--authors", "40", "--papers", "10",
                     "--seed", "-1"],
                "SimulationError", "seed must be a non-negative integer, got -1",
                id="generate-negative-seed",
            ),
            # beyond a 47-bit address space, and beyond numpy's size limit
            *(pytest.param(
                {}, ["generate", "--out", "{tmp}/out", "--authors", "40", "--papers", "10",
                     "--venues", str(venues)],
                "SimulationError", f"{venues} venues", id=case_id,
            ) for venues, case_id in ((10**14, "generate-venues-beyond-memory"),
                                      (2**62, "generate-venues-beyond-numpy-size-limit"))),
            _output_names_a_directory("nodes.csv", "GraphError"),
            _output_names_a_directory("edges.csv", "GraphError"),
            *(_output_names_a_directory(name, "StorageError") for name in (
                "schema.json", "manifest.json", "metrics.jsonl",
                "decisions.jsonl", "checkpoint.npz",
            )),
        ],
    )
    def test_failure_prints_machine_readable_error(
        self, tmp_path, capsys, files, argv, error, fragment
    ):
        for name, content in files.items():
            path = tmp_path / name
            if callable(content):
                content(path)
            elif isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content)
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == error
        assert fragment in err["message"]
        assert not (tmp_path / "o").exists()  # a refused train creates no run directory

    # a fuzzed learning rate may diverge the run, with overflow warnings
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(target=st.sampled_from(_FUZZ_PATHS), value=st.just(_DELETE) | JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_any_json_value_in_an_input_file_ends_in_exit_0_or_one_json_error(
        self, dataset_dir, target, value
    ):
        kind, path = target
        base, argv = _FUZZ_BASE[kind]
        doc = json.loads(json.dumps(base))  # a deep copy
        if kind == "manifest":
            doc["data_dir"] = str(dataset_dir)
            doc["dataset_fingerprint"] = dataset_fingerprint(_dataset_files(dataset_dir))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        if kind != "records":
            assume(not _trains_long(doc.get("config") if kind == "manifest" else doc))
        with tempfile.TemporaryDirectory() as tmp:
            doc_path = Path(tmp) / "doc.json"
            doc_path.write_text(json.dumps(doc))
            _ends_in_exit_0_or_one_json_error(
                [arg.format(data=dataset_dir, doc=doc_path, tmp=tmp) for arg in argv]
            )

    @given(
        name=st.sampled_from(["manifest", "flat", "pref"]),
        change=_CHECKPOINT_CHANGES,
        command=st.sampled_from(["eval", "export-embeddings"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_checkpoint_array_change_ends_in_exit_0_or_one_json_error(
        self, train_run, name, change, command
    ):
        _, out_dir = train_run
        with np.load(out_dir / "checkpoint.npz") as archive:
            arrays = dict(archive)
        if change is _DELETE:
            del arrays[name]
        else:
            arrays[name] = change(arrays[name])
        with tempfile.TemporaryDirectory() as tmp:
            run = _run_copy(out_dir, Path(tmp) / "run")
            # an object array is stored pickled, which the reader refuses
            np.savez(run / "checkpoint.npz", **arrays)
            argv = [command, "--run", str(run)]
            if command == "export-embeddings":
                argv += ["--out", str(Path(tmp) / "embeddings.csv")]
            _ends_in_exit_0_or_one_json_error(argv)

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
        # the records computed before the abort are kept
        metrics = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert [m["round"] for m in metrics] == [0]
        decisions = (out / "decisions.jsonl").read_text()
        assert all(json.loads(line) for line in decisions.splitlines())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_reported_when_decisions_cannot_be_written(
        self, dataset_dir, tmp_path, capsys
    ):
        (tmp_path / "out" / "decisions.jsonl").mkdir(parents=True)
        self._diverges_reporting_only_that(dataset_dir, tmp_path, capsys)

    @_NEEDS_DEV_FULL
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_reported_when_decisions_hit_a_full_disk(
        self, dataset_dir, tmp_path, capsys
    ):
        # the open succeeds and a write or the close fails; uploaded per
        # batch, the run has a decision to write when it diverges in round 1
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "decisions.jsonl").symlink_to("/dev/full")
        self._diverges_reporting_only_that(dataset_dir, tmp_path, capsys, granularity="batch")

    @staticmethod
    def _diverges_reporting_only_that(dataset_dir, tmp_path, capsys, **settings):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "clients": 2, "rounds": 3, "batch_size": 16, "embedding_dim": 6,
            "preference_dim": 3, "learning_rate": 1e300, "seed": 1, **settings,
        }))
        out = tmp_path / "out"
        code = main([
            "train", "--data", str(dataset_dir), "--config", str(config_path), "--out", str(out),
        ])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "TrainingDiverged"
        metrics = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert [m["round"] for m in metrics] == [0]

    def test_refused_run_leaves_no_run_directory(self, tmp_path, capsys):
        assert main(["generate", "--out", str(tmp_path / "data"), "--authors", "30",
                     "--papers", "60", "--venues", "3", "--classes", "2"]) == 0
        capsys.readouterr()
        config_path = tmp_path / "big.json"
        config_path.write_text(json.dumps({"embedding_dim": 2**40, "rounds": 1}))
        out = tmp_path / "o"
        code = main(["train", "--data", str(tmp_path / "data"), "--config", str(config_path),
                     "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ModelError"
        assert not (out / "manifest.json").exists()
        assert not out.exists()
