"""File formats: checkpoints, embedding export, metrics logs, run manifests.

All floating-point persistence is 64-bit so a save/load round trip is
bit-identical and a resumed run continues with exactly the same numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .model import (
    ModelError,
    ModelParams,
    dims_from_manifest,
    pack_shared,
    shape_manifest,
    unpack_shared,
)


class StorageError(Exception):
    pass


# -- checkpoints ----------------------------------------------------------


def save_checkpoint(path, params: ModelParams, allow_non_finite: bool = False) -> None:
    """Write shared tensors as one flat vector plus its shape manifest;
    preference vectors ride along separately as client-local state.

    ``allow_non_finite`` exists for post-mortem dumps of diverged runs.
    """
    flat = pack_shared(params)
    if not allow_non_finite and (
        not np.all(np.isfinite(flat)) or not np.all(np.isfinite(params.pref))
    ):
        raise StorageError("refusing to checkpoint non-finite parameter values")
    manifest = json.dumps(shape_manifest(params), sort_keys=True)
    try:
        np.savez(
            path,
            manifest=np.frombuffer(manifest.encode(), dtype=np.uint8),
            flat=flat,
            pref=params.pref,
        )
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from None


def params_from_checkpoint(path, expected_manifest: list[dict] | None = None) -> ModelParams:
    """Rebuild full ModelParams from a checkpoint, in the layout its manifest
    implies; ``StorageError`` when the file is unreadable, an array is not
    float64, its shapes disagree with its manifest, or the manifest is not
    ``expected_manifest``."""
    try:
        # the handle is ours, so it is closed however np.load fails
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as archive:
            manifest = json.loads(bytes(archive["manifest"]).decode())
            flat, pref = archive["flat"], archive["pref"]
    except Exception as exc:
        raise StorageError(f"cannot read checkpoint {path}: {exc}") from None
    # save_checkpoint writes float64 only; any other dtype is not one of its files
    for name, array in (("flat", flat), ("pref", pref)):
        if array.dtype != np.float64:
            raise StorageError(f"checkpoint {path}: {name} holds {array.dtype} values, not float64")
    try:
        dims = dims_from_manifest(manifest)
    except ModelError as exc:
        raise StorageError(f"checkpoint {path}: {exc}") from None
    total = sum(int(np.prod(entry["shape"])) for entry in manifest)
    if flat.shape != (total,):
        raise StorageError(
            f"checkpoint {path}: flat vector has shape {flat.shape}, manifest expects ({total},)"
        )
    if expected_manifest is not None and manifest != expected_manifest:
        raise StorageError(
            f"checkpoint {path}: shape manifest mismatch "
            f"(stored {manifest}, expected {expected_manifest})"
        )
    if pref.shape != (dims.n_targets, dims.preference_dim):
        raise StorageError(
            f"checkpoint {path}: preference matrix has shape {pref.shape}, "
            f"manifest implies {(dims.n_targets, dims.preference_dim)}"
        )
    params = unpack_shared(flat, ModelParams(dims))
    params.pref[...] = pref
    return params


# -- embeddings & metrics ----------------------------------------------------


@contextlib.contextmanager
def open_output(path):
    """A context manager over ``path`` opened for writing UTF-8 text; an
    ``OSError`` from the open, a write or the close is a ``StorageError``
    naming ``path``, e.g. when it names a directory or the disk is full."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from None


def export_embeddings(path, node_ids: Sequence[int], embeddings: np.ndarray) -> None:
    """One row per target node: node_id, e_1..e_d."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or len(node_ids) != embeddings.shape[0]:
        raise StorageError("embeddings must be 2-D with one row per node id")
    d = embeddings.shape[1]
    with open_output(path) as fh:
        fh.write("node_id," + ",".join(f"e_{j + 1}" for j in range(d)) + "\n")
        for nid, row in zip(node_ids, embeddings):
            fh.write(f"{int(nid)}," + ",".join(repr(float(v)) for v in row) + "\n")


def metrics_to_jsonl(records: Iterable) -> str:
    """Serialize RoundMetrics (or dicts) to JSON lines, keys in field order."""
    lines = []
    for record in records:
        obj = asdict(record) if is_dataclass(record) else record
        lines.append(json.dumps(obj, sort_keys=False))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(path, records: Iterable) -> None:
    with open_output(path) as fh:
        fh.write(metrics_to_jsonl(records))


# -- run manifests -------------------------------------------------------------


def make_output_dir(path) -> Path:
    """Create the output directory ``path`` and its parents unless it exists;
    ``StorageError`` when it cannot be, e.g. because ``path`` names a file."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create the output directory {out}: {exc}") from None
    return out


# Bytes per read when hashing a dataset file, so a large file is never held whole.
_HASH_CHUNK = 1 << 20


def dataset_fingerprint(paths: Sequence) -> str:
    """SHA-256 over the concatenated bytes of the dataset files, sorted by name."""
    digest = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        digest.update(p.name.encode())
        try:
            with open(p, "rb") as fh:
                while chunk := fh.read(_HASH_CHUNK):
                    digest.update(chunk)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise StorageError(f"cannot read {p}: {exc}") from None
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Written before training; sufficient to replay the run deterministically."""

    config: dict
    seed: int
    code_version: str
    dataset_fingerprint: str
    data_dir: str
    outputs: dict


def write_manifest(path, document) -> None:
    """Write the dataclass ``document`` (a run's manifest or config) as sorted, indented JSON."""
    with open_output(path) as fh:
        json.dump(asdict(document), fh, indent=2, sort_keys=True)
        fh.write("\n")
