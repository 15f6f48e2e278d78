"""Federated protocol: server-side records, aggregation rules, dispatch, clients.

The parameter server keeps two records per participating client: its
latest uploaded flat weight vector and its latest version number (a
monotone upload counter starting at 1).  Three aggregation rules are
provided:

* ``staleness`` — each stored vector is weighted by
  ``(gap + 1) ** -alpha`` where ``gap`` is how many versions the record
  lags behind the newest one, then weights are renormalized.  Fresh
  records dominate, stale ones fade smoothly.
* ``fedavg`` — the plain unweighted mean of stored vectors.
* ``ema`` — a server-held running vector updated as
  ``beta * server + (1 - beta) * update`` on every submission.

After each aggregation the server either answers only the uploading
client or, when the largest version gap reaches the configured
threshold, broadcasts to everyone so stragglers resynchronize.

The server is a serialized state machine: submissions and aggregations
are applied one at a time in arrival order. Message types double as a
wire format (flat vector + shape manifest + id + version) so the
simulator can later be split into networked processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import ModelParams, pack_shared, unpack_shared
from .optim import AdamState, adam_step

AGGREGATORS = ("staleness", "fedavg", "ema")

_WIRE_MAGIC = b"FHW1"


class FederationError(Exception):
    """Base class for protocol violations."""


class UnknownClient(FederationError):
    """Submission from a client id that was never registered."""


class StalenessRejected(FederationError):
    """Submission whose version does not advance the stored record."""


class EmptyRecords(FederationError):
    """Aggregation requested before any client has submitted."""


@dataclass
class ClientUpdate:
    """One upload: who, the flat shared-weight vector, and its version."""

    client_id: int
    weights: np.ndarray
    version: int

    def to_bytes(self, manifest: list[dict] | None = None) -> bytes:
        header = json.dumps(
            {
                "client_id": self.client_id,
                "version": self.version,
                "size": int(self.weights.size),
                "manifest": manifest,
            },
            sort_keys=True,
        ).encode()
        return _WIRE_MAGIC + len(header).to_bytes(4, "big") + header + self.weights.astype(
            np.float64
        ).tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> tuple["ClientUpdate", list[dict] | None]:
        if blob[:4] != _WIRE_MAGIC:
            raise FederationError("not a client-update message")
        hlen = int.from_bytes(blob[4:8], "big")
        try:
            header = json.loads(blob[8 : 8 + hlen].decode())
            client_id, version = header["client_id"], header["version"]
            size, manifest = int(header["size"]), header.get("manifest")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise FederationError(f"malformed client-update header: {exc}") from None
        payload = blob[8 + hlen :]
        if len(payload) != 8 * size:
            raise FederationError(
                f"payload truncated: expected {size} values ({8 * size} bytes), "
                f"got {len(payload)} bytes"
            )
        weights = np.frombuffer(payload, dtype=np.float64).copy()
        return cls(client_id=client_id, weights=weights, version=version), manifest


@dataclass
class DispatchDecision:
    """Server answer after aggregation: targeted to the uploader or broadcast."""

    mode: str  # "targeted" | "broadcast"
    client_id: int | None
    payload: np.ndarray

    @property
    def is_broadcast(self) -> bool:
        return self.mode == "broadcast"


class ParameterServer:
    """Keeps per-client weight/version records and applies one aggregation rule."""

    def __init__(
        self,
        client_ids: Sequence[int],
        aggregator: str = "staleness",
        staleness_exponent: float = 0.5,
        gap_threshold: int = 5,
        ema_beta: float = 0.9,
        initial_weights: np.ndarray | None = None,
    ):
        if aggregator not in AGGREGATORS:
            raise FederationError(f"unknown aggregator {aggregator!r}; choose {AGGREGATORS}")
        if staleness_exponent < 0:
            raise FederationError("staleness exponent must be >= 0")
        if gap_threshold < 1:
            raise FederationError("gap threshold must be a positive integer")
        if not 0.0 <= ema_beta <= 1.0:
            raise FederationError(f"ema beta must lie in [0, 1], got {ema_beta}")
        self.roster: tuple[int, ...] = tuple(sorted(int(c) for c in client_ids))
        if len(set(self.roster)) != len(self.roster):
            raise FederationError("client ids must be unique")
        self.aggregator = aggregator
        self.staleness_exponent = staleness_exponent
        self.gap_threshold = gap_threshold
        self.ema_beta = ema_beta
        self.weight_records: dict[int, np.ndarray] = {}
        self.version_records: dict[int, int] = {}
        self.initial_weights: np.ndarray | None = (
            None if initial_weights is None else np.array(initial_weights, dtype=np.float64)
        )
        self._ema_vector = self.initial_weights  # rebound by updates, never written in place
        self.decision_log: list[dict] = []

    # -- record keeping ------------------------------------------------------

    def submit(self, update: ClientUpdate) -> None:
        """Record an upload; only the uploader's records change."""
        cid = int(update.client_id)
        if cid not in self.roster:
            raise UnknownClient(f"client {cid} is not registered with this server")
        current = self.version_records.get(cid, 0)
        if update.version <= current:
            raise StalenessRejected(
                f"client {cid} submitted version {update.version}, record already at {current}"
            )
        self.weight_records[cid] = np.array(update.weights, dtype=np.float64)
        self.version_records[cid] = int(update.version)
        if self.aggregator == "ema":
            self._apply_ema(update)

    def latest_version(self) -> int:
        return max(self.version_records.values()) if self.version_records else 0

    def max_version_gap(self) -> int:
        if not self.version_records:
            return 0
        latest = self.latest_version()
        return latest - min(self.version_records.values())

    def staleness_coefficients(self, exponent: float | None = None) -> tuple[list[int], np.ndarray]:
        """Client ids (sorted) and their normalized staleness weights, under
        the configured exponent unless ``exponent`` is given."""
        if not self.weight_records:
            raise EmptyRecords("no client records to aggregate")
        if exponent is None:
            exponent = self.staleness_exponent
        ids = sorted(self.weight_records)
        latest = self.latest_version()
        raw = np.array(
            [float(latest - self.version_records[cid] + 1) ** (-exponent) for cid in ids]
        )
        return ids, raw / raw.sum()

    # -- aggregation rules -----------------------------------------------------

    def aggregate_staleness_weighted(self, exponent: float | None = None) -> np.ndarray:
        """Version-gap-discounted weighted mean of the stored client vectors.

        The reference version is the newest recorded one; switching to the
        uploader's own version is a one-line change here.
        """
        ids, coeffs = self.staleness_coefficients(exponent)
        out = np.zeros_like(self.weight_records[ids[0]])
        for cid, c in zip(ids, coeffs):
            out += c * self.weight_records[cid]
        return out

    def aggregate_fedavg(self) -> np.ndarray:
        """The plain mean: staleness weighting with exponent 0 gives every
        record the weight 1/n."""
        return self.aggregate_staleness_weighted(exponent=0.0)

    def _apply_ema(self, update: ClientUpdate) -> None:
        incoming = np.asarray(update.weights, dtype=np.float64)
        if self._ema_vector is None:
            self._ema_vector = incoming.copy()
        else:
            self._ema_vector = self.ema_beta * self._ema_vector + (1.0 - self.ema_beta) * incoming

    def aggregate_ema(self) -> np.ndarray:
        if self._ema_vector is None:
            raise EmptyRecords("no running average yet: no submissions and no initial weights")
        return self._ema_vector.copy()

    def current_aggregate(self) -> np.ndarray:
        """The global model under the configured rule, given current records;
        a copy of the initial weights while no client has submitted."""
        if not self.version_records:
            if self.initial_weights is None:
                raise EmptyRecords("no client records to aggregate and no initial weights")
            return self.initial_weights.copy()
        if self.aggregator == "fedavg":
            return self.aggregate_fedavg()
        if self.aggregator == "ema":
            return self.aggregate_ema()
        return self.aggregate_staleness_weighted()

    # -- dispatch ---------------------------------------------------------------

    def dispatch(self, aggregated: np.ndarray, uploader_id: int) -> DispatchDecision:
        """Targeted answer to the uploader, or broadcast once the gap is too wide."""
        if self.max_version_gap() >= self.gap_threshold:
            return DispatchDecision(mode="broadcast", client_id=None, payload=aggregated)
        return DispatchDecision(mode="targeted", client_id=int(uploader_id), payload=aggregated)

    def handle(
        self, updates: Sequence[ClientUpdate], tick: int | None = None
    ) -> list[DispatchDecision]:
        """Submit every upload, aggregate once, then dispatch per upload, with
        one JSON-friendly decision log entry each."""
        if not updates:
            return []
        for update in updates:
            self.submit(update)
        aggregated = self.current_aggregate()
        decisions = [self.dispatch(aggregated, update.client_id) for update in updates]
        max_gap = self.max_version_gap()
        self.decision_log.extend(
            {"tick": tick, "client": int(update.client_id), "version": int(update.version),
             "mode": decision.mode, "max_gap": max_gap}
            for update, decision in zip(updates, decisions)
        )
        return decisions


# -- client ------------------------------------------------------------------


class FederatedClient:
    """One training participant: private labeled nodes, local optimizer state.

    The model object holds shared graph structure; ``params`` is this
    client's private copy.  Preference vectors and Adam moments never leave
    the client; downloads replace shared tensor values only.
    """

    def __init__(
        self,
        client_id: int,
        model,
        params: ModelParams,
        train_nodes: Sequence[int],
        labels: np.ndarray,
        learning_rate: float = 0.001,
        rng: np.random.Generator | None = None,
    ):
        train_nodes = np.asarray(train_nodes, dtype=np.int64)
        if train_nodes.size == 0:
            raise FederationError(f"client {client_id}: empty partition, nothing to train on")
        self.client_id = int(client_id)
        self.model = model
        self.params = params
        self.train_nodes = train_nodes
        self.labels = labels
        self.rng = rng if rng is not None else np.random.default_rng()
        self.adam = AdamState.for_params(params, learning_rate=learning_rate)
        self.version = 0
        self.last_loss_sum = 0.0
        self.last_examples = 0

    def install(self, flat_weights: np.ndarray) -> None:
        """Overwrite the shared tensors with downloaded aggregate weights."""
        unpack_shared(flat_weights, self.params)

    def _train_batch(self, batch: np.ndarray) -> float:
        loss, trace = self.model.loss(self.params, batch, self.labels, rng=self.rng)
        grads = self.model.backward(trace)
        adam_step(self.params, grads, self.adam)
        return loss

    def run_round(
        self,
        epochs: int,
        batch_size: int,
        submit: Callable[[ClientUpdate], None] | None = None,
    ) -> ClientUpdate:
        """Train ``epochs`` local epochs of shuffled mini-batches and upload once.

        When ``submit`` is given, the client instead uploads through it after
        every batch (the per-batch communication mode); installing the
        server's answer is left to the caller.  The return value is the last
        upload.  ``epochs=0`` still increments the version and uploads:
        the round happened, it just did no optimizer steps.
        """
        self.last_loss_sum = 0.0
        self.last_examples = 0
        update = None
        for _ in range(epochs):
            order = self.rng.permutation(self.train_nodes)
            for start in range(0, order.size, batch_size):
                batch = order[start : start + batch_size]
                self.last_loss_sum += self._train_batch(batch)
                self.last_examples += batch.size
                if submit is not None:
                    update = self._upload(submit)
        return update if update is not None else self._upload(submit)

    def _upload(self, submit: Callable[[ClientUpdate], None] | None) -> ClientUpdate:
        self.version += 1
        update = ClientUpdate(self.client_id, pack_shared(self.params), self.version)
        if submit is not None:
            submit(update)
        return update

    @property
    def mean_round_loss(self) -> float:
        """Per-node mean training loss of the most recent round (nan if untrained)."""
        if self.last_examples == 0:
            return float("nan")
        return self.last_loss_sum / self.last_examples
