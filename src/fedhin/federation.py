"""Federated protocol: server-side records, aggregation rules, dispatch, clients.

The parameter server keeps one record table: a float64 array ``records``
with one row per registered client (in ``roster`` order) holding that
client's latest uploaded flat weight vector, and an int64 vector
``versions`` aligned with it holding the latest version number (a
monotone upload counter starting at 1; 0 means nothing recorded yet).
The table's width is fixed by the initial weights.  Three aggregation
rules are provided:

* ``staleness`` — each recorded vector is weighted by
  ``(gap + 1) ** -alpha`` where ``gap`` is how many versions the record
  lags behind the newest one, then weights are renormalized; a client
  with no record weighs 0.  Fresh records dominate, stale ones fade
  smoothly (FedAsync's polynomial staleness function).  The aggregate is
  that coefficient vector times the table.
* ``fedavg`` — the plain unweighted mean of recorded vectors.
* ``ema`` — a server-held running vector updated as
  ``beta * server + (1 - beta) * update`` on every submission.

``handle`` takes the uploads of one call, checks every one of them before
it records any (registered client, version above the record and above any
earlier upload by that client in the call, vector of the table's width),
aggregates once and gives one answer, ``(aggregate, mode)``.  The
aggregate is read-only, and the server hands out the same array until
the next upload changes its records.  The mode is ``targeted`` (only the
uploaders install it) or, when the largest version gap reaches the
configured threshold, ``broadcast`` (everyone does, so stragglers
resynchronize).  Each upload gets one decision-log entry.  A call that
fails a check raises and changes nothing: no record, version, running
vector or log entry.

The server is a serialized state machine: calls are applied one at a time
in arrival order.  ``ClientUpdate.to_bytes`` gives an upload's wire form
(flat vector + shape manifest + id + version), whose length is what the
upload would cost on a network; the simulator itself passes objects.
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


def _readonly(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself when it is a read-only float64 array, else a read-only copy."""
    a = np.asarray(a, dtype=np.float64)
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


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


class ParameterServer:
    """Keeps the record table and applies one aggregation rule.

    ``initial_weights`` is the global model before any upload; its size is
    the table's width.  The server owns the array it is given (it is not
    copied) and never writes it; the caller must not write it either.
    """

    def __init__(
        self,
        client_ids: Sequence[int],
        aggregator: str = "staleness",
        staleness_exponent: float = 0.5,
        gap_threshold: int = 5,
        ema_beta: float = 0.9,
        *,
        initial_weights: np.ndarray,
    ):
        if aggregator not in AGGREGATORS:
            raise FederationError(f"unknown aggregator {aggregator!r}; choose {AGGREGATORS}")
        # written so that NaN, which compares False, is refused
        if not 0 <= staleness_exponent < np.inf:
            raise FederationError(
                f"staleness exponent must be finite and >= 0, got {staleness_exponent}"
            )
        if not gap_threshold >= 1:
            raise FederationError(f"gap threshold must be a positive integer, got {gap_threshold}")
        if not 0.0 <= ema_beta <= 1.0:
            raise FederationError(f"ema beta must lie in [0, 1], got {ema_beta}")
        self.roster: tuple[int, ...] = tuple(sorted(int(c) for c in client_ids))
        if len(set(self.roster)) != len(self.roster):
            raise FederationError("client ids must be unique")
        self.aggregator = aggregator
        self.staleness_exponent = staleness_exponent
        self.gap_threshold = gap_threshold
        self.ema_beta = ema_beta
        self.initial_weights = np.asarray(initial_weights, dtype=np.float64)
        # zeros, not empty: absent rows are weighted 0, and 0 * nan is nan
        self.records = np.zeros((len(self.roster), self.initial_weights.size))
        self.versions = np.zeros(len(self.roster), dtype=np.int64)
        self._ema_vector = self.initial_weights  # rebound by updates, never written in place
        self._aggregate: np.ndarray | None = None  # current_aggregate's answer until a submit
        self.decision_log: list[dict] = []

    # -- record keeping ------------------------------------------------------

    def _check(self, updates: Sequence[ClientUpdate]) -> None:
        """Raise unless every upload, taken in order, may be recorded; writes nothing."""
        width = self.records.shape[1]
        seen: dict[int, int] = {}
        for update in updates:
            cid = int(update.client_id)
            if cid not in self.roster:
                raise UnknownClient(f"client {cid} is not registered with this server")
            current = seen.get(cid, int(self.versions[self.roster.index(cid)]))
            if update.version <= current:
                raise StalenessRejected(
                    f"client {cid} submitted version {update.version}, record already at {current}"
                )
            if update.version > np.iinfo(np.int64).max:
                raise FederationError(f"client {cid} version {update.version} exceeds int64")
            weights = np.asarray(update.weights)
            if weights.shape != (width,) or not np.can_cast(weights.dtype, np.float64):
                raise FederationError(f"client {cid} uploaded {weights.dtype} weights of shape "
                                      f"{weights.shape}, the table holds {width} float64 values")
            seen[cid] = int(update.version)

    def submit(self, update: ClientUpdate) -> None:
        """Record one upload; only the uploader's row and version change."""
        self._check((update,))
        row = self.roster.index(int(update.client_id))
        self.records[row] = update.weights
        self.versions[row] = update.version
        self._aggregate = None
        if self.aggregator == "ema":
            beta = self.ema_beta
            self._ema_vector = beta * self._ema_vector + (1.0 - beta) * self.records[row]

    def latest_version(self) -> int:
        return int(self.versions.max(initial=0))

    def max_version_gap(self) -> int:
        recorded = self.versions[self.versions > 0]
        return int(recorded.max() - recorded.min()) if recorded.size else 0

    def staleness_coefficients(self, exponent: float | None = None) -> tuple[list[int], np.ndarray]:
        """The roster and its normalized staleness weights, aligned with it
        (0 for a client with no record), under the configured exponent
        unless ``exponent`` is given."""
        if not self.versions.any():
            raise EmptyRecords("no client records to aggregate")
        if exponent is None:
            exponent = self.staleness_exponent
        gaps = self.latest_version() - self.versions
        raw = np.where(self.versions > 0, (gaps + 1.0) ** -exponent, 0.0)
        return list(self.roster), raw / raw.sum()

    # -- aggregation rules -----------------------------------------------------

    def aggregate_staleness_weighted(self, exponent: float | None = None) -> np.ndarray:
        """Version-gap-discounted weighted mean of the recorded client vectors.

        The reference version is the newest recorded one; switching to the
        uploader's own version is a one-line change here.
        """
        _, coeffs = self.staleness_coefficients(exponent)
        return coeffs @ self.records

    def aggregate_fedavg(self) -> np.ndarray:
        """The plain mean: staleness weighting with exponent 0 gives every
        record the weight 1/n."""
        return self.aggregate_staleness_weighted(exponent=0.0)

    def current_aggregate(self) -> np.ndarray:
        """The global model under the configured rule, given current records;
        the initial weights while no client has submitted.

        The answer is computed once per change of the records and returned
        read-only, so every caller until the next ``submit`` gets the same
        array."""
        if self._aggregate is None:
            self._aggregate = _readonly(self._compute_aggregate())
        return self._aggregate

    def _compute_aggregate(self) -> np.ndarray:
        if not self.versions.any():
            return self.initial_weights
        if self.aggregator == "fedavg":
            return self.aggregate_fedavg()
        if self.aggregator == "ema":
            return self._ema_vector
        return self.aggregate_staleness_weighted()

    # -- dispatch ---------------------------------------------------------------

    def dispatch(self) -> str:
        """``"broadcast"`` once the widest version gap reaches the threshold,
        else ``"targeted"`` (only the uploaders get the answer)."""
        return "broadcast" if self.max_version_gap() >= self.gap_threshold else "targeted"

    def handle(
        self, updates: Sequence[ClientUpdate], tick: int | None = None
    ) -> tuple[np.ndarray, str]:
        """Check every upload, record them all, aggregate once and answer
        ``(aggregate, mode)``, with one JSON-friendly decision-log entry per
        upload.  A call that fails a check raises and changes nothing."""
        if not updates:
            raise FederationError("a call to handle needs at least one upload")
        self._check(updates)
        for update in updates:
            self.submit(update)
        aggregate, mode, max_gap = self.current_aggregate(), self.dispatch(), self.max_version_gap()
        self.decision_log.extend(
            {"tick": tick, "client": int(update.client_id), "version": int(update.version),
             "mode": mode, "max_gap": max_gap}
            for update in updates
        )
        return aggregate, mode


# -- client ------------------------------------------------------------------


class FederatedClient:
    """One training participant: private labeled nodes, local optimizer state.

    Between rounds a client holds a read-only reference, ``shared``, to the
    last shared-weight vector it received or uploaded, and ``adam``, its
    moments (rows of the experiment's tables) and learning rate.  It trains
    in ``work``, a parameter buffer every client of the experiment may
    share; the first batch after the reference changed copies ``shared``
    into it.  ``work.pref`` is the one preference table: a client's steps
    move only its training nodes' rows.  Preference vectors and moments are
    never uploaded; downloads replace the shared weights only.
    """

    def __init__(
        self,
        client_id: int,
        model,
        work: ModelParams,
        shared: np.ndarray,
        train_nodes: Sequence[int],
        labels: np.ndarray,
        adam: AdamState,
        rng: np.random.Generator,
    ):
        train_nodes = np.asarray(train_nodes, dtype=np.int64)
        if train_nodes.size == 0:
            raise FederationError(f"client {client_id}: empty partition, nothing to train on")
        self.client_id = int(client_id)
        self.model = model
        self.work = work
        self.shared = _frozen(shared)
        self.train_nodes = train_nodes
        self.labels = labels
        self.rng = rng
        self.adam = adam
        self.version = 0
        self.last_loss_sum = 0.0
        self.last_examples = 0
        self._loaded = False  # in a round: whether work holds this client's weights

    def install(self, flat_weights: np.ndarray) -> None:
        """Take downloaded aggregate weights as this client's shared weights,
        by reference; the work buffer gets them before its next batch."""
        self.shared = _frozen(flat_weights)
        self._loaded = False

    def _train_batch(self, batch: np.ndarray) -> float:
        if not self._loaded:
            unpack_shared(self.shared, self.work)
            self._loaded = True
        trace = self.model.forward(self.work, batch, labels=self.labels, rng=self.rng)
        grads = self.model.backward(trace)
        adam_step(self.work, grads, self.adam)
        return trace.total_loss

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
        upload, which is also the client's shared weights until it installs
        others.  ``epochs=0`` still increments the version and uploads:
        the round happened, it just did no optimizer steps.
        """
        self.last_loss_sum = 0.0
        self.last_examples = 0
        self._loaded = False  # another client may have trained in work since
        update = None
        for _ in range(epochs):
            order = self.rng.permutation(self.train_nodes)
            for start in range(0, order.size, batch_size):
                batch = order[start : start + batch_size]
                self.last_loss_sum += self._train_batch(batch)
                self.last_examples += batch.size
                if submit is not None:
                    update = self._upload(submit)
        if update is None:
            update = self._upload(submit)
        return update

    def _upload(self, submit: Callable[[ClientUpdate], None] | None) -> ClientUpdate:
        self.version += 1
        if self._loaded:  # work holds weights trained past the reference
            self.shared = pack_shared(self.work)
            self.shared.flags.writeable = False
        update = ClientUpdate(self.client_id, self.shared, self.version)
        if submit is not None:
            submit(update)
        return update
