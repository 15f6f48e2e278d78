"""Property tests: the parameter server under random interleavings of uploads.

Each example is a random sequence of ``handle`` calls, some with several
uploads.  A call may also carry one bad upload among fresh ones: stale,
repeating an upload earlier in the same call, from an unregistered
client, of the wrong width, not numeric, or with a version beyond int64.
Such a call must raise and leave the server exactly as it was.  The
decision log must then explain the server completely: replaying its
(client, version) pairs into a fresh server rebuilds the aggregate bit
for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhin.federation import (
    AGGREGATORS,
    ClientUpdate,
    FederationError,
    ParameterServer,
    StalenessRejected,
    UnknownClient,
)

from oracles import reference_staleness_aggregate

N_CLIENTS = 4
DIM = 3

BAD_UPLOADS = {
    "stale": StalenessRejected,
    "repeat": StalenessRejected,
    "unregistered": UnknownClient,
    "wrong_width": FederationError,
    "non_numeric": FederationError,
    "version_beyond_int64": FederationError,
}

# one handle call: distinct clients, each with a version step, plus at most
# one bad upload (kind, client, position in the call)
calls = st.tuples(
    st.lists(
        st.tuples(st.integers(0, N_CLIENTS - 1), st.integers(1, 3)),
        min_size=1, max_size=N_CLIENTS, unique_by=lambda upload: upload[0],
    ),
    st.one_of(
        st.none(),
        st.tuples(st.sampled_from(sorted(BAD_UPLOADS)), st.integers(0, N_CLIENTS - 1),
                  st.integers(0, N_CLIENTS)),
    ),
)


def bad_upload(kind, cid, fresh, versions, rng):
    """The bad upload of ``kind`` for a call whose fresh uploads are ``fresh``."""
    if kind == "stale":
        return ClientUpdate(cid, rng.normal(size=DIM), versions.get(cid, 0))
    if kind == "repeat":
        earlier = fresh[cid % len(fresh)]
        return ClientUpdate(earlier.client_id, rng.normal(size=DIM), earlier.version)
    if kind == "unregistered":
        return ClientUpdate(N_CLIENTS + cid, rng.normal(size=DIM), 1)
    if kind == "version_beyond_int64":
        return ClientUpdate(cid, rng.normal(size=DIM), 2**63)
    # far above any fresh version, so only the vector is wrong
    version = versions.get(cid, 0) + 10
    if kind == "non_numeric":
        return ClientUpdate(cid, np.array(["w"] * DIM), version)
    return ClientUpdate(cid, rng.normal(size=DIM + 1), version)


def snapshot(server):
    return (server.versions.tobytes(), server.records.tobytes(), list(server.decision_log),
            server.current_aggregate().tobytes())


@settings(max_examples=150, deadline=None)
@given(
    aggregator=st.sampled_from(AGGREGATORS),
    exponent=st.floats(0.0, 3.0),
    threshold=st.integers(1, 6),
    sequence=st.lists(calls, min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_handle_over_random_interleavings(aggregator, exponent, threshold, sequence, seed):
    rng = np.random.default_rng(seed)
    initial = rng.normal(size=DIM)

    def fresh_server():
        return ParameterServer(
            range(N_CLIENTS), aggregator=aggregator, staleness_exponent=exponent,
            gap_threshold=threshold, ema_beta=0.7, initial_weights=initial,
        )

    server = fresh_server()
    versions: dict[int, int] = {}
    vectors: dict[tuple[int, int], np.ndarray] = {}
    for tick, (call, bad) in enumerate(sequence):
        updates = [
            ClientUpdate(cid, rng.normal(size=DIM), versions.get(cid, 0) + step)
            for cid, step in call
        ]
        if bad is not None:
            kind, cid, position = bad
            # a repeat must follow the upload it repeats
            position = max(position, cid % len(updates) + 1) if kind == "repeat" else position
            updates.insert(position, bad_upload(kind, cid, updates, versions, rng))
            before = snapshot(server)
            with pytest.raises(FederationError) as excinfo:
                server.handle(updates, tick)
            assert excinfo.type is BAD_UPLOADS[kind]
            assert snapshot(server) == before
            continue
        for update in updates:
            versions[update.client_id] = update.version
            vectors[update.client_id, update.version] = update.weights
        aggregate, mode = server.handle(updates, tick)

        # one entry per upload, each following the gap rule after the whole call
        entries = server.decision_log[-len(updates):]
        gap = max(versions.values()) - min(versions.values())
        expected_mode = "broadcast" if gap >= threshold else "targeted"
        assert [(e["tick"], e["client"], e["version"]) for e in entries] == [
            (tick, u.client_id, u.version) for u in updates
        ]
        assert all(e["max_gap"] == gap and e["mode"] == expected_mode for e in entries)
        assert mode == expected_mode
        assert aggregate.tobytes() == server.current_aggregate().tobytes()
        assert server.versions.tolist() == [versions.get(c, 0) for c in range(N_CLIENTS)]
        for cid, version in versions.items():
            assert server.records[cid].tobytes() == vectors[cid, version].tobytes()

        ids, coeffs = server.staleness_coefficients()
        recorded = np.isin(ids, list(versions))
        assert ids == list(range(N_CLIENTS))
        assert np.all(coeffs[recorded] > 0.0) and np.all(coeffs[~recorded] == 0.0)
        assert abs(coeffs.sum() - 1.0) <= 1e-12
        if aggregator != "ema":
            oracle = reference_staleness_aggregate(
                {cid: (vectors[cid, v], v) for cid, v in versions.items()},
                exponent if aggregator == "staleness" else 0.0,
            )
            np.testing.assert_allclose(aggregate, oracle, rtol=1e-12, atol=1e-14)

    latest: dict[int, int] = {}
    for entry in server.decision_log:
        assert entry["version"] > latest.get(entry["client"], 0)
        latest[entry["client"]] = entry["version"]
    assert latest == versions

    replay = fresh_server()
    for entry in server.decision_log:
        key = (entry["client"], entry["version"])
        replay.submit(ClientUpdate(entry["client"], vectors[key], entry["version"]))
    assert replay.current_aggregate().tobytes() == server.current_aggregate().tobytes()
