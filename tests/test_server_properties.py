"""Property tests: the parameter server under random interleavings of uploads.

Each example is a random sequence of ``handle`` calls, some with several
uploads, plus uploads that do not advance their client's version and must
be rejected without a trace.  The decision log must then explain the
server completely: replaying its (client, version) pairs into a fresh
server rebuilds the aggregate bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhin.federation import AGGREGATORS, ClientUpdate, ParameterServer, StalenessRejected

N_CLIENTS = 4
DIM = 3

# one handle call: distinct clients, each with a version step; a step of 0
# is a stale upload, sent alone and expected to be rejected
calls = st.lists(
    st.lists(
        st.tuples(st.integers(0, N_CLIENTS - 1), st.integers(0, 3)),
        min_size=1, max_size=N_CLIENTS, unique_by=lambda upload: upload[0],
    ),
    min_size=1, max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(
    aggregator=st.sampled_from(AGGREGATORS),
    exponent=st.floats(0.0, 3.0),
    threshold=st.integers(1, 6),
    sequence=calls,
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
    for tick, call in enumerate(sequence):
        stale = [(cid, step) for cid, step in call if step == 0]
        if stale:
            cid = stale[0][0]
            log_before, aggregate_before = list(server.decision_log), server.current_aggregate()
            with pytest.raises(StalenessRejected):
                server.handle([ClientUpdate(cid, rng.normal(size=DIM), versions.get(cid, 0))], tick)
            assert server.decision_log == log_before
            assert server.current_aggregate().tobytes() == aggregate_before.tobytes()
            continue
        updates = []
        for cid, step in call:
            versions[cid] = versions.get(cid, 0) + step
            vectors[cid, versions[cid]] = rng.normal(size=DIM)
            updates.append(ClientUpdate(cid, vectors[cid, versions[cid]], versions[cid]))
        decisions = server.handle(updates, tick)

        # one entry per upload, each following the gap rule after the whole call
        entries = server.decision_log[-len(updates):]
        gap = max(versions.values()) - min(versions.values())
        mode = "broadcast" if gap >= threshold else "targeted"
        assert [(e["tick"], e["client"], e["version"]) for e in entries] == [
            (tick, u.client_id, u.version) for u in updates
        ]
        assert all(e["max_gap"] == gap and e["mode"] == mode for e in entries)
        assert [d.mode for d in decisions] == [mode] * len(updates)

        ids, coeffs = server.staleness_coefficients()
        assert ids == sorted(versions)
        assert np.all(coeffs > 0.0)
        assert abs(coeffs.sum() - 1.0) <= 1e-12

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
