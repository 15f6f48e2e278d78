"""The staleness-weighted aggregation rule, step by step.

The server remembers each client's latest weight vector and version
number.  At aggregation time every stored vector is weighted by
(version gap + 1) ** -alpha and the weights are renormalized: a client
whose record lags the newest version fades smoothly instead of dragging
the average.  When the widest gap reaches a threshold the server stops
answering only the uploader and broadcasts to everyone.
"""

import numpy as np

from fedhin import ClientUpdate, ParameterServer

def show(alpha):
    server = ParameterServer(
        client_ids=[0, 1, 2], aggregator="staleness",
        staleness_exponent=alpha, gap_threshold=5, initial_weights=np.zeros(2),
    )
    # one call carrying three uploads gets one answer: (aggregate, mode)
    agg, mode = server.handle([
        ClientUpdate(0, np.array([1.0, 0.0]), version=8),
        ClientUpdate(1, np.array([0.0, 1.0]), version=7),
        ClientUpdate(2, np.array([4.0, 4.0]), version=2),
    ])
    _, coeffs = server.staleness_coefficients()
    print(f"alpha={alpha:>4}: coefficients {np.round(coeffs, 4).tolist()} "
          f"aggregate {np.round(agg, 3).tolist()}")
    return server, mode

print("versions (8, 7, 2): client 2 is five versions stale\n")
for alpha in (0.0, 0.5, 1.0, 2.0):
    server, mode = show(alpha)
print("\nalpha=0 ignores staleness (plain average); larger alpha mutes client 2.")

# The dispatch rule: gap 6 >= threshold 5, so the answer is a broadcast.
print(f"\nmax version gap {server.max_version_gap()} >= threshold 5 "
      f"-> dispatch mode: {mode}")

# The textbook two-client case: versions (5, 3) with alpha=1 give raw
# weights (1, 1/3), i.e. normalized (0.75, 0.25).
server = ParameterServer(
    client_ids=[0, 1], aggregator="staleness", staleness_exponent=1.0,
    initial_weights=np.zeros(2),
)
server.submit(ClientUpdate(0, np.array([1.0, 1.0]), version=5))
server.submit(ClientUpdate(1, np.array([5.0, 5.0]), version=3))
_, coeffs = server.staleness_coefficients()
print(f"\nversions (5, 3), alpha=1: normalized weights {coeffs.tolist()}, "
      f"aggregate {server.aggregate_staleness_weighted().tolist()}")
