"""The benchmark's workloads and the inputs each one builds from a seed.

Every workload runs the deterministic virtual-tick scheduler, so the
load is a closed loop: a client starts its next local round only after
the server has answered its previous upload, and the tick order fixes
who goes when.  The benchmark seed is the only input; the graph seed
and ``config.seed`` are derived from it, and the program receives only
the generated graph and config.  Why each workload is here is written
in ``BENCHMARK.json`` for the listed ones and in ``README.md`` for all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fedhin import ExperimentConfig, preset_synthetic_config


@dataclass(frozen=True)
class Workload:
    name: str
    authors: int
    rounds: int
    # lowest final micro-F1 the correctness gate accepts; every seed tried
    # while sizing scored at least 0.975 on each workload, chance is 0.25
    f1_floor: float
    overrides: dict = field(default_factory=dict)

    def inputs(self, seed: int) -> tuple[int, ExperimentConfig]:
        """The graph seed and the experiment config for one benchmark seed."""
        graph_seed, config_seed = (
            int(v) for v in np.random.SeedSequence(seed).generate_state(2)
        )
        config = preset_synthetic_config(rounds=self.rounds, seed=config_seed, **self.overrides)
        return graph_seed, config


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="preset-round",
            authors=400,
            rounds=40,
            f1_floor=0.9,
            overrides=dict(clients=3, granularity="round", aggregator="staleness"),
        ),
        Workload(
            name="skew-batch",
            authors=400,
            rounds=12,
            f1_floor=0.9,
            overrides=dict(
                clients=16,
                speed_multipliers=(1,) * 8 + (2,) * 4 + (3,) * 2 + (5,) * 2,
                embedding_dim=128,
                batch_size=16,
                granularity="batch",
                aggregator="staleness",
                gap_threshold=5,
            ),
        ),
        Workload(
            name="scale-2k",
            authors=2000,
            rounds=6,
            f1_floor=0.9,
            overrides=dict(clients=3, granularity="round", aggregator="staleness"),
        ),
    )
}


def due_clients(config: ExperimentConfig, tick: int) -> list[int]:
    """Client ids that train on ``tick`` under the deterministic scheduler."""
    speeds = config.speeds()
    return [c for c in range(config.clients) if tick % speeds[c] == 0]


def expected_work(config: ExperimentConfig, train_sizes: list[int]) -> tuple[int, int]:
    """Uploads and training examples a complete run makes over rounds 1..R.

    Each due client trains ``local_epochs`` passes over its training nodes
    per round and uploads once, or, with ``granularity="batch"``, once per
    local batch (at least once per round).
    """
    uploads = examples = 0
    for tick in range(1, config.rounds + 1):
        for cid in due_clients(config, tick):
            examples += config.local_epochs * train_sizes[cid]
            if config.granularity == "batch":
                batches = config.local_epochs * -(-train_sizes[cid] // config.batch_size)
                uploads += max(batches, 1)
            else:
                uploads += 1
    return uploads, examples
