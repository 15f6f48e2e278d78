"""Train the two-level attention embedding model on one machine.

The model scores each meta-path neighbor by the cosine of transformed
adjacency features (node-level attention), aggregates, then weighs the
per-path embeddings with a learned per-node preference vector
(meta-path-level attention).  A linear head trains the whole stack
against author labels.  A single-client federation is exactly
centralized training, so we reuse the experiment runner with clients=1.
"""

import numpy as np

from fedhin import build_experiment, preset_synthetic_config, run_experiment, synthetic_hin

graph = synthetic_hin(seed=0)  # 400 authors, 4 classes
config = preset_synthetic_config(
    clients=1, rounds=30, local_epochs=1, batch_size=64, seed=0
)
print(f"training: d={config.embedding_dim}, lr={config.learning_rate}, "
      f"meta paths {config.metapaths}")

setup = build_experiment(config, graph)
records = list(run_experiment(config, graph, setup=setup))
print("\nround   loss    micro-F1")
for record in records[::5]:
    print(f"{record.round:5d}  {record.loss:6.4f}   {record.micro_f1:.3f}")

final = records[-1]
print(f"\nfinal micro-F1 {final.micro_f1:.3f}, macro-F1 {final.macro_f1:.3f}")
print(f"untrained baseline was {records[0].micro_f1:.3f} (chance is 0.25)")

# The per-path attention is interpretable: which meta path does each
# author lean on?  Install the trained aggregate to peek at the trace.
trace = setup.model.forward(setup.global_params(), np.arange(8))
print("\nmeta-path attention of the first 8 authors (APA vs APPA):")
for author, coeffs in zip(trace.batch, trace.path_coeffs):
    print(f"  author {author}: {np.round(coeffs, 3)}")
