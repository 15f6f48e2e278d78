"""Aggregation rules under client-speed skew.

Three clients hold disjoint label sets of the same graph; the third is
three times slower, so its server record ages between uploads.  Plain
averaging keeps pulling the aggregate toward that stale record, the
exponential moving average dilutes it with a fixed factor, and the
staleness-weighted rule discounts it by its version gap.  The loss
curves show the difference round by round.
"""

from fedhin import preset_aggregator_comparison, run_experiment, synthetic_hin

graph = synthetic_hin(seed=0)

results = {}
for config in preset_aggregator_comparison(rounds=40, seed=0):
    records = list(run_experiment(config, graph))
    results[config.aggregator] = records
    print(f"{config.aggregator:>10}: final loss {records[-1].loss:.4f}, "
          f"micro-F1 {records[-1].micro_f1:.3f}, "
          f"max version gap {max(r.max_version_gap for r in records)}")

print(f"\nper-round training loss (speed multipliers {(1, 1, 3)}):")
print("round  staleness   fedavg      ema")
for rnd in range(5, 41, 5):
    row = [results[a][rnd].loss for a in ("staleness", "fedavg", "ema")]
    print(f"{rnd:5d}  {row[0]:.4f}     {row[1]:.4f}     {row[2]:.4f}")

wins = sum(
    1 for s, f in zip(results["staleness"][10:], results["fedavg"][10:]) if s.loss <= f.loss
)
total = len(results["staleness"]) - 10
print(f"\nstaleness weighting at or below plain averaging in {wins}/{total} "
      f"rounds from round 10 on")
