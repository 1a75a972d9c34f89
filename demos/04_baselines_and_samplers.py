"""Comparing the solver against single-solution searches and flip chains.

The baselines walk the same flip neighborhood under different acceptance
rules; the samplers run objective-blind random walks (subject to a balance
band) and simply remember the best state they pass through.
"""

import math

import numpy as np

from districter import (MemeticConfig, SearchConfig, generate_grid_instance,
                        guided_growth, run_chain, spatial_run)
from districter.local_search import SEARCHES

instance = generate_grid_instance(10, 10, 4, seed=42,
                                  balance_profile="clustered")
trials = 5
rows = []

# SHC and SA spend max_iters proposals, the samplers chain_steps.  AIO is
# SHC's rule on the chain budget, so with the same seeds and budgets it
# lands on the same plans; at an infinite band BCAA's extra compactness test
# is void and it coincides with BAA.
config = SearchConfig(max_iters=3000, chain_steps=3000,
                      acceptance_band=math.inf)
for search in SEARCHES:
    js = []
    for t in range(trials):
        rng = np.random.default_rng(t)
        start = guided_growth(instance, rng)
        summary, _ = run_chain(instance, search, config, rng, start)
        js.append(summary.best_j)
    rows.append((search.upper(), np.mean(js), np.std(js)))

js = []
for t in range(trials):
    cfg = MemeticConfig(population_size=10, iterations=60)
    js.append(spatial_run(instance, cfg, np.random.default_rng(t)).best_j)
rows.append(("population solver", np.mean(js), np.std(js)))

print(f"{'method':>18}  {'mean J':>8}  {'std':>7}   (over {trials} trials, "
      "lower is better)")
for name, mean, std in sorted(rows, key=lambda r: r[1]):
    print(f"{name:>18}  {mean:8.4f}  {std:7.4f}")
