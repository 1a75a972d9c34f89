"""Rezoning an existing map and reporting what planners care about.

Starting the solver from the current boundaries (instead of random growth)
models boundary *adjustment*: the population begins at the existing plan and
improves it, which usually preserves more of the current assignment.  The
planning report compares distance, balance-band counts and the number of
students whose school would change.
"""

import numpy as np

from districter import (MemeticConfig, generate_grid_instance,
                        guided_growth, objective_value, planning_report,
                        spatial_run)

instance = generate_grid_instance(12, 12, 6, seed=3,
                                  balance_profile="clustered")

# stand-in for the district's current boundaries: an old, decent plan
existing = guided_growth(instance, np.random.default_rng(99))
warm_cfg = MemeticConfig(population_size=10, iterations=120)
existing = spatial_run(instance, warm_cfg, np.random.default_rng(99),
                       warm_start=existing).best_plan

print("existing plan J =", round(objective_value(existing, instance), 4))
print(planning_report(existing, instance).to_text())

# redistricting: improve the existing boundaries
rezoned = spatial_run(instance, warm_cfg, np.random.default_rng(1),
                      warm_start=existing).best_plan
print("\nrezoned plan J =", round(objective_value(rezoned, instance), 4))
print(planning_report(rezoned, instance, baseline=existing).to_text())

# districting from scratch finds similar quality but displaces far more
fresh = spatial_run(instance, warm_cfg, np.random.default_rng(1)).best_plan
report = planning_report(fresh, instance, baseline=existing)
print("\nfrom-scratch plan J =", round(objective_value(fresh, instance), 4))
print(f"students displaced from scratch: {report.displaced}"
      f" ({report.displaced_pct:.1f}%)")
