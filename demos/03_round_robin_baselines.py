"""Round-robin slot allocation under both infection models.

Generates a synthetic week of visit requests, assigns every visit request with
the three fixed rotation schemes, and simulates the outcomes: intensive
care survivors N_H, deaths N_D, and the weighted cost 0.35*N_H + 0.65*N_D.
"""

from lockdownsched import (
    build_pn_table,
    fitness_value,
    generate_dataset,
    mark_apriori_infection,
    round_robin,
    simulate,
)
from lockdownsched.dataset import request_index

SEED = 12345
ds = generate_dataset(seed=SEED)
print(f"dataset: {len(ds.persons)} persons, {request_index(ds).n_requests} visit requests")

print()
print("Fractional model, shops admit s=4, a-priori infection by age group:")
priors = {20: 0.01, 40: 0.03, 50: 0.02}
partial_ds = ds.with_taxonomy(priors)
print(f"  priors {priors}")
for variant in ("comp1", "comp2", "comp3"):
    plan = round_robin(partial_ds, variant)
    outcome = simulate(partial_ds, plan, "partial", s=4)
    n_h, n_d = outcome.counts()
    cost = -fitness_value(n_h, n_d) + 0.0
    iso = sum(day >= 0 for day in outcome.isolation_day)
    print(f"  {variant}: N_H={n_h:3d}  N_D={n_d:3d}  cost={cost:6.2f}  isolated={iso}")

print()
print("Standard model, q=5 exposure trials, 5.3% infected / 2.1% immune:")
full_ds = mark_apriori_infection(ds, 0.053, 0.021, seed=SEED)
table = build_pn_table(5, 100_000, seed=0)
for variant in ("comp1", "comp2", "comp3"):
    plan = round_robin(full_ds, variant)
    outcome = simulate(full_ds, plan, "full", table=table)
    n_h, n_d = outcome.counts()
    cost = -fitness_value(n_h, n_d) + 0.0
    infected = sum(1 for status, _ in outcome.final_status if status == "I")
    print(f"  {variant}: N_H={n_h:3d}  N_D={n_d:3d}  cost={cost:6.2f}  infected={infected}")

print()
print("Spreading visits over more slots thins the crowds; the cost drop")
print("from comp1 to comp3 is the baseline an optimiser has to beat.")
