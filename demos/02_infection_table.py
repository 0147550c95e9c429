"""The standard-model infection probability table p_n.

An encounter exposes a susceptible person q times to a cloud of n infected
participants; infection probabilities come from a Monte Carlo estimate over
a 400-cell exposure distribution.  The table is compared with the exact
closed form and then used to infect the floor(p*#susceptible) most exposed
persons of a gathering.
"""

from lockdownsched import analytic_pn, build_pn_table, transmit
from lockdownsched.full_infection import Status

print("p_n = probability that n infected co-visitors infect one susceptible")
print()
print("  n     q=5      q=10     q=30     q=40    (Monte Carlo, 100k runs)")
tables = {q: build_pn_table(q, 100_000, seed=0) for q in (5, 10, 30, 40)}
for n in (1, 2, 5, 9, 20):
    cells = "".join(f"  {tables[q].p_for(n):.4f}" for q in tables)
    print(f" {n:3d}{cells}")
print()
print("  against the exact expression 1-(sum_c P(c)(1-P(c))^n)^q at q=40:")
for n in (1, 5, 20):
    print(f"   n={n:2d}: table {tables[40].p_for(n):.4f}  exact {analytic_pn(n, 40):.4f}")

print()
print("Transmission inside one cell: 9 infected meet susceptibles (q=30)")
nine_infected = [(pid, Status.I) for pid in range(9)]
p = tables[30].p_for(9)
one = nine_infected + [(9, Status.S)]
print(f"  p_9 = {p:.3f}; one susceptible: floor({p:.3f} * 1) = {len(transmit(one, tables[30]))} infected")
five = nine_infected + [(pid, Status.S) for pid in range(9, 14)]
newly = transmit(five, tables[30])
print(f"  five susceptible: floor({p:.3f} * 5) = {len(newly)} infected: {sorted(newly)}")
