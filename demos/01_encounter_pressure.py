"""How a single shared time slot spreads fractional infection.

Walks through the geometric proximity weights, a few worked encounter
groups, and the level update applied after one encounter, cross-checking
the pressure against the closed form for one susceptible among n fully
infected people.
"""

from lockdownsched import EncounterGroup, encounter_pressure, g_factor


def show(title):
    print()
    print(title)
    print("-" * len(title))


def group_of(levels, s):
    return EncounterGroup(tuple(enumerate(levels)), s)


show("Proximity weights for a shop that admits s=4 at a time")
for j in (1, 2, 3, 4):
    print(f"  rank {j}: g = {g_factor(4, j):.6f}")
print("  summed over n infected, the weights telescope to 1-(3/4)^n:")
for n in (1, 2, 3, 20):
    print(f"  n={n:2d}: {sum(g_factor(4, j) for j in range(1, n + 1)):.4f}")

show("A seven-person group, shop admits s=6")
group = group_of([0.3, 0.6, 1.0, 0.0, 0.0, 0.0, 0.0], s=6)
pressure = encounter_pressure(group)
print(f"  levels {[level for _, level in group.participants]}")
print(f"  infection pressure on the most susceptible: {pressure:.4f}")
print("  after the visit every participant moves by p*(1-I):")
for pid, level in group.participants:
    print(f"    person {pid}: I' = {pressure * (1.0 - level) + level:.4f}")

show("One susceptible among n fully infected has the closed form 1-((s-1)/s)^n")
for s, n in ((4, 1), (4, 3), (6, 5), (4, 20)):
    fast = encounter_pressure(group_of([0.0] + [1.0] * n, s))
    exact = 1.0 - ((s - 1) / s) ** n
    print(f"  s={s} n={n:2d}: pressure {fast:.6f}, closed form {exact:.6f}")
