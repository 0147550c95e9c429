import numpy as np
import pytest

from lockdownsched.full_infection import (
    MAX_TABLE_N,
    RAW_RANGE,
    _BATCH_DRAWS,
    PnTable,
    Status,
    _raw_cells,
    analytic_pn,
    build_pn_table,
    cell_of,
    cell_probabilities,
    transmit,
)


def where_cells(raw):
    """The nested np.where the sampler used before it read _raw_cells: the
    oracle for the table's bits."""
    return np.where(
        raw <= 600, raw // 2,
        np.where(raw <= 2100, 300 + (raw - 600) // 30, 350 + (raw - 2100) // 102),
    )


def where_table_probs(q, iterations, seed):
    """build_pn_table's p_1..p_20 as built with where_cells."""
    rng = np.random.default_rng(seed)
    met_counts = np.zeros(MAX_TABLE_N, dtype=np.int64)
    batch = max(1, min(iterations, 4_000_000 // (q * (MAX_TABLE_N + 1))))
    done = 0
    while done < iterations:
        m = min(batch, iterations - done)
        raw = rng.integers(1, RAW_RANGE + 1, size=(m, q, MAX_TABLE_N + 1), dtype=np.int32)
        cells = where_cells(raw)
        met = cells[:, :, 1:] == cells[:, :, :1]
        met_counts += np.logical_or.accumulate(met.any(axis=1), axis=1).sum(axis=0)
        done += m
    return tuple(met_counts / iterations)


def test_cell_mapping_boundaries():
    assert cell_of(1) == 0
    assert cell_of(2) == 1
    assert cell_of(599) == 299
    assert cell_of(600) == 300
    assert cell_of(601) == 300
    assert cell_of(629) == 300
    assert cell_of(630) == 301
    assert cell_of(2100) == 350
    assert cell_of(2101) == 350
    assert cell_of(7199) == 399


def test_cell_table_is_cell_of():
    raw = np.arange(1, RAW_RANGE + 1)
    table = _raw_cells()
    assert table.shape == (RAW_RANGE + 1,)
    assert table[raw].tolist() == [cell_of(i) for i in range(1, RAW_RANGE + 1)]
    assert table[raw].tolist() == where_cells(raw).tolist()


def test_cell_probabilities_match_the_counting_loop():
    counts = np.zeros(max(cell_of(i) for i in range(1, RAW_RANGE + 1)) + 1)
    for i in range(1, RAW_RANGE + 1):
        counts[cell_of(i)] += 1
    expected = counts / RAW_RANGE
    got = cell_probabilities()
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tolist() == expected.tolist()


# iteration counts just past one of the where sampler's batches, so it takes
# two, while build_pn_table takes batches of its own size
@pytest.mark.parametrize("q, iterations", [(1, 200_000), (4, 50_000), (40, 5_000)])
def test_table_bits_match_the_where_sampler(q, iterations):
    assert 4_000_000 // (q * (MAX_TABLE_N + 1)) < iterations
    for seed in (0, 7):
        expected = where_table_probs(q, iterations, seed)
        assert build_pn_table(q, iterations, seed).probs == expected


# q=1 makes an odd number of draws per batch, q=4 is the benchmark's
@pytest.mark.parametrize("q", [1, 4])
def test_batches_do_not_change_the_table(q):
    batch = _BATCH_DRAWS // (q * (MAX_TABLE_N + 1))
    iterations = 3 * batch + batch // 2  # three whole batches and a partial one
    seed = 5
    # every draw in one call, as a reference
    rng = np.random.default_rng(seed)
    raw = rng.integers(
        1, RAW_RANGE + 1, size=(iterations, q, MAX_TABLE_N + 1), dtype=np.int32
    )
    cells = where_cells(raw)
    met = (cells[:, :, 1:] == cells[:, :, :1]).any(axis=1)
    expected = np.logical_or.accumulate(met, axis=1).sum(axis=0) / iterations
    assert build_pn_table(q, iterations, seed).probs == tuple(expected)


def test_cell_distribution_structure():
    p = cell_probabilities()
    counts = (p * 7200).round().astype(int)
    assert counts.sum() == 7200
    assert counts[0] == 1
    assert all(counts[1:300] == 2)
    assert all(counts[300:350] == 30)
    assert all(counts[350:400] == 102)


def test_analytic_oracle_reference_points():
    # per-trial co-location chance is about 0.0109, so with one infected and
    # forty trials the meeting probability sits near 0.356
    assert analytic_pn(1, 40) == pytest.approx(0.3557, abs=2e-3)
    assert analytic_pn(9, 30) == pytest.approx(0.947, abs=5e-3)
    assert analytic_pn(1, 5) < analytic_pn(1, 40)


def test_build_table_deterministic_and_monotone():
    t1 = build_pn_table(5, iterations=20_000, seed=11)
    t2 = build_pn_table(5, iterations=20_000, seed=11)
    assert t1 == t2
    probs = np.array(t1.probs)
    assert len(probs) == 20
    assert (np.diff(probs) >= 0).all()
    assert (probs <= 1).all() and (probs >= 0).all()
    t3 = build_pn_table(5, iterations=20_000, seed=12)
    assert t3 != t1


def test_build_table_close_to_oracle_small_run():
    table = build_pn_table(10, iterations=30_000, seed=3)
    for n in (1, 5, 20):
        assert table.p_for(n) == pytest.approx(analytic_pn(n, 10), abs=0.02)


def test_p_for_out_of_range():
    table = PnTable(5, tuple(0.05 * i for i in range(1, 21)))
    assert table.p_for(21) == 1.0
    assert table.p_for(40) == 1.0
    assert table.p_for(0) == 0.0
    with pytest.raises(ValueError):
        build_pn_table(0, iterations=10, seed=1)


@pytest.mark.parametrize("iterations", [0, -5])
def test_build_table_needs_an_iteration(iterations):
    # zero iterations divided 0 by 0; a negative count gave a table of -0.0
    with pytest.raises(ValueError, match="iterations"):
        build_pn_table(4, iterations)


def infected(pid):
    return (pid, Status.I)


def susceptible(pid):
    return (pid, Status.S)


def immune(pid):
    return (pid, Status.R)


def table_with(probs_by_n):
    probs = [0.0] * 20
    for n, p in probs_by_n.items():
        probs[n - 1] = p
    return PnTable(5, tuple(probs))


def test_transmit_truncation_keeps_lone_susceptible_safe():
    table = table_with({9: 0.947})
    enc = [infected(i) for i in range(9)] + [susceptible(100)]
    assert transmit(enc, table) == set()


def test_transmit_no_action_cases():
    # certain infection once anyone infected meets anyone susceptible
    table = table_with({1: 1.0, 2: 1.0})
    assert transmit([], table) == set()
    assert transmit([susceptible(1)], table) == set()
    assert transmit([infected(1)], table) == set()
    assert transmit([susceptible(1), susceptible(2)], table) == set()
    assert transmit([infected(1), infected(2)], table) == set()
    assert transmit([immune(1), immune(2)], table) == set()
    assert transmit([infected(1), immune(2)], table) == set()
    assert transmit([susceptible(1), immune(2)], table) == set()


def test_transmit_above_table_range_infects_everyone():
    table = table_with({})
    enc = [infected(i) for i in range(25)] + [susceptible(100 + i) for i in range(4)]
    assert transmit(enc, table) == {100, 101, 102, 103}


def test_transmit_floor_and_id_order():
    table = table_with({2: 0.66})
    enc = [infected(0), infected(1), susceptible(12), susceptible(4), susceptible(9)]
    # floor(0.66 * 3) = 1, lowest id first
    assert transmit(enc, table) == {4}
    table = table_with({2: 0.67})
    assert transmit(enc, table) == {4, 9}


def test_transmit_never_touches_immune():
    table = table_with({1: 1.0})
    enc = [infected(0), immune(1), susceptible(2)]
    assert transmit(enc, table) == {2}
