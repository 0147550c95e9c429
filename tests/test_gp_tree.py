"""Program-tree machine semantics, pinned by a hand-run trace."""

import hashlib
import math
import os
import random
import struct
import subprocess
import sys

import numpy as np
import pytest

from lockdownsched import gp_tree as gt
from lockdownsched._simcore import bound_array
from lockdownsched.gp_tree import (
    MAX_VECTOR_LEN,
    compile_postfix,
    crossover,
    eval_tree,
    mutate,
    ramped_population,
    random_tree,
    run_vm,
)

from scalar_oracles import (
    crossover_by_randrange,
    mutate_by_randrange,
    random_tree_by_choice,
)

KIND_CODES = {name: code for code, name in enumerate(gt.KIND_NAMES)}


def constant(value: int) -> tuple:
    """A one-node tree: the Constant leaf with the given payload."""
    if not -127 <= value <= 128:
        raise ValueError("constant payload outside -127..128")
    return ((gt.CONSTANT, float(value)),)


def sconstant(numerator: int) -> tuple:
    """A one-node tree: the sConstant leaf numerator / 255."""
    if not 0 <= numerator <= 255:
        raise ValueError("scaled constant numerator outside 0..255")
    return ((gt.SCONSTANT, numerator / 255.0),)


def node(kind: str, left: tuple, right: tuple) -> tuple:
    """The tree of an operator over two subtrees, in preorder."""
    code = KIND_CODES[kind]
    if code <= gt.SCONSTANT:
        raise ValueError(f"{kind} is a terminal")
    return ((code, 0.0),) + left + right


def shape(tree, i=0) -> tuple:
    """(depth, end) of the subtree at preorder index i, end being one past
    its last node: recursion over the shape, an oracle for the slice bounds
    variation computes with a count.  A leaf has depth 0."""
    if tree[i][0] <= gt.SCONSTANT:
        return 0, i + 1
    left, mid = shape(tree, i + 1)
    right, end = shape(tree, mid)
    return 1 + max(left, right), end


def build_golden_tree():
    """Chained tree exercising every one of the fifteen node kinds once+.

    The hand-run below it is the authority for the machine semantics.
    """
    n1 = node("SetMem1", constant(7), constant(3))
    n2 = node("SetMem2", constant(4), constant(9))
    n3 = node("AddNumber", n1, n2)
    n4 = node("AddRecord", n3, constant(2))
    n5 = node(
        "WriteRecord",
        node("GetMem1", n4, constant(1)),
        node("GetMem2", constant(1), constant(1)),
    )
    n6 = node(
        "AddRecord",
        node(
            "SubtractNumber",
            node("DivideNumber", constant(1), constant(0)),
            constant(0),
        ),
        n5,
    )
    n7 = node("SubRecord", n6, node("AverageNumber", constant(3), constant(8)))
    n8 = node(
        "WriteRecord",
        node("AddNumber", n7, constant(5)),
        node("MultiplyNumber", constant(2), sconstant(51)),
    )
    n9 = node("ZeroRecord", n8, constant(0))
    n10 = node("SubRecord", n9, constant(1))
    n11 = node("SubRecord", n10, constant(1))
    return node("WriteRecord", n11, sconstant(0))


GOLDEN_TRACE = [
    ("SetMem1", 1, 1),
    ("SetMem2", 1, 1),
    ("AddRecord", 2, 2),
    ("GetMem1", 2, 2),
    ("GetMem2", 2, 2),
    ("WriteRecord", 3, 2),
    ("AddRecord", 3, 3),
    ("SubRecord", 2, 3),
    ("WriteRecord", 3, 3),
    ("ZeroRecord", 4, 3),
    ("SubRecord", 3, 3),
    ("SubRecord", 2, 3),
    ("WriteRecord", 3, 3),
]


class TestGoldenTrace:
    def test_final_vector(self):
        assert eval_tree(build_golden_tree()) == [0.0001, 16.0, 0.4]

    def test_root_value_and_state(self):
        value, st = run_vm(compile_postfix(build_golden_tree()))
        assert value == 0.0
        assert st.p_r == 3
        assert st.p_z == 3
        assert st.m1 == 3.0
        assert st.m2 == 2.0

    def test_event_trace(self):
        trace = []
        run_vm(compile_postfix(build_golden_tree()), trace)
        assert trace == GOLDEN_TRACE

    def test_write_pointer_runs_past_length_pointer(self):
        # events 6 and 10 in the trace pin p_r > p_z
        trace = []
        run_vm(compile_postfix(build_golden_tree()), trace)
        assert ("WriteRecord", 3, 2) in trace
        assert ("ZeroRecord", 4, 3) in trace

    def test_bounded_vector(self):
        bounded = bound_array(eval_tree(build_golden_tree()))
        assert bounded.tolist() == [0.0001, 0.0001, 0.4]

    def test_vm_agrees(self):
        # eval_tree is the machine's printed vector and nothing else
        value, st = run_vm(compile_postfix(build_golden_tree()))
        assert (value, st.result()) == (0.0, eval_tree(build_golden_tree()))

    def test_postfix_length(self):
        tree = build_golden_tree()
        assert len(compile_postfix(tree)) == len(tree)


class TestNodeSemantics:
    def test_terminal_payloads(self):
        assert constant(-127) == ((gt.CONSTANT, -127.0),)
        assert constant(128) == ((gt.CONSTANT, 128.0),)
        assert sconstant(51)[0][1] == pytest.approx(0.2)
        assert sconstant(255) == ((gt.SCONSTANT, 1.0),)
        with pytest.raises(ValueError):
            constant(129)
        with pytest.raises(ValueError):
            sconstant(-1)

    def test_arithmetic_only_tree_prints_seed_cell(self):
        tree = node("AddNumber", constant(2), constant(3))
        value, st = run_vm(compile_postfix(tree))
        assert value == 5.0
        assert st.result() == [0.0001]

    def test_divide_by_near_zero_uses_one(self):
        tree = node("DivideNumber", constant(7), sconstant(0))
        value, _ = run_vm(compile_postfix(tree))
        assert value == 7.0
        tree = node("DivideNumber", constant(7), constant(2))
        assert run_vm(compile_postfix(tree))[0] == 3.5
        # a NaN divisor is not near zero, so the quotient stays NaN
        inf = constant(128)
        for _ in range(8):
            inf = node("MultiplyNumber", inf, inf)  # 128 ** 256 overflows
        tree = node("DivideNumber", constant(7), node("SubtractNumber", inf, inf))
        assert math.isnan(run_vm(compile_postfix(tree))[0])

    def test_average(self):
        tree = node("AverageNumber", constant(3), constant(8))
        assert run_vm(compile_postfix(tree))[0] == 5.5

    def test_write_record_returns_right_and_writes_left(self):
        tree = node("WriteRecord", constant(5), constant(3))
        value, st = run_vm(compile_postfix(tree))
        assert value == 3.0
        assert st.p_r == 2
        assert st.p_z == 1
        assert st.result() == [0.0001]
        assert st.r[2] == 5.0

    def test_add_record_grows_vector(self):
        tree = node("AddRecord", constant(5), constant(3))
        value, st = run_vm(compile_postfix(tree))
        assert value == 5.0
        assert st.result() == [0.0001, 5.0]
        assert st.p_r == st.p_z == 2

    def test_sub_record_floors_at_one(self):
        tree = node("SubRecord", constant(5), constant(3))
        value, st = run_vm(compile_postfix(tree))
        assert value == 5.0
        assert st.p_r == 1

    def test_zero_record_writes_small_value(self):
        tree = node("AddRecord", node("ZeroRecord", constant(5), constant(3)), constant(0))
        _, st = run_vm(compile_postfix(tree))
        # ZeroRecord parked 0.00001 in cell 2, AddRecord then overwrote it
        assert st.result() == [0.0001, 5.0]
        tree = node("ZeroRecord", node("AddRecord", constant(5), constant(3)), constant(0))
        _, st = run_vm(compile_postfix(tree))
        assert st.result() == [0.0001, 5.0]
        assert st.r[3] == 0.00001

    def test_memories(self):
        tree = node("SetMem1", constant(5), constant(3))
        value, st = run_vm(compile_postfix(tree))
        assert (value, st.m1) == (5.0, 3.0)
        tree = node("SetMem2", constant(5), constant(3))
        value, st = run_vm(compile_postfix(tree))
        assert (value, st.m2) == (3.0, 2.5)
        tree = node("GetMem1", constant(5), constant(3))
        assert run_vm(compile_postfix(tree))[0] == 0.0

    def test_get_mem_children_still_run(self):
        # the children of a memory read are evaluated for their side effects
        inner = node("AddRecord", constant(9), constant(1))
        tree = node("GetMem1", inner, constant(1))
        value, st = run_vm(compile_postfix(tree))
        assert value == 0.0
        assert st.result() == [0.0001, 9.0]


# taken from a recursive evaluator while a second, array-based one agreed with
# it on every tree
RANDOM_DIGEST = "c7913c3b5a2059b5ef4888f4aa21ac3f47afdc7fbe753de7482979d406203311"
NEAR_CAP_DIGEST = "11556b3a04c8da109d058a6b1c60a4e569641353de9587a0cb8875641e97f11c"
SPINE_DIGEST = "6f04a318d72012058550ff2be452554e657299a227f547ce13e305121d183835"


def _seeded_random_trees():
    rng = random.Random(7)
    for _ in range(300):
        yield random_tree(rng, rng.randint(1, 7), rng.choice(["grow", "full"]))


def _near_cap_trees():
    rng = random.Random(11)
    for _ in range(20):
        tree = random_tree(rng, 6, "full")
        while True:
            other = random_tree(rng, rng.randint(0, 7), rng.choice(["grow", "full"]))
            if len(tree) + len(other) + 1 > gt.TREE_CAP:
                break
            pair = (tree, other) if rng.random() < 0.5 else (other, tree)
            tree = node(gt.KIND_NAMES[rng.choice(gt.FUNCTION_CODES)], *pair)
        yield tree


def _spine_trees():
    rng = random.Random(5)
    for side in ("left", "right"):
        tree = constant(3)
        for i in range(999):
            leaf = constant(rng.randint(-127, 128)) if i % 3 else sconstant(rng.randint(0, 255))
            code = gt.FUNCTION_CODES[i % len(gt.FUNCTION_CODES)]
            pair = (tree, leaf) if side == "left" else (leaf, tree)
            tree = node(gt.KIND_NAMES[code], *pair)
        yield tree


def _vectors_digest(trees) -> str:
    """sha256 over each printed vector's length and float64 bytes."""
    h = hashlib.sha256()
    for tree in trees:
        raw = np.asarray(eval_tree(tree), dtype=np.float64)
        h.update(np.int64(raw.size).tobytes())
        h.update(raw.tobytes())
    return h.hexdigest()


class TestEvalTreeDigests:
    """eval_tree's printed vectors, pinned bit for bit (signed zeros and NaN
    payloads included) so the evaluator has an oracle of its own."""

    def test_random_trees(self):
        assert _vectors_digest(_seeded_random_trees()) == RANDOM_DIGEST

    def test_trees_near_the_size_cap(self):
        trees = list(_near_cap_trees())
        assert all(len(t) > gt.TREE_CAP - 260 for t in trees)
        assert _vectors_digest(trees) == NEAR_CAP_DIGEST

    def test_spine_chains_at_the_cap(self):
        trees = list(_spine_trees())
        assert [len(t) for t in trees] == [1999, 1999]
        assert _vectors_digest(trees) == SPINE_DIGEST


def _preorder(tree):
    """The (code, payload) of every node, root first, then the left subtree,
    then the right.  A tuple tree already is that sequence; the walk also
    reads the linked node graph trees were before, so the digests below
    pinned both forms."""
    if isinstance(tree, tuple):
        return tree
    nodes, stack = [], [tree]
    while stack:
        n = stack.pop()
        nodes.append((n.code, n.payload))
        if n.left is not None:
            stack += (n.right, n.left)
    return nodes


def _trees_digest(trees, unchanged=()) -> str:
    """sha256 over each tree's node count and preorder (code, payload) pairs,
    then one byte per flag in unchanged."""
    h = hashlib.sha256()
    for tree in trees:
        nodes = _preorder(tree)
        h.update(struct.pack("<q", len(nodes)))
        for code, payload in nodes:
            h.update(struct.pack("<qd", code, payload))
    h.update(bytes(unchanged))
    return h.hexdigest()


# (seed, first population, 500 children bred from it)
STREAM_DIGESTS = [
    (1, "0d51b78af90d9a6138931b2cab8a98ca377fd1ff4327f7b85516c13faa160d9e",
     "76834ba84b83f6bc7bccd9765d7394c09e31e94b11f5618a0153622dda301df1"),
    (2, "337f4163489e08c1dd3b24694e11f3c112652069d2c85228f499c4fba48b28b2",
     "6ee97173da0552d4dc405024e01e696f8df735f8608fe081b268d14304e5a51e"),
    (3, "b7162abb8383ff88d4c03920a81ed4d3eafcc65916196ec5fc211ea411d3f5e7",
     "34281ea41a4c018420b5c5dd3a55b9afbee1c4cc340d5cfac417ca5d9a7bf0d6"),
]
NEAR_CAP_VARIATION_DIGEST = "42b5148383a729c930d0eb48c051e9eeca79d4854a1f5d2975ff0bb934b43a3f"


def _vary(rng, a, pool):
    """One offspring of a as evolution draws it: crossover with a partner
    drawn from pool, or mutation."""
    if rng.random() < 0.5:
        return crossover(a, pool[rng.randrange(len(pool))], rng)
    return mutate(a, rng)


class TestRandomStream:
    """The trees built and bred from a seeded stream, pinned node for node:
    tree construction and variation may change how they store a tree, but
    not which draws they make or in which order."""

    @pytest.mark.parametrize("seed, first, bred", STREAM_DIGESTS, ids=["1", "2", "3"])
    def test_population_and_offspring(self, seed, first, bred):
        rng = random.Random(seed)
        population = ramped_population(rng, 100)
        assert _trees_digest(population) == first
        children = []
        for _ in range(500):
            a = population[rng.randrange(100)]
            child = _vary(rng, a, population)
            children.append(child)
            population[rng.randrange(100)] = child
        assert _trees_digest(children) == bred

    def test_refusals_at_the_size_cap(self):
        # near-cap parents: about one offspring in five would pass the cap,
        # and a refused one is the first parent itself
        trees = list(_near_cap_trees())
        rng = random.Random(21)
        children, unchanged = [], []
        for _ in range(200):
            a = trees[rng.randrange(len(trees))]
            child = _vary(rng, a, trees)
            children.append(child)
            unchanged.append(child is a)
        assert 20 < sum(unchanged) < 100
        assert all(len(_preorder(c)) <= gt.TREE_CAP for c in children)
        assert _trees_digest(children, unchanged) == NEAR_CAP_VARIATION_DIGEST


# population sizes around powers of two, where a draw below n is redrawn
# most often (128) and least often (129)
POPULATION_SIZES = [4, 5, 100, 128, 129]


class TestDrawRule:
    """Every integer draw is _below on getrandbits: the same values and the
    same generator state as random.Random's randrange, and so the same trees
    the oracles build and breed with choice, randint and randrange."""

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 5, 13, 15, 100, 128, 129, 256, 1999, 2**31 + 1, 10**20]
    )
    def test_below_is_randrange(self, n):
        for seed in range(20):
            a, b = random.Random(seed), random.Random(seed)
            assert [gt._below(a.getrandbits, n) for _ in range(50)] == [
                b.randrange(n) for _ in range(50)
            ]
            assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("method", ["grow", "full"])
    def test_random_tree_matches_the_oracle(self, method):
        # repr tells a float payload from an int one, and -0.0 from 0.0
        for seed in range(200):
            a, b = random.Random(seed), random.Random(seed)
            for depth in range(gt.RAMP_MAX_DEPTH + 1):
                tree = random_tree(a, depth, method)
                assert repr(tree) == repr(random_tree_by_choice(b, depth, method))
            assert a.getstate() == b.getstate()

    def test_ramped_population_matches_the_oracle(self):
        depths = gt.RAMP_MAX_DEPTH - gt.RAMP_MIN_DEPTH + 1
        for seed in range(30):
            a, b = random.Random(seed), random.Random(seed)
            population = ramped_population(a, 100)
            expected = [
                random_tree_by_choice(
                    b, gt.RAMP_MIN_DEPTH + i % depths, "grow" if i % 2 else "full"
                )
                for i in range(100)
            ]
            assert repr(population) == repr(expected)
            assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("size", POPULATION_SIZES)
    def test_variation_matches_the_oracle(self, size):
        population = ramped_population(random.Random(size), size)
        pick = random.Random(0)
        a, b = random.Random(size), random.Random(size)
        for _ in range(200):
            x = population[pick.randrange(size)]
            y = population[pick.randrange(size)]
            assert crossover(x, y, a) == crossover_by_randrange(x, y, b)
            child = mutate(x, a)
            assert repr(child) == repr(mutate_by_randrange(x, b))
            population[pick.randrange(size)] = child
        assert a.getstate() == b.getstate()


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


class TestDeepTrees:
    """The 999-deep spines at the size cap under a recursion limit only about
    100 frames above the caller: no tree walk may recurse per level."""

    def test_spines_under_a_low_recursion_limit(self):
        rng = random.Random(13)
        spines = list(_spine_trees())
        # preorder index of the bottom of each spine: left spine, right spine
        deepest = (999, 1998)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            for tree, index in zip(spines, deepest):
                printed = eval_tree(tree)
                assert len(printed) > 70

                trace = []
                _, st = run_vm(compile_postfix(tree), trace)
                assert st.result() == printed
                effects = sum(code >= gt.SUB_RECORD for code, _ in tree)
                assert len(trace) == effects
                assert tree[index] == (gt.CONSTANT, 3.0)

                for _ in range(20):
                    for child in (crossover(tree, spines[0], rng), mutate(tree, rng)):
                        assert len(child) <= gt.TREE_CAP
                        assert len(eval_tree(child)) >= 1
        finally:
            sys.setrecursionlimit(old)

    def test_printed_vector_stops_at_the_cap(self):
        # the machine clamps p_z, so a tree prints at most MAX_VECTOR_LEN
        # values however many records it adds; nothing downstream checks it
        tree = constant(0)
        for i in range(MAX_VECTOR_LEN + 50):
            tree = node("AddRecord", constant(i % 200 - 90), tree)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            printed = eval_tree(tree)
        finally:
            sys.setrecursionlimit(old)
        assert len(printed) == MAX_VECTOR_LEN == 10_000

    def test_import_leaves_the_recursion_limit_alone(self):
        src = os.path.dirname(os.path.dirname(gt.__file__))
        path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        code = (
            "import sys; default = sys.getrecursionlimit(); "
            "import lockdownsched; print(default, sys.getrecursionlimit())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout.split()
        assert out[0] == out[1]


class TestConstruction:
    def test_every_tree_is_one_whole_subtree(self):
        # the subtree at the root spans the tuple, for built, grown and
        # bred trees alike
        rng = random.Random(4)
        trees = [build_golden_tree()] + ramped_population(rng, 30)
        for _ in range(100):
            trees.append(crossover(trees[-1], trees[rng.randrange(len(trees))], rng))
            trees.append(mutate(trees[-2], rng))
        for t in trees:
            assert shape(t)[1] == len(t)

    def test_full_trees_reach_depth(self):
        rng = random.Random(3)
        t = random_tree(rng, 4, "full")
        assert shape(t)[0] == 4

    def test_grow_trees_within_depth(self):
        rng = random.Random(3)
        for _ in range(50):
            t = random_tree(rng, 5, "grow")
            assert shape(t)[0] <= 5

    def test_ramped_population_varies(self):
        rng = random.Random(0)
        pop = ramped_population(rng, 40)
        assert len(pop) == 40
        assert len({len(t) for t in pop}) > 5

    def test_node_at_preorder(self):
        # the node at preorder index i is t[i], and a subtree is a span
        sub = node("SubtractNumber", constant(1), constant(2))
        t = node("AddNumber", sub, constant(3))
        assert t == (
            (gt.ADD_NUMBER, 0.0),
            (gt.SUBTRACT_NUMBER, 0.0),
            (gt.CONSTANT, 1.0),
            (gt.CONSTANT, 2.0),
            (gt.CONSTANT, 3.0),
        )
        assert t[1:4] == sub

    def test_variation_splices_whole_subtrees(self):
        # replaying each operator's draws, the child is the first parent
        # with the drawn subtree's span swapped for the new one
        rng = random.Random(5)
        a = random_tree(rng, 5, "full")
        b = random_tree(rng, 5, "grow")
        for _ in range(100):
            replay = random.Random()
            replay.setstate(rng.getstate())
            child = crossover(a, b, rng)
            ia = replay.randrange(len(a))
            ib = replay.randrange(len(b))
            assert child == a[:ia] + b[ib : shape(b, ib)[1]] + a[shape(a, ia)[1] :]

            replay.setstate(rng.getstate())
            child = mutate(a, rng)
            ia = replay.randrange(len(a))
            grown = random_tree(replay, gt.MUTATION_DEPTH, "grow")
            assert child == a[:ia] + grown + a[shape(a, ia)[1] :]
            assert replay.getstate() == rng.getstate()

    def test_crossover_respects_cap(self, monkeypatch):
        monkeypatch.setattr(gt, "TREE_CAP", 80)
        rng = random.Random(5)
        a = random_tree(rng, 6, "full")
        b = random_tree(rng, 6, "full")
        for _ in range(200):
            child = crossover(a, b, rng)
            assert len(child) <= max(80, len(a))

    def test_oversize_crossover_returns_first_parent(self, monkeypatch):
        rng = random.Random(1)
        a = random_tree(rng, 3, "full")
        big = random_tree(rng, 6, "full")
        assert len(big) > len(a)
        monkeypatch.setattr(gt, "TREE_CAP", len(a))
        hits = 0
        for _ in range(100):
            child = crossover(a, big, rng)
            assert len(child) <= len(a)
            if child is a:
                hits += 1
        assert hits > 0
        # a child of exactly the cap's size is kept
        monkeypatch.setattr(gt, "TREE_CAP", 1)
        assert crossover(constant(1), constant(2), rng) == constant(2)

    def test_mutation_within_cap(self, monkeypatch):
        rng = random.Random(9)
        a = random_tree(rng, 6, "full")
        monkeypatch.setattr(gt, "TREE_CAP", len(a) + 5)
        hits = 0
        for _ in range(100):
            child = mutate(a, rng)
            assert len(child) <= len(a) + 5
            hits += child is a
        assert 0 < hits < 100

    def test_determinism(self):
        a = random_tree(random.Random(42), 5, "grow")
        b = random_tree(random.Random(42), 5, "grow")
        assert a == b
