"""Program-tree machine semantics, pinned by a hand-run trace."""

import hashlib
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from lockdownsched import gp_tree as gt
from lockdownsched._simcore import bound_array
from lockdownsched.gp_tree import (
    MAX_VECTOR_LEN,
    GpNode,
    compile_postfix,
    constant,
    crossover,
    eval_tree,
    mutate,
    node,
    node_at,
    ramped_population,
    random_tree,
    replace_at,
    run_vm,
    sconstant,
)


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
        assert len(compile_postfix(tree)) == tree.size


class TestNodeSemantics:
    def test_terminal_payloads(self):
        assert constant(-127).payload == -127.0
        assert constant(128).payload == 128.0
        assert sconstant(51).payload == pytest.approx(0.2)
        assert sconstant(255).payload == 1.0
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
            if tree.size + other.size + 1 > gt.TREE_CAP:
                break
            pair = (tree, other) if rng.random() < 0.5 else (other, tree)
            tree = GpNode(rng.choice(gt.FUNCTION_CODES), 0.0, *pair)
        yield tree


def _spine_trees():
    rng = random.Random(5)
    for side in ("left", "right"):
        tree = constant(3)
        for i in range(999):
            leaf = constant(rng.randint(-127, 128)) if i % 3 else sconstant(rng.randint(0, 255))
            code = gt.FUNCTION_CODES[i % len(gt.FUNCTION_CODES)]
            pair = (tree, leaf) if side == "left" else (leaf, tree)
            tree = GpNode(code, 0.0, *pair)
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
        assert all(t.size > gt.TREE_CAP - 260 for t in trees)
        assert _vectors_digest(trees) == NEAR_CAP_DIGEST

    def test_spine_chains_at_the_cap(self):
        trees = list(_spine_trees())
        assert [t.size for t in trees] == [1999, 1999]
        assert _vectors_digest(trees) == SPINE_DIGEST


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
                effects = sum(n.code >= gt.SUB_RECORD for n in compile_postfix(tree))
                assert len(trace) == effects

                bottom = node_at(tree, index)
                assert bottom.left is None and bottom.payload == 3.0
                sub = node("AddRecord", constant(1), constant(2))
                swapped = replace_at(tree, index, sub)
                assert swapped.size == tree.size + 2
                assert node_at(swapped, index) is sub
                # rebuilding the path around the same subtree changes nothing
                same = replace_at(tree, index, bottom)
                assert same is not tree and repr(same) == repr(tree)

                text = repr(tree)
                assert text.count("(") == tree.size
                assert text.startswith(tree.kind + "(")

                for _ in range(20):
                    for child in (crossover(tree, spines[0], rng), mutate(tree, rng)):
                        assert child.size <= gt.TREE_CAP
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
    def test_sizes_cached(self):
        t = build_golden_tree()
        def count(n):
            if n.left is None:
                return 1
            return 1 + count(n.left) + count(n.right)
        assert t.size == count(t)

    def test_full_trees_reach_depth(self):
        rng = random.Random(3)
        t = random_tree(rng, 4, "full")
        def depth(n):
            if n.left is None:
                return 0
            return 1 + max(depth(n.left), depth(n.right))
        assert depth(t) == 4

    def test_grow_trees_within_depth(self):
        rng = random.Random(3)
        for _ in range(50):
            t = random_tree(rng, 5, "grow")
            def depth(n):
                if n.left is None:
                    return 0
                return 1 + max(depth(n.left), depth(n.right))
            assert depth(t) <= 5

    def test_ramped_population_varies(self):
        rng = random.Random(0)
        pop = ramped_population(rng, 40)
        assert len(pop) == 40
        assert len({t.size for t in pop}) > 5

    def test_node_at_preorder(self):
        t = node("AddNumber", node("SubtractNumber", constant(1), constant(2)), constant(3))
        assert node_at(t, 0) is t
        assert node_at(t, 1) is t.left
        assert node_at(t, 2) is t.left.left
        assert node_at(t, 3) is t.left.right
        assert node_at(t, 4) is t.right

    def test_replace_shares_structure(self):
        t = node("AddNumber", node("SubtractNumber", constant(1), constant(2)), constant(3))
        new = replace_at(t, 4, constant(9))
        assert new.left is t.left
        assert new.right.payload == 9.0
        assert t.right.payload == 3.0

    def test_crossover_respects_cap(self):
        rng = random.Random(5)
        a = random_tree(rng, 6, "full")
        b = random_tree(rng, 6, "full")
        for _ in range(200):
            child = crossover(a, b, rng, cap=80)
            assert child.size <= max(80, a.size)

    def test_oversize_crossover_returns_first_parent(self):
        rng = random.Random(1)
        a = random_tree(rng, 3, "full")
        big = random_tree(rng, 6, "full")
        assert big.size > a.size
        hits = 0
        for _ in range(100):
            child = crossover(a, big, rng, cap=a.size)
            assert child.size <= a.size
            if child is a:
                hits += 1
        assert hits > 0

    def test_mutation_within_cap(self):
        rng = random.Random(9)
        a = random_tree(rng, 6, "full")
        for _ in range(100):
            child = mutate(a, rng, cap=gt.TREE_CAP)
            assert child.size <= gt.TREE_CAP

    def test_determinism(self):
        a = random_tree(random.Random(42), 5, "grow")
        b = random_tree(random.Random(42), 5, "grow")
        assert repr(a) == repr(b)
