"""Program trees that print variable-length real vectors when evaluated.

A tree is built from fifteen node kinds: two numeric terminals, five
arithmetic operators, four record operators that grow, shrink or write the
output vector through two pointers (p_r writes, p_z is the length), and
four working-memory operators over scalars m1/m2.  Evaluation is a plain
depth-first walk, left child first; every node returns a number to its
parent and some apply side effects to the machine state.

Two evaluators exist and implement identical semantics: a recursive one
that can record a trace of pointer movements, and a postfix virtual machine
that numba compiles when it is installed.  Evolution scores offspring with
the recursive one (eval_tree), which is the faster of the two without numba;
the VM is kept as the second implementation the tests compare it with.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .allocation import bound_value

try:
    from numba import njit
except ImportError:  # numba is an optional extra; run_vm then runs as Python

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap

P_MAX = 10_000
TREE_CAP = 2_000

CONSTANT = 0
SCONSTANT = 1
ADD_NUMBER = 2
SUBTRACT_NUMBER = 3
MULTIPLY_NUMBER = 4
DIVIDE_NUMBER = 5
AVERAGE_NUMBER = 6
SUB_RECORD = 7
ZERO_RECORD = 8
WRITE_RECORD = 9
ADD_RECORD = 10
GET_MEM1 = 11
SET_MEM1 = 12
GET_MEM2 = 13
SET_MEM2 = 14

KIND_NAMES = (
    "Constant",
    "sConstant",
    "AddNumber",
    "SubtractNumber",
    "MultiplyNumber",
    "DivideNumber",
    "AverageNumber",
    "SubRecord",
    "ZeroRecord",
    "WriteRecord",
    "AddRecord",
    "GetMem1",
    "SetMem1",
    "GetMem2",
    "SetMem2",
)
KIND_CODES = {name: code for code, name in enumerate(KIND_NAMES)}
TERMINAL_CODES = (CONSTANT, SCONSTANT)
FUNCTION_CODES = tuple(range(ADD_NUMBER, SET_MEM2 + 1))

# deep chains of small subtrees are legal at the 2000-node cap
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))


class GpNode:
    """Immutable tree node; subtrees are shared freely between trees."""

    __slots__ = ("code", "payload", "left", "right", "size")

    def __init__(self, code, payload=0.0, left=None, right=None):
        self.code = code
        self.payload = payload
        self.left = left
        self.right = right
        self.size = 1 if left is None else 1 + left.size + right.size

    @property
    def kind(self) -> str:
        return KIND_NAMES[self.code]

    def is_terminal(self) -> bool:
        return self.left is None

    def __repr__(self) -> str:
        if self.is_terminal():
            return f"{self.kind}({self.payload:g})"
        return f"{self.kind}({self.left!r}, {self.right!r})"


def constant(value: int) -> GpNode:
    if not -127 <= value <= 128:
        raise ValueError("constant payload outside -127..128")
    return GpNode(CONSTANT, float(value))


def sconstant(numerator: int) -> GpNode:
    if not 0 <= numerator <= 255:
        raise ValueError("scaled constant numerator outside 0..255")
    return GpNode(SCONSTANT, numerator / 255.0)


def node(kind: str, left: GpNode, right: GpNode) -> GpNode:
    code = KIND_CODES[kind]
    if code in TERMINAL_CODES:
        raise ValueError(f"{kind} is a terminal")
    return GpNode(code, 0.0, left, right)


@dataclass
class EvalState:
    """Vector-printing machine: 1-based record r, pointers and two memories.

    The write pointer p_r may run past the length pointer p_z; cells beyond
    p_z are invisible in the result and get overwritten when the vector next
    grows, so only the clamp at the hard cap applies.
    """
    r: list = field(default_factory=lambda: [0.0, 0.0001])
    p_r: int = 1
    p_z: int = 1
    m1: float = 0.0
    m2: float = 0.0

    def write(self, pos: int, value: float) -> None:
        while len(self.r) <= pos:
            self.r.append(0.0)
        self.r[pos] = value

    def result(self) -> list:
        return self.r[1 : self.p_z + 1]


def _eval(node: GpNode, st: EvalState, trace) -> float:
    code = node.code
    if code <= SCONSTANT:
        return node.payload
    left = _eval(node.left, st, trace)
    right = _eval(node.right, st, trace)
    if code == ADD_NUMBER:
        return left + right
    if code == SUBTRACT_NUMBER:
        return left - right
    if code == MULTIPLY_NUMBER:
        return left * right
    if code == DIVIDE_NUMBER:
        if abs(right) < 1.0e-9:
            right = 1.0
        return left / right
    if code == AVERAGE_NUMBER:
        return (left + right) / 2.0
    if code == SUB_RECORD:
        if st.p_r > 1:
            st.p_r -= 1
        value = left
    elif code == ZERO_RECORD:
        st.p_r += 1
        if st.p_r > P_MAX:
            st.p_r = P_MAX
        st.write(st.p_r, 0.00001)
        value = left
    elif code == WRITE_RECORD:
        st.p_r += 1
        if st.p_r > P_MAX:
            st.p_r = P_MAX
        st.write(st.p_r, left)
        value = right
    elif code == ADD_RECORD:
        st.p_z += 1
        if st.p_z > P_MAX:
            st.p_z = P_MAX
        st.p_r = st.p_z
        st.write(st.p_r, left)
        value = left
    elif code == GET_MEM1:
        value = st.m1
    elif code == SET_MEM1:
        st.m1 = right
        value = left
    elif code == GET_MEM2:
        value = st.m2
    else:  # SET_MEM2
        st.m2 = (st.m2 + left) / 2.0
        value = right
    if trace is not None:
        trace.append((node.kind, st.p_r, st.p_z))
    return value


def run_machine(root: GpNode, trace: list | None = None) -> tuple:
    """Evaluate a tree; returns (root value, final EvalState)."""
    st = EvalState()
    value = _eval(root, st, trace)
    return value, st


def eval_tree(root: GpNode) -> list:
    """Raw real vector printed by the tree (r[1..p_z])."""
    _, st = run_machine(root)
    return st.result()


def genotype_to_vector(root: GpNode) -> tuple:
    """Evaluate and fold every element into (0,1)."""
    return tuple(bound_value(v) for v in eval_tree(root))


# --- compiled evaluation ----------------------------------------------------

def compile_postfix(root: GpNode) -> tuple:
    """Flatten to postfix code/payload arrays for the virtual machine."""
    codes = np.empty(root.size, dtype=np.int64)
    payloads = np.zeros(root.size, dtype=np.float64)
    pos = 0

    def walk(n):
        nonlocal pos
        if n.left is not None:
            walk(n.left)
            walk(n.right)
        codes[pos] = n.code
        payloads[pos] = n.payload
        pos += 1

    walk(root)
    return codes, payloads


@njit(cache=True)
def run_vm(codes, payloads, rbuf, stack):
    """Postfix replay of the machine; returns the final vector length p_z.

    rbuf must hold P_MAX+1 floats (1-based cells), stack must cover the tree
    depth.  The caller reads the result from rbuf[1..p_z].
    """
    p_r = 1
    p_z = 1
    m1 = 0.0
    m2 = 0.0
    rbuf[1] = 0.0001
    sp = 0
    for i in range(codes.shape[0]):
        op = codes[i]
        if op <= 1:
            stack[sp] = payloads[i]
            sp += 1
        elif op == 2:
            sp -= 1
            stack[sp - 1] = stack[sp - 1] + stack[sp]
        elif op == 3:
            sp -= 1
            stack[sp - 1] = stack[sp - 1] - stack[sp]
        elif op == 4:
            sp -= 1
            stack[sp - 1] = stack[sp - 1] * stack[sp]
        elif op == 5:
            sp -= 1
            r = stack[sp]
            if abs(r) < 1.0e-9:
                r = 1.0
            stack[sp - 1] = stack[sp - 1] / r
        elif op == 6:
            sp -= 1
            stack[sp - 1] = (stack[sp - 1] + stack[sp]) / 2.0
        elif op == 7:
            sp -= 1
            if p_r > 1:
                p_r -= 1
        elif op == 8:
            sp -= 1
            p_r += 1
            if p_r > P_MAX:
                p_r = P_MAX
            rbuf[p_r] = 0.00001
        elif op == 9:
            left = stack[sp - 2]
            stack[sp - 2] = stack[sp - 1]
            sp -= 1
            p_r += 1
            if p_r > P_MAX:
                p_r = P_MAX
            rbuf[p_r] = left
        elif op == 10:
            sp -= 1
            p_z += 1
            if p_z > P_MAX:
                p_z = P_MAX
            p_r = p_z
            rbuf[p_r] = stack[sp - 1]
        elif op == 11:
            sp -= 1
            stack[sp - 1] = m1
        elif op == 12:
            m1 = stack[sp - 1]
            sp -= 1
        elif op == 13:
            sp -= 1
            stack[sp - 1] = m2
        else:
            m2 = (m2 + stack[sp - 2]) / 2.0
            stack[sp - 2] = stack[sp - 1]
            sp -= 1
    return p_z


def make_vm_buffers() -> tuple:
    """(rbuf, stack) scratch arrays sized for any legal tree."""
    return (
        np.zeros(P_MAX + 1, dtype=np.float64),
        np.zeros(TREE_CAP + 2, dtype=np.float64),
    )


def eval_tree_fast(root: GpNode, rbuf, stack) -> np.ndarray:
    codes, payloads = compile_postfix(root)
    p_z = run_vm(codes, payloads, rbuf, stack)
    return rbuf[1 : p_z + 1]


# --- random construction and variation --------------------------------------

def random_terminal(rng) -> GpNode:
    if rng.random() < 0.5:
        return constant(rng.randint(-127, 128))
    return sconstant(rng.randint(0, 255))


def random_tree(rng, depth: int, method: str = "grow") -> GpNode:
    """Grow/full tree of at most the given depth (depth 0 is a terminal)."""
    if depth <= 0:
        return random_terminal(rng)
    if method == "grow":
        code = rng.choice(KIND_CODES_ALL)
        if code in TERMINAL_CODES:
            return random_terminal(rng)
    else:
        code = rng.choice(FUNCTION_CODES)
    return GpNode(
        code,
        0.0,
        random_tree(rng, depth - 1, method),
        random_tree(rng, depth - 1, method),
    )


KIND_CODES_ALL = tuple(range(len(KIND_NAMES)))


def ramped_population(rng, size: int, min_depth: int = 2, max_depth: int = 6) -> list:
    """Ramped half-and-half initial population."""
    population = []
    for i in range(size):
        depth = min_depth + i % (max_depth - min_depth + 1)
        method = "grow" if i % 2 else "full"
        population.append(random_tree(rng, depth, method))
    return population


def node_at(root: GpNode, index: int) -> GpNode:
    """Node with the given preorder index (0 is the root)."""
    n = root
    while index > 0:
        index -= 1
        if index < n.left.size:
            n = n.left
        else:
            index -= n.left.size
            n = n.right
    return n


def replace_at(root: GpNode, index: int, sub: GpNode) -> GpNode:
    """New tree with the subtree at the preorder index swapped out.

    Only the nodes on the path from the root are rebuilt; everything else is
    shared with the input trees.
    """
    if index == 0:
        return sub
    index -= 1
    if index < root.left.size:
        return GpNode(
            root.code, root.payload, replace_at(root.left, index, sub), root.right
        )
    return GpNode(
        root.code,
        root.payload,
        root.left,
        replace_at(root.right, index - root.left.size, sub),
    )


def crossover(a: GpNode, b: GpNode, rng, cap: int = TREE_CAP) -> GpNode:
    """Swap a random subtree of a for a random subtree of b.

    If the result would blow the size cap the smaller of the two chosen
    subtrees is kept, which collapses to returning the first parent.
    """
    ia = rng.randrange(a.size)
    ib = rng.randrange(b.size)
    sub_b = node_at(b, ib)
    removed = node_at(a, ia)
    if a.size - removed.size + sub_b.size > cap:
        return a
    return replace_at(a, ia, sub_b)


def mutate(a: GpNode, rng, cap: int = TREE_CAP, depth: int = 4) -> GpNode:
    """Replace a random subtree with a freshly grown one."""
    ia = rng.randrange(a.size)
    sub = random_tree(rng, depth, "grow")
    removed = node_at(a, ia)
    if a.size - removed.size + sub.size > cap:
        return a
    return replace_at(a, ia, sub)
