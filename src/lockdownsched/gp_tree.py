"""Program trees that print variable-length real vectors when evaluated.

A tree is built from fifteen node kinds: two numeric terminals, five
arithmetic operators, four record operators that grow, shrink or write the
output vector through two pointers (p_r writes, p_z is the length), and
four working-memory operators over scalars m1/m2.  Evaluation is a
depth-first walk, left child first; every node returns a number to its
parent and some apply side effects to the machine state.

There is one evaluator: compile_postfix flattens a tree into its nodes in
post-order and run_vm runs them on a value stack, optionally recording a
trace of pointer movements.  Every walk over a tree (evaluation, repr,
node_at, replace_at) is iterative, so the deepest tree the 2000-node cap
allows needs no raised recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .allocation import MAX_VECTOR_LEN, bound_vector

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
        parts = []
        for n in compile_postfix(self):
            if n.left is None:
                parts.append(f"{n.kind}({n.payload:g})")
            else:
                right = parts.pop()
                parts[-1] = f"{n.kind}({parts[-1]}, {right})"
        return parts[0]


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
    r: list
    p_r: int
    p_z: int
    m1: float
    m2: float

    def result(self) -> list:
        return self.r[1 : self.p_z + 1]


def compile_postfix(root: GpNode) -> list:
    """The tree's nodes in post-order: left subtree, right subtree, parent."""
    program = []
    stack = [root]
    while stack:  # parent, right, left: post-order reversed
        n = stack.pop()
        program.append(n)
        if n.left is not None:
            stack.append(n.left)
            stack.append(n.right)
    program.reverse()
    return program


def run_vm(program: list, trace: list | None = None) -> tuple:
    """Run a post-order program; returns (root value, final EvalState).

    With a trace list, (kind, p_r, p_z) is appended after each record or
    memory node.
    """
    r = [0.0, 0.0001]
    p_r = p_z = 1
    m1 = m2 = 0.0
    stack = []
    push, pop = stack.append, stack.pop
    for n in program:
        code = n.code
        if code <= SCONSTANT:
            push(n.payload)
            continue
        right = pop()
        left = pop()
        if code <= AVERAGE_NUMBER:
            if code == ADD_NUMBER:
                value = left + right
            elif code == SUBTRACT_NUMBER:
                value = left - right
            elif code == MULTIPLY_NUMBER:
                value = left * right
            elif code == DIVIDE_NUMBER:
                if abs(right) < 1.0e-9:
                    right = 1.0
                value = left / right
            else:  # AVERAGE_NUMBER
                value = (left + right) / 2.0
        else:
            # a write lands at most one cell past the end of r: p_r and p_z
            # only ever step up by one, onto the cell just written
            if code == SUB_RECORD:
                if p_r > 1:
                    p_r -= 1
                value = left
            elif code == ZERO_RECORD:
                p_r += 1
                if p_r > MAX_VECTOR_LEN:
                    p_r = MAX_VECTOR_LEN
                if p_r == len(r):
                    r.append(0.0)
                r[p_r] = 0.00001
                value = left
            elif code == WRITE_RECORD:
                p_r += 1
                if p_r > MAX_VECTOR_LEN:
                    p_r = MAX_VECTOR_LEN
                if p_r == len(r):
                    r.append(0.0)
                r[p_r] = left
                value = right
            elif code == ADD_RECORD:
                p_z += 1
                if p_z > MAX_VECTOR_LEN:
                    p_z = MAX_VECTOR_LEN
                p_r = p_z
                if p_r == len(r):
                    r.append(0.0)
                r[p_r] = left
                value = left
            elif code == GET_MEM1:
                value = m1
            elif code == SET_MEM1:
                m1 = right
                value = left
            elif code == GET_MEM2:
                value = m2
            else:  # SET_MEM2
                m2 = (m2 + left) / 2.0
                value = right
            if trace is not None:
                trace.append((KIND_NAMES[code], p_r, p_z))
        push(value)
    return pop(), EvalState(r, p_r, p_z, m1, m2)


def run_machine(root: GpNode, trace: list | None = None) -> tuple:
    """Evaluate a tree; returns (root value, final EvalState)."""
    return run_vm(compile_postfix(root), trace)


def eval_tree(root: GpNode) -> list:
    """Raw real vector printed by the tree (r[1..p_z])."""
    _, st = run_machine(root)
    return st.result()


def genotype_to_vector(root: GpNode) -> tuple:
    """Evaluate and fold every element into (0,1)."""
    return bound_vector(eval_tree(root))


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
    path = []  # (ancestor, True if the walk went left), root first
    n = root
    while index > 0:
        index -= 1
        went_left = index < n.left.size
        path.append((n, went_left))
        if went_left:
            n = n.left
        else:
            index -= n.left.size
            n = n.right
    for parent, went_left in reversed(path):
        if went_left:
            sub = GpNode(parent.code, parent.payload, sub, parent.right)
        else:
            sub = GpNode(parent.code, parent.payload, parent.left, sub)
    return sub


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
