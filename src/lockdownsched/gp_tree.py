"""Program trees that print variable-length real vectors when evaluated.

A tree is built from fifteen node kinds: two numeric terminals, five
arithmetic operators, four record operators that grow, shrink or write the
output vector through two pointers (p_r writes, p_z is the length), and
four working-memory operators over scalars m1/m2.  Evaluation is a
depth-first walk, left child first; every node returns a number to its
parent and some apply side effects to the machine state.

A tree is a tuple of (code, payload) nodes in preorder: the root, then its
left subtree, then its right.  Every operator is binary, so the subtree at
index i is the span from i to where a count of open child slots, starting
at one, falls to zero: an operator opens two and fills one, a terminal
fills one.  The size of a tree is its length, and variation is slicing:
crossover and mutation splice a span into a copy of the parent.

There is one evaluator: compile_postfix reorders the nodes into post-order
and run_vm runs them on a value stack, each operator writing its result
over its left operand, optionally recording a trace of pointer movements.
No walk over a tree recurses, so the deepest tree the 2000-node cap allows
needs no raised recursion limit.

Every integer draw of tree building, variation and the engine's
tournaments is _below on rng.getrandbits, CPython's own rule behind
Random.choice, randrange and randint, so a seed gives the trees it always
gave.  The nodes random_tree appends are made once, at import.  The module
imports only the standard library, so the draw rule can be checked without
numpy; folding a printed vector into (0,1) is _simcore.bound_array's job.
"""

from __future__ import annotations

from dataclasses import dataclass

# the longest vector a plan is decoded from, and the tree machine's pointer cap
MAX_VECTOR_LEN = 10_000

TREE_CAP = 2_000
RAMP_MIN_DEPTH = 2
RAMP_MAX_DEPTH = 6
MUTATION_DEPTH = 4

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
FUNCTION_CODES = tuple(range(ADD_NUMBER, SET_MEM2 + 1))
KIND_CODES_ALL = tuple(range(len(KIND_NAMES)))

# every node random_tree appends: an operator by its code (no terminal is
# listed), and a constant by its draw from 0..255
_OPERATOR_NODES = {code: (code, 0.0) for code in FUNCTION_CODES}
_CONSTANT_NODES = tuple((CONSTANT, float(i - 127)) for i in range(256))
_SCONSTANT_NODES = tuple((SCONSTANT, i / 255.0) for i in range(256))


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


def compile_postfix(tree: tuple) -> list:
    """The tree's nodes in post-order: left subtree, right subtree, parent."""
    program = []
    # operators whose subtrees are still open, each under a None until its
    # left one closes; the bottom None stops the root's closing
    waiting = [None]
    for n in tree:
        if n[0] > SCONSTANT:
            waiting.append(n)
            waiting.append(None)
        else:
            program.append(n)
            n = waiting.pop()
            while n is not None:  # each operator whose right subtree closed
                program.append(n)
                n = waiting.pop()
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
    for code, payload in program:
        if code <= SCONSTANT:
            push(payload)
            continue
        right = pop()
        left = stack[-1]
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
        stack[-1] = value  # over the left operand
    return stack[-1], EvalState(r, p_r, p_z, m1, m2)


def eval_tree(tree: tuple) -> list:
    """Raw real vector printed by the tree (r[1..p_z])."""
    _, st = run_vm(compile_postfix(tree))
    return st.result()


# --- random construction and variation --------------------------------------

def _below(bits, n: int) -> int:
    """A draw from 0..n-1: k = n.bit_length() bits from bits, drawn again
    while at least n.  Random.choice, randrange and randint reduce to this
    rule, so _below(rng.getrandbits, n) equals rng.randrange(n) and leaves
    rng in the same state."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_tree(rng, depth: int, method: str = "grow") -> tuple:
    """Grow/full tree of at most the given depth (depth 0 is a terminal).

    Nodes are drawn in preorder: a node's kind, then its left subtree, then
    its right; a terminal draws its kind of constant, then its value.
    """
    bits, random = rng.getrandbits, rng.random
    codes = KIND_CODES_ALL if method == "grow" else FUNCTION_CODES
    # _below written out for both draws: calling it per draw makes the
    # function about a quarter slower
    n_codes, n_values = len(codes), len(_CONSTANT_NODES)
    k_codes, k_values = n_codes.bit_length(), n_values.bit_length()
    nodes = []
    depths = [depth]  # of the subtrees still to draw, the next one on top
    while depths:
        d = depths.pop()
        if d > 0:
            i = bits(k_codes)
            while i >= n_codes:
                i = bits(k_codes)
            code = codes[i]
            if code > SCONSTANT:
                nodes.append(_OPERATOR_NODES[code])
                depths += (d - 1, d - 1)
                continue
        table = _CONSTANT_NODES if random() < 0.5 else _SCONSTANT_NODES
        i = bits(k_values)
        while i >= n_values:
            i = bits(k_values)
        nodes.append(table[i])
    return tuple(nodes)


def ramped_population(rng, size: int) -> list:
    """Ramped half-and-half initial population."""
    population = []
    for i in range(size):
        depth = RAMP_MIN_DEPTH + i % (RAMP_MAX_DEPTH - RAMP_MIN_DEPTH + 1)
        method = "grow" if i % 2 else "full"
        population.append(random_tree(rng, depth, method))
    return population


def _subtree_end(tree: tuple, i: int) -> int:
    """One past the last node of the subtree rooted at preorder index i."""
    open_slots = 1
    while open_slots:
        open_slots += 1 if tree[i][0] > SCONSTANT else -1
        i += 1
    return i


def _graft(a: tuple, i: int, sub: tuple) -> tuple:
    """a with its subtree at index i replaced by sub; a itself when the
    result would pass TREE_CAP."""
    end = _subtree_end(a, i)
    if len(a) - (end - i) + len(sub) > TREE_CAP:
        return a
    return a[:i] + sub + a[end:]


def crossover(a: tuple, b: tuple, rng) -> tuple:
    """Swap a random subtree of a for a random subtree of b."""
    ia = _below(rng.getrandbits, len(a))
    ib = _below(rng.getrandbits, len(b))
    return _graft(a, ia, b[ib : _subtree_end(b, ib)])


def mutate(a: tuple, rng) -> tuple:
    """Replace a random subtree with a freshly grown one."""
    ia = _below(rng.getrandbits, len(a))
    return _graft(a, ia, random_tree(rng, MUTATION_DEPTH, "grow"))
