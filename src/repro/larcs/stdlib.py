"""The LaRCS standard library: the paper's catalogue of example programs.

Section 3 reports that "LaRCS has been used to describe a wide variety of
parallel algorithms including matrix multiplication, fast Fourier transform,
topological sort, divide and conquer using binomial trees, simulated
annealing, Jacobi iterative method ..., successive over-relaxation ..., and
perfect broadcast distributed voting."  This module carries those programs
as LaRCS source text; each is a constant string, and :func:`load` compiles
one by name.

Every program is a *finite* description of an arbitrarily large task graph;
benchmark E6 measures exactly this compactness claim.
"""

from __future__ import annotations

from repro.graph.taskgraph import TaskGraph
from repro.larcs.compiler import compile_larcs

__all__ = [
    "NBODY",
    "JACOBI",
    "SOR",
    "FFT",
    "DIVIDE_AND_CONQUER",
    "CANNON_MATMUL",
    "BROADCAST_VOTING",
    "PIPELINE",
    "SIMULATED_ANNEALING",
    "PROGRAMS",
    "load",
    "family_tag",
]


#: Fig 2b: Seitz's n-body algorithm on a chordal ring (n odd).
NBODY = """
algorithm nbody(n, sweeps = 1);
import msize = 1;
constant half = (n + 1) / 2;

nodetype body[0 .. n-1] nodesymmetric;

comphase ring    body(i) -> body((i + 1) mod n) volume msize;
comphase chordal body(i) -> body((i + half) mod n) volume msize;

execphase compute1 cost n;
execphase compute2 cost n;

phases ((ring; compute1)^half; chordal; compute2)^sweeps;
"""


#: Jacobi iteration for Laplace's equation on a rectangle (rows x cols grid).
JACOBI = """
algorithm jacobi(rows, cols, iters = 1);
import msize = 1;

nodetype cell[0 .. rows-1, 0 .. cols-1];

comphase north cell(i, j) -> cell(i - 1, j) where i > 0        volume msize;
comphase south cell(i, j) -> cell(i + 1, j) where i < rows - 1 volume msize;
comphase east  cell(i, j) -> cell(i, j + 1) where j < cols - 1 volume msize;
comphase west  cell(i, j) -> cell(i, j - 1) where j > 0        volume msize;

execphase relax for cell(i, j) cost 4;

phases (north; south; east; west; relax)^iters;
"""


#: Red-black successive over-relaxation on the same grid.
SOR = """
algorithm sor(rows, cols, iters = 1);
import msize = 1;

nodetype cell[0 .. rows-1, 0 .. cols-1];

comphase exchange {
    cell(i, j) -> cell(i - 1, j) where i > 0        volume msize;
    cell(i, j) -> cell(i + 1, j) where i < rows - 1 volume msize;
    cell(i, j) -> cell(i, j + 1) where j < cols - 1 volume msize;
    cell(i, j) -> cell(i, j - 1) where j > 0        volume msize;
}

execphase update_red   cost 4;
execphase update_black cost 4;

phases (exchange; update_red; exchange; update_black)^iters;
"""


#: Radix-2 FFT on n = 2**m points: one butterfly phase per stage.
FFT = """
algorithm fft(m);
import msize = 1;
constant n = 2 ** m;

nodetype pt[0 .. n-1] nodesymmetric;

comphase fly[s : 0 .. m-1] pt(i) -> pt(i xor (1 shl s)) volume msize;

execphase compute cost 1;

phases seq s in 0 .. m-1 : (fly[s]; compute);
"""


#: Parallel divide-and-conquer on the binomial tree B_m ([LRG+89]).
#: ``divide`` sends parent -> child; ``combine`` is the mirror written from
#: the child's point of view (a child's parent clears its lowest set bit, so
#: the guard pins j to the child's lowest set-bit position).
DIVIDE_AND_CONQUER = """
algorithm dnc(m);
import msize = 1;
constant n = 2 ** m;

nodetype node[0 .. n-1];

comphase divide
    forall j in 0 .. m-1 :
    node(i) -> node(i + (1 shl j)) where i mod (1 shl (j + 1)) == 0
    volume msize;

comphase combine
    forall j in 0 .. m-1 :
    node(i) -> node(i - (1 shl j))
    where i mod (1 shl (j + 1)) == (1 shl j)
    volume msize;

execphase solve cost 1;

phases divide; solve; combine;
"""


#: Cannon's matrix multiplication on a q x q torus of blocks.
CANNON_MATMUL = """
algorithm cannon(q);
import ablock = 1, bblock = 1;

nodetype cell[0 .. q-1, 0 .. q-1] nodesymmetric;

comphase shiftA cell(i, j) -> cell(i, (j + q - 1) mod q) volume ablock;
comphase shiftB cell(i, j) -> cell((i + q - 1) mod q, j) volume bblock;

execphase multiply for cell(i, j) cost q;

phases ((shiftA || shiftB); multiply)^q;
"""


#: Perfect-broadcast distributed voting (leader election) on n = 2**m tasks.
#: For m = 3 this is exactly the Fig 4 example: hop[0] = (01234567),
#: hop[1] = (0246)(1357), hop[2] = (04)(15)(26)(37).
BROADCAST_VOTING = """
algorithm voting(m);
import msize = 1;
constant n = 2 ** m;

nodetype voter[0 .. n-1] nodesymmetric;

comphase hop[k : 0 .. m-1] voter(i) -> voter((i + (1 shl k)) mod n) volume msize;

execphase tally cost 1;

phases seq k in 0 .. m-1 : (hop[k]; tally);
"""


#: A software pipeline: n stages passing results downstream.
PIPELINE = """
algorithm pipeline(n, items = 1);
import msize = 1;

nodetype stage[0 .. n-1];

comphase forward stage(i) -> stage(i + 1) where i < n - 1 volume msize;

execphase work for stage(i) cost 1 + i mod 2;

phases (work; forward)^items;
"""


#: Parallel simulated annealing on a torus of workers exchanging boundary
#: state each sweep (the usual domain-decomposed formulation).
SIMULATED_ANNEALING = """
algorithm annealing(rows, cols, sweeps = 1);
import statesize = 1;

nodetype worker[0 .. rows-1, 0 .. cols-1] nodesymmetric;

comphase xup    worker(i, j) -> worker((i + rows - 1) mod rows, j) volume statesize;
comphase xdown  worker(i, j) -> worker((i + 1) mod rows, j)        volume statesize;
comphase xleft  worker(i, j) -> worker(i, (j + cols - 1) mod cols) volume statesize;
comphase xright worker(i, j) -> worker(i, (j + 1) mod cols)        volume statesize;

execphase anneal for worker(i, j) cost 8;

phases (xup; xdown; xleft; xright; anneal)^sweeps;
"""


#: Odd-even transposition sort on a linear array of n tasks.
#: Alternating exchange phases, n/2 rounds -- the classic systolic sorter.
ODD_EVEN_SORT = """
algorithm oddeven(n);
import keysize = 1;

nodetype slot[0 .. n-1];

comphase oddx {
    slot(i) -> slot(i + 1) where i mod 2 == 1 and i < n - 1 volume keysize;
    slot(i) -> slot(i - 1) where i mod 2 == 0 and i > 0     volume keysize;
}
comphase evenx {
    slot(i) -> slot(i + 1) where i mod 2 == 0 and i < n - 1 volume keysize;
    slot(i) -> slot(i - 1) where i mod 2 == 1               volume keysize;
}

execphase compare cost 1;

phases (oddx; compare; evenx; compare)^((n + 1) / 2);
"""


#: Bitonic sort on n = 2**m keys.  The m(m+1)/2 compare-exchange stages are
#: a single indexed phase family: stage s of merge step k exchanges along
#: bit j, with (k, j) decoded from the flat stage index by integer
#: arithmetic -- a stress test of LaRCS's parametric machinery.
BITONIC_SORT = """
algorithm bitonic(m);
import keysize = 1;
constant n = 2 ** m;
constant stages = (m * (m + 1)) / 2;

nodetype key[0 .. n-1] nodesymmetric;

-- stage s belongs to merge step k (0-based), where k is the largest value
-- with k*(k+1)/2 <= s; within the step, j runs k, k-1, .., 0.
comphase cmpx[s : 0 .. stages - 1]
    forall k in 0 .. m - 1 :
    key(i) -> key(i xor (1 shl (k - (s - (k * (k + 1)) / 2))))
    where (k * (k + 1)) / 2 <= s and s < ((k + 1) * (k + 2)) / 2
    volume keysize;

execphase compare cost 1;

phases seq s in 0 .. stages - 1 : (cmpx[s]; compare);
"""


#: Gaussian elimination: at step k the pivot row k broadcasts to all rows
#: below it (one task per row) -- the paper's canonical one-to-many pattern.
GAUSSIAN_ELIMINATION = """
algorithm gauss(n);
import rowsize = 1;

nodetype row[0 .. n-1];

comphase bcast[k : 0 .. n-2]
    forall r in 0 .. n-1 :
    row(i) -> row(r)
    where i == k and r > k
    volume rowsize;

execphase eliminate for row(i) cost n - i;

phases seq k in 0 .. n-2 : (bcast[k]; eliminate);
"""


#: Registry of every stdlib program by name.
PROGRAMS: dict[str, str] = {
    "nbody": NBODY,
    "jacobi": JACOBI,
    "sor": SOR,
    "fft": FFT,
    "dnc": DIVIDE_AND_CONQUER,
    "cannon": CANNON_MATMUL,
    "voting": BROADCAST_VOTING,
    "pipeline": PIPELINE,
    "annealing": SIMULATED_ANNEALING,
    "oddeven": ODD_EVEN_SORT,
    "bitonic": BITONIC_SORT,
    "gauss": GAUSSIAN_ELIMINATION,
}


def family_tag(name: str, tg: TaskGraph) -> tuple[str, tuple] | None:
    """The nameable-family tag of a stdlib program, when one applies.

    Programs whose elaborated graphs coincide with a canned graph family
    get the family tag so MAPPER's constant-time canned lookup fires on
    them (the "programmer may simply state this" path of Section 4.1).
    """
    n = tg.n_tasks
    if name == "nbody":
        return ("nbody", (n,))
    if name == "fft":
        return ("fft_butterfly", (n,))
    if name == "dnc":
        return ("binomial_tree", (n.bit_length() - 1,))
    if name == "pipeline":
        return ("linear", (n,))
    return None


def load(
    name: str,
    bindings: dict[str, int] | None = None,
    *,
    max_tasks: int | None = None,
    **kw_bindings: int,
) -> TaskGraph:
    """Compile a stdlib program by name for the given parameter bindings.

    >>> tg = load("nbody", n=15)
    >>> tg.n_tasks
    15

    *bindings*, *max_tasks* and the keywords are
    :func:`~repro.larcs.compiler.compile_larcs`'s.
    """
    try:
        source = PROGRAMS[name]
    except KeyError:
        raise KeyError(
            f"no stdlib program {name!r}; available: {', '.join(sorted(PROGRAMS))}"
        ) from None
    tg = compile_larcs(
        source, bindings, max_tasks=max_tasks, **kw_bindings
    ).task_graph
    tg.family = family_tag(name, tg)
    return tg
