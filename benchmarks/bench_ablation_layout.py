"""Ablation: starting from ScaLAPACK's block-cyclic layout (section 7.6).

COSMA accepts inputs in ScaLAPACK's block-cyclic layout and converts them to
its blocked layout in a preprocessing step.  This ablation counts that
conversion at the paper's own points: A and B move from 64 x 64 tiles on the
most-square ``pr <= pc`` process grid to the input layout of the decomposition
each algorithm then runs (``CosmaDecomposition.input_layouts``), and the words
received per rank are set against the multiplication's own (the plan's count,
which a ``volume``-mode run reproduces bit for bit).

Note: the simulated ScaLAPACK (SUMMA) starts from a blocked 2D layout, not a
block-cyclic one; the real ScaLAPACK multiplies block-cyclic inputs in place,
so the fair comparison is COSMA plus its conversion against ScaLAPACK alone.
"""

from _common import print_rows

from repro.algorithms import cosma_idle_fraction, get_algorithm
from repro.baselines.grid25d import grid25d_decomposition
from repro.baselines.summa import summa_decomposition
from repro.core.decomposition import build_decomposition
from repro.layouts import block_cyclic, redistribution_volume
from repro.machine.topology import PIZ_DAINT_LIKE
from repro.utils.intmath import divisors
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import rpa_water_shape, square_shape

#: ``(point, shape, p, S, bound)``: COSMA's conversion must stay under
#: ``bound`` of its own received words per rank.  At RPA the inputs are 429x
#: the output, so moving them once weighs more than on the square points.
POINTS = [
    ("sq4096", square_shape(4096), 1024, 101_000, 0.10),
    ("sq8192", square_shape(8192), 4096, 101_000, 0.10),
    ("rpa128", rpa_water_shape(128), 18_432, PIZ_DAINT_LIKE.memory_words_per_core, 0.20),
]

DECOMPOSITIONS = {
    "COSMA": lambda m, n, k, p, s: build_decomposition(
        m, n, k, p, s, max_idle_fraction=cosma_idle_fraction(p)),
    "ScaLAPACK": summa_decomposition,
    "CTF": grid25d_decomposition,
}


def _conversion_study():
    rows, checks = [], []
    for point, shape, p, s, bound in POINTS:
        m, n, k = shape.m, shape.n, shape.k
        pr = max(d for d in divisors(p) if d * d <= p)
        inputs = (block_cyclic(m, k, 64, 64, pr, p // pr), block_cyclic(k, n, 64, 64, pr, p // pr))
        scenario = Scenario(point, shape, p, s, "limited")
        words = {name: get_algorithm(name).plan(scenario).predicted_words_per_rank
                 for name in ("COSMA", "ScaLAPACK", "CTF", "Cannon")}
        for name, decompose in DECOMPOSITIONS.items():
            decomposition = decompose(m, n, k, p, s)
            conversion = sum(redistribution_volume(src, dst) for src, dst in zip(
                inputs, decomposition.input_layouts())) / p
            rows.append({
                "point": point, "p": p, "block-cyclic grid": (pr, p // pr),
                "algorithm": name, "grid": decomposition.grid.as_tuple(),
                "conversion/rank": round(conversion), "multiply/rank": round(words[name]),
                "ratio": round(conversion / words[name], 3),
            })
            if name == "COSMA":
                checks.append((conversion, words, bound))
    return rows, checks


def test_ablation_layout_conversion(benchmark):
    rows, checks = benchmark.pedantic(_conversion_study, rounds=1, iterations=1)
    print_rows("Ablation: ScaLAPACK block-cyclic (64 x 64 tiles) -> each algorithm's input "
               "layout, words received per rank", rows)
    for conversion, words, bound in checks:
        assert conversion < bound * words["COSMA"]
        for baseline in ("ScaLAPACK", "CTF", "Cannon"):
            assert words["COSMA"] + conversion < words[baseline]
