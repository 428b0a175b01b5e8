"""Seeded input generators and pass schedules for the four workloads.

This module never imports padic_mahler: it only produces input texts and
parameters, so the program under test receives nothing but generated
inputs.

Every workload except ``corpus`` draws from a *pool*: for each cell (a
fixed input shape, such as "p | lead, p = 3, degree 5") the generator
makes ``POOL_SIZE[workload]`` members from a fixed pool seed.  The
reference outputs of every pool member are recorded in
``bench/reference/<workload>.json`` at the reference commit, so the
correctness gate can compare exact outputs bit for bit whatever
``--seed`` is.  The run seed picks, per cell, the order in which members
are used; one pass runs one member of every cell.  Because each pass has
the same shape mix, a run's cost does not depend on which members the seed
picked.
"""

from __future__ import annotations

import random

POOL_SEED = 20261017

# Members per cell, and the tail percentile per workload.  Each q falls
# inside the cost tier of the workload's slowest cells, not at the edge
# between two tiers, where it would jump from run to run.  A run keeps
# going until it has at least 10 / (1 - q) ops, so that at least ten
# samples lie beyond the q-th percentile.
POOL_SIZE = {"towers": 24, "sweeps": 12, "measures": 8}
TAIL_PERCENTILE = {"corpus": 95, "towers": 95, "sweeps": 95, "measures": 90}
WORKLOADS = ("corpus", "towers", "sweeps", "measures")

CORPUS_RECORDS = ("4_1", "4^2_1", "5_2", "6^2_1", "6^2_2", "6^2_3", "7^2_1",
                  "7^2_2", "7^2_3", "9^2_23", "8^3_7")


def min_ops(workload: str) -> int:
    return round(10 / (1 - TAIL_PERCENTILE[workload] / 100))


# -- polynomial texts --------------------------------------------------------


def poly_text(coeffs) -> str:
    """Text of sum coeffs[i] * t^i, highest degree first."""
    parts = []
    for i in reversed(range(len(coeffs))):
        c = coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            power = "t" if i == 1 else f"t^{i}"
            body = power if mag == 1 else f"{mag}*{power}"
        parts.append((sign, body))
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _units(p, bound):
    return [u for u in range(-bound, bound + 1) if u % p]


def _distinct(make, count):
    """``count`` distinct results of ``make()``, so no input repeats within
    a cell."""
    out = []
    while len(out) < count:
        item = make()
        if item not in out:
            out.append(item)
    return out


# -- towers: verify_consistency along p-power towers -------------------------

# p^R_MAX <= 729 keeps every tower inside the bound the workload states;
# p = 5 at r_max = 6 would take 9-68 s per op.
TOWER_R_MAX = {2: 9, 3: 6, 5: 4}
ROADMAP_TOWER = "3*t^8 - 7*t^7 + 2*t^5 - 11*t^4 + 5*t^3 - t + 4"

# (class, p, degree).  About half the cells have p | lead; of those some
# have p dividing both ends and some p dividing the content (mu > 0).
TOWER_CELLS = (
    ("unit", 2, 3), ("unit", 2, 5), ("unit", 2, 8), ("unit", 3, 4),
    ("unit", 3, 7), ("unit", 3, 8), ("unit", 5, 3), ("unit", 5, 6),
    ("lead", 2, 6), ("lead", 2, 8), ("lead", 3, 5), ("lead", 5, 4),
    ("both", 2, 7), ("both", 3, 4), ("content", 3, 6), ("content", 5, 3),
)


def gen_tower(rng: random.Random, cls: str, p: int, d: int):
    """Integer polynomial of degree d with a nonzero constant term; the
    leading coefficient is positive and has v_p = 0 ("unit") or exactly 1
    (the other classes)."""
    units = _units(p, 9)
    c = [rng.randint(-9, 9) for _ in range(d + 1)]
    c[0] = rng.choice(units)
    c[d] = abs(rng.choice(units))
    if cls in ("lead", "both"):
        c[d] *= p
    if cls == "both":
        c[0] *= p
        c[rng.randint(1, d - 1)] = rng.choice(units)  # keeps mu = 0
    if cls == "content":
        c = [p * x for x in c]
    return c


def tower_cells():
    cells = {}
    for cls, p, d in TOWER_CELLS:
        rng = random.Random(f"towers:{cls}:{p}:{d}:{POOL_SEED}")
        polys = _distinct(lambda: gen_tower(rng, cls, p, d),
                          POOL_SIZE["towers"])
        cells[f"{cls}-p{p}-d{d}"] = [
            [tower_op(poly_text(c), p, TOWER_R_MAX[p])] for c in polys]
    cells["roadmap-p3-d8"] = [[tower_op(ROADMAP_TOWER, 3, 6)]]
    return cells


def tower_op(text, p, r_max):
    return {"kind": "verify_consistency",
            "args": {"poly": text, "p": p, "r_max": r_max}}


# -- sweeps: the n-loops of the estimators -----------------------------------

# (p, outside slopes, inside slopes, residues, components).  A factor
# p^a t - u has its root at valuation -a (outside the unit disk, polygon
# slope a); t - p^a u has its root at valuation a.  No factor has a unit
# root, so no polygon segment has slope zero and every op is defined.
# residues="distinct" keeps the roots of each outside slope in distinct
# residue classes, so the Hensel closed form applies; "shared" puts two
# outside roots in one class, which the closed form refuses, or answers by
# the norm shortcut when every root is outside.
SWEEP_CELLS = (
    (2, (1, 2), (1, 2), "distinct", 2),
    (2, (1, 2, 3), (1, 2), "distinct", 3),
    (3, (1, 1), (1, 2), "distinct", 2),
    (3, (1, 1, 2), (1, 1), "distinct", 3),
    (3, (1, 1), (1,), "shared", 2),
    (3, (1, 1, 2), (), "shared", 2),
    (5, (1, 1, 2), (1, 1), "distinct", 2),
    (5, (1, 2), (1, 1), "distinct", 3),
)
SWEEP_N_MAX = 120
SWEEP_PURE_BUDGET = 110


def gen_sweep(rng: random.Random, p, outside, inside, residues):
    units = _units(p, 7)
    coeffs = [1]
    if residues == "shared":
        r = rng.choice(range(1, p))
        picks = rng.sample([u for u in units if u % p == r], len(outside))
    else:
        picks = []
        used = set()
        for a in outside:
            u = rng.choice([u for u in units if (a, u % p) not in used])
            used.add((a, u % p))
            picks.append(u)
    for a, u in zip(outside, picks):
        coeffs = poly_mul(coeffs, [-u, p**a])
    for a in inside:
        coeffs = poly_mul(coeffs, [-(p**a) * rng.choice(units), 1])
    return coeffs


def sweep_ops(coeffs, p, components):
    """The six ops run on one polynomial f, in this order."""
    text = poly_text(coeffs)
    link = coeffs
    for _ in range(components - 1):
        link = poly_mul(link, [-1, 1])
    return [
        {"kind": "limit_estimate",
         "args": {"poly": text, "place": "inf", "n_max": SWEEP_N_MAX}},
        {"kind": "limit_estimate",
         "args": {"poly": text, "place": p, "n_max": SWEEP_N_MAX}},
        {"kind": "pure_estimate",
         "args": {"poly": text, "p": p, "n_budget": SWEEP_PURE_BUDGET}},
        {"kind": "pure_entropy", "args": {"poly": text, "p": p}},
        {"kind": "pure_closed_form", "args": {"poly": text, "p": p}},
        {"kind": "link_growth",
         "args": {"poly": poly_text(link), "d": components, "p": p}},
    ]


def sweep_cells():
    cells = {}
    for p, outside, inside, residues, comps in SWEEP_CELLS:
        name = (f"p{p}-out{''.join(map(str, outside))}"
                f"-in{''.join(map(str, inside))}-{residues}-d{comps}")
        rng = random.Random(f"sweeps:{name}:{POOL_SEED}")
        polys = _distinct(
            lambda: gen_sweep(rng, p, outside, inside, residues),
            POOL_SIZE["sweeps"])
        cells[name] = [sweep_ops(c, p, comps) for c in polys]
    return cells


# -- measures: the Euclidean place at high degree ----------------------------

MEASURE_DEGREES = (10, 18, 26, 34, 42, 50)
TOLS = (1e-12, 1e-9)


def gen_random_measure(rng: random.Random, d: int) -> str:
    c = [rng.randint(-20, 20) for _ in range(d + 1)]
    c[0] = rng.choice([x for x in range(-20, 21) if x])
    c[d] = rng.randint(1, 20)
    return poly_text(c)


def gen_repeated_measures(rng: random.Random, cell: str, count: int):
    """``count`` distinct texts with repeated factors.  Narrow exponent
    ranges keep the members of a cell at similar cost."""
    if cell == "rep-golden-low":
        return [f"(t-1)^{k}*(t^2-3*t+1)"
                for k in rng.sample(range(14, 14 + count), count)]
    if cell == "rep-golden-high":
        return [f"(t-1)^{k}*(t^2-3*t+1)"
                for k in rng.sample(range(101 - count, 101), count)]
    # mixed: several repeated factors, one of them not monic
    shapes = [(j, k, a) for j in range(10, 15) for k in (2, 3)
              for a in (2, 3, 5)]
    return [f"(t+1)^{j}*({a}*t^2-{a * a + 1}*t+{a})^2*(t^3-t-1)^{k}"
            for j, k, a in rng.sample(shapes, count)]


def measure_ops(text, tol):
    """mahler_euclidean and entropy_total on one input text at one tol.
    The two ops of a cell then cost about the same, and the cells fall
    into separate cost tiers, so the median op lies inside a tier rather
    than in a gap between two."""
    return [{"kind": "mahler", "args": {"text": text, "tol": tol}},
            {"kind": "entropy", "args": {"text": text, "tol": tol}}]


def measure_cells():
    cells = {}
    names = [f"random-d{d}" for d in MEASURE_DEGREES] + \
        ["rep-golden-low", "rep-golden-high", "rep-mixed"]
    for parity, name in enumerate(names):
        rng = random.Random(f"measures:{name}:{POOL_SEED}")
        count = POOL_SIZE["measures"]
        if name.startswith("random"):
            degree = int(name.split("-d")[1])
            texts = _distinct(lambda: gen_random_measure(rng, degree), count)
        else:
            texts = gen_repeated_measures(rng, name, count)
        # the cells alternate between the two tolerances
        cells[name] = [measure_ops(text, TOLS[parity % 2]) for text in texts]
    return cells


# -- corpus ------------------------------------------------------------------


def corpus_cells():
    return {name: [[{"kind": "verify_record", "args": {"record": name}}]]
            for name in CORPUS_RECORDS}


CELLS = {"corpus": corpus_cells, "towers": tower_cells,
         "sweeps": sweep_cells, "measures": measure_cells}


def op_key(op) -> str:
    """Reference lookup key of an op: its kind and sorted arguments."""
    args = ",".join(f"{k}={op['args'][k]!r}" for k in sorted(op["args"]))
    return f"{op['kind']}({args})"


def pool(workload: str):
    """Every op the workload can run, keyed by op_key."""
    out = {}
    for members in CELLS[workload]().values():
        for ops in members:
            for op in ops:
                out[op_key(op)] = dict(op, key=op_key(op))
    return out


def schedule(workload: str, seed: int):
    """Endless passes of ops.  Each pass runs one member of every cell;
    the seed fixes which member and in what order the cells run.  The ops
    of one member stay together, as a caller analysing one polynomial
    would issue them."""
    rng = random.Random(f"{workload}:{seed}")
    cells = CELLS[workload]()
    orders = {name: rng.sample(range(len(members)), len(members))
              for name, members in cells.items()}
    j = 0
    while True:
        groups = []
        for name, members in cells.items():
            member = members[orders[name][j % len(members)]]
            groups.append([dict(op, cell=name, key=op_key(op))
                           for op in member])
        rng.shuffle(groups)
        yield [op for group in groups for op in group]
        j += 1
