"""Seeded input files for the benchmark workloads.

Every input the program reads is written here as a JSON file: weights,
boundaries, single states and weight triples.  The same seed gives
byte-identical files.  Boundaries are cut from seeded admissible states,
so each one has an extension, except the odd-parity eight-vertex
boundaries, which exist to exercise the zero path.  Verdicts for the
weight triples are known by construction and confirmed with the
independent arithmetic in oracle.py.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

SIX_BOUNDARY_SHAPES = ((2, 2), (3, 3), (4, 3))
EIGHT_BOUNDARY_SHAPE = (3, 3)
STATE_SHAPE = (4, 3)


@dataclass
class Inputs:
    """Paths of the generated files plus what the checks need to know."""

    seed: int
    root: Path
    weights6: list = field(default_factory=list)      # (path, weights) with d = 0
    weights8: list = field(default_factory=list)      # (path, weights), no zero entry
    six_boundaries: dict = field(default_factory=dict)  # shape -> [(path, boundary)]
    eight_even: list = field(default_factory=list)    # (path, boundary) at EIGHT_BOUNDARY_SHAPE
    eight_odd: list = field(default_factory=list)
    states: list = field(default_factory=list)        # StateCase
    triples: list = field(default_factory=list)       # Triple


@dataclass
class StateCase:
    path: str
    model: str
    f: list
    g: list
    bad_vertex: tuple | None  # first vertex breaking the rule, None if admissible


@dataclass
class Triple:
    paths: tuple  # r, s, t
    weights: tuple
    solvable: bool


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(path)


def _weights_doc(w: dict) -> dict:
    return {k: str(w[k]) for k in oracle.WEIGHT_KEYS}


# Each weight has a fixed prime denominator and the seed only deals out the
# numerators 3..10 among the weights, so the bit lengths of the exact sums,
# and with them the cost of a partition function, barely depend on the seed.
_DENOMINATORS = (11, 13, 17, 19, 23, 29, 31, 37)


def lattice_weights(rng: random.Random, six: bool) -> dict:
    """Rational weights for partition functions; d = 0 for the six-vertex model."""
    numerators = list(range(3, 11))
    rng.shuffle(numerators)
    w = {k: Fraction(a, q) for k, a, q in zip(oracle.WEIGHT_KEYS, numerators, _DENOMINATORS)}
    if six:
        w["d1"] = w["d-1"] = Fraction(0)
    return w


def random_six_state(rng: random.Random, m: int, n: int) -> tuple:
    """An admissible six-vertex state, filled vertex by vertex from the rule."""
    f = [[0] * (n + 1) for _ in range(m)]
    g = [[0] * n for _ in range(m + 1)]
    for i in range(m):
        f[i][0] = rng.randint(0, 1)
    for j in range(n):
        g[0][j] = rng.randint(0, 1)
    for j in range(n):
        for i in range(m):
            bottom, left = f[i][j], g[i][j]
            # right - left = top - bottom: forced when the inputs differ
            top, right = (bottom, left) if bottom != left else (rng.randint(0, 1),) * 2
            f[i][j + 1], g[i + 1][j] = top, right
    return f, g


def random_eight_state(rng: random.Random, m: int, n: int) -> tuple:
    """A uniformly random admissible eight-vertex state: tops free, rights by parity."""
    f = [[rng.randint(0, 1)] + [0] * n for _ in range(m)]
    g = [[rng.randint(0, 1) for _ in range(n)]] + [[0] * n for _ in range(m)]
    for j in range(n):
        for i in range(m):
            top = rng.randint(0, 1)
            f[i][j + 1] = top
            g[i + 1][j] = (f[i][j] + g[i][j] + top) % 2
    return f, g


def _boundary_doc(m: int, n: int, fieldname: str, b: dict) -> dict:
    return {"m": m, "n": n, "field": fieldname, **b}


def _tanh_add(x, y):
    return (x + y) / (1 + x * y)


def _tanh_sub(x, y):
    return (x - y) / (1 - x * y)


def _baxter(t, h) -> list:
    a = _tanh_add(t, h)
    return [a, a, t, t, h, h, a * t * h, a * t * h]


def _twist(w: list, x, y) -> list:
    a1, am, b1, bm, c1, cm, d1, dm = w
    return [a1, am, b1, bm, c1 * y / x, cm * x / y, d1 / (x * y), dm * x * y]


def solvable_triple(rng: random.Random) -> tuple:
    """(R, S, T) from the twisted Baxter family, every weight nonzero.

    Triples at parameters (t1 - t2, t1, t2) (combined by the tanh
    subtraction law) with a shared h solve the Yang-Baxter equation; the
    diagonal twist and the scale factors keep it solved.  Only triples
    whose solution space in R is one-dimensional are kept: that space is
    spanned by R, whose c and d weights are nonzero, so a witness scan
    always succeeds.
    """
    while True:
        t1, t2, h = (Fraction(rng.randint(1, 9), rng.randint(10, 19)) for _ in range(3))
        x, y, z = (Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(3))
        scales = [rng.randint(1, 5) for _ in range(3)]
        if t1 == t2:
            continue
        try:
            vecs = (
                _twist(_baxter(_tanh_sub(t1, t2), h), x, y),
                _twist(_baxter(t1, h), x, z),
                _twist(_baxter(t2, h), y, z),
            )
        except ZeroDivisionError:
            continue
        triple = tuple(
            dict(zip(oracle.WEIGHT_KEYS, (c * v for v in vec)))
            for c, vec in zip(scales, vecs)
        )
        if any(v == 0 for w in triple for v in w.values()):
            continue
        if any(x for row in oracle.commutator(*triple) for x in row):
            raise RuntimeError("the solvable family gave a nonzero commutator")
        if oracle.solution_dimension(triple[1], triple[2]) == 1:
            return triple


def generic_triple(rng: random.Random) -> tuple:
    """(R, S, T) with no zero weight whose verdicts fail by construction.

    T's a1 b1 differs from a-1 b-1 and F(S) is nonzero, so the first
    necessary condition fails; the commutator and the space of R solving
    against (S, T) are confirmed nonzero and zero with oracle.py.
    """
    while True:
        triple = tuple(
            {k: Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))
             for k in oracle.WEIGHT_KEYS}
            for _ in range(3)
        )
        _, s, t = triple
        if t["a1"] * t["b1"] == t["a-1"] * t["b-1"] or oracle.f_invariant(s) == 0:
            continue
        if any(x for row in oracle.commutator(*triple) for x in row) and \
                oracle.solution_dimension(s, t) == 0:
            return triple


def generate(seed: int, root: Path, n_triples: int) -> Inputs:
    """Write every input file under root; the same seed gives the same bytes."""
    rng = random.Random(seed)
    root.mkdir(parents=True, exist_ok=True)
    inp = Inputs(seed=seed, root=root)

    for k in range(2):
        w6 = lattice_weights(rng, six=True)
        inp.weights6.append((_write(root / f"w6_{k}.json", _weights_doc(w6)), w6))
        w8 = lattice_weights(rng, six=False)
        inp.weights8.append((_write(root / f"w8_{k}.json", _weights_doc(w8)), w8))

    for m, n in SIX_BOUNDARY_SHAPES:
        cases = []
        for k in range(2):
            b = oracle.boundary_of(*random_six_state(rng, m, n), m, n)
            path = _write(root / f"b6_{m}x{n}_{k}.json", _boundary_doc(m, n, "F3", b))
            cases.append((path, b))
        inp.six_boundaries[(m, n)] = cases

    m, n = EIGHT_BOUNDARY_SHAPE
    for k in range(3):
        b = oracle.boundary_of(*random_eight_state(rng, m, n), m, n)
        inp.eight_even.append(
            (_write(root / f"b8_even_{k}.json", _boundary_doc(m, n, "F2", b)), b))
        side = rng.choice(sorted(b))
        odd = {key: list(v) for key, v in b.items()}
        odd[side][rng.randrange(len(odd[side]))] ^= 1
        inp.eight_odd.append(
            (_write(root / f"b8_odd_{k}.json", _boundary_doc(m, n, "F2", odd)), odd))

    m, n = STATE_SHAPE
    for model, fieldname, make in (("six", "F3", random_six_state),
                                   ("eight", "F2", random_eight_state)):
        for k in range(4):
            f, g = make(rng, m, n)
            doc = {"m": m, "n": n, "field": fieldname, "f": f, "g": g}
            inp.states.append(StateCase(
                _write(root / f"state_{model}_{k}.json", doc), model, f, g, None))
            flipped_f = [row[:] for row in f]
            flipped_g = [row[:] for row in g]
            table = rng.choice((flipped_f, flipped_g))
            row = rng.choice(table)
            row[rng.randrange(len(row))] ^= 1
            bad = oracle.first_bad_vertex(flipped_f, flipped_g, m, n, model)
            if bad is None:
                raise RuntimeError("a flipped edge must break the vertex rule")
            doc = {"m": m, "n": n, "field": fieldname, "f": flipped_f, "g": flipped_g}
            inp.states.append(StateCase(
                _write(root / f"state_{model}_{k}_flipped.json", doc), model,
                flipped_f, flipped_g, bad))

    for k in range(n_triples):
        solvable = k % 2 == 0
        triple = solvable_triple(rng) if solvable else generic_triple(rng)
        paths = tuple(
            _write(root / f"tri_{k}_{name}.json", _weights_doc(w))
            for name, w in zip("rst", triple)
        )
        inp.triples.append(Triple(paths, triple, solvable))
    return inp
