"""The three workloads: job lists with the output each job must produce.

A job is one ``vertexforms`` command line.  Its check never calls the
package: expected values come from the count tables and transfer sums in
oracle.py, from the per-vertex rules, and from verdicts the input
generator knows by construction.  Each check also fixes the exit code.

Why each workload exists:

* lattice-sums - counts and partition functions.  Time goes to state
  generation in forms_rect, eightvertex and toroidal and to the per-state
  Fraction product in yangbaxter; output is tiny.  A transfer-matrix
  engine or boundary pinning must show its gain here.
* listing-verify - state listings and verification suites.  Same
  enumeration layers, but every state is built and serialized, so a
  counting-only speedup gains nothing and any slowdown of grid
  construction, serialization or listing shows.
* algebra-ybe - exact algebra with no lattice enumeration: rref over
  F2, F3 and Q, matmul, and many small Fraction products in yangbaxter.
  Enumeration changes should leave it flat.

Every workload also runs the same small probe group, one short job of
each command, so that every per-command time is defined on every
workload.  Its inputs come from the fixed PROBE_SEED, so it costs the
same in every run.  Probe jobs are marked: the job percentiles and the
traced run leave them out, so they do not change the workload's own job
mix.

A run repeats passes over the job list until its time is used, and a
job's time is its median run, scaled to the reference kernel's speed
(see reference.py).  Every job is kept short (about a second at most on
a 2-vCPU VM) so that it runs in every pass, five times or more in a
run.  The larger shapes the paper reaches (5x4 counts, the 3x3
eight-vertex listing and partition function, the 2x4 sparse fibers, the
4x2 defect-rank sweep) take 2-10 s each and are left out for that
reason.

Listings are checked as they are read, one state at a time, so that the
check holds little more than the output text and the peak memory of a
run stays the program's.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

import oracle
from oracle import Mismatch

COMMANDS = ("count", "enumerate", "partition", "verify", "ybe")
WORKLOADS = ("lattice-sums", "listing-verify", "algebra-ybe")
PROBE_SEED = 0
PROBE_TRIPLES = 1
N_TRIPLES = {"lattice-sums": 0, "listing-verify": 0, "algebra-ybe": 24}
SMOKE_TRIPLES = 4


@dataclass
class Job:
    argv: list
    rc: int
    check: object  # callable(stdout text), raises Mismatch
    facts: dict = field(default_factory=dict)  # computed counts for the traced run
    probe: bool = False  # part of the probe group, not the workload's own traffic

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def label(self) -> str:
        return " ".join(a.rsplit("/", 1)[-1] for a in self.argv)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def equals(expected: dict):
    def check(text: str) -> None:
        got = json.loads(text)
        _expect(got == expected, f"expected {expected}, got {got}")
    return check


def _check_states(tables, m: int, n: int, model: str, count: int, boundary) -> None:
    """Every state obeys the vertex rule; states are distinct and sorted.

    tables is an iterator of (f, g) pairs, consumed once.
    """
    rule = "eight" if model == "eight" else "six"
    prev = None
    seen = 0
    for f, g in tables:
        seen += 1
        _expect(len(f) == m and all(len(r) == n + 1 for r in f), "bad f shape")
        _expect(len(g) == m + 1 and all(len(r) == n for r in g), "bad g shape")
        key = oracle.edge_tuple(f, g)
        _expect(all(x in (0, 1) for x in key), "edge value outside {0, 1}")
        _expect(oracle.first_bad_vertex(f, g, m, n, rule) is None, "inadmissible state")
        if model == "toroidal":
            _expect(all(r[0] == r[n] for r in f) and g[0] == g[m], "not periodic")
        if boundary is not None:
            _expect(oracle.boundary_of(f, g, m, n) == boundary, "wrong boundary")
        _expect(prev is None or prev < key, "states not distinct and sorted")
        prev = key
    _expect(seen == count, f"expected {count} states, got {seen}")


def _lines(text: str):
    """The lines of text, one at a time, without splitting it all at once."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end + 1
        yield text[start:end]
        start = end


_DECODER = json.JSONDecoder()
_SPACE = re.compile(r"\s*")
_LISTING_HEAD = re.compile(r'\s*\{\s*"count"\s*:\s*(\d+)\s*,\s*"states"\s*:\s*\[')


def _json_states(text: str, m: int, n: int, fieldname: str, count: int):
    """(f, g) of each state of a JSON listing, decoded one state at a time."""
    head = _LISTING_HEAD.match(text)
    _expect(head is not None, "listing does not open with count and states")
    _expect(int(head.group(1)) == count, f"count {head.group(1)} != {count}")
    pos = _SPACE.match(text, head.end()).end()
    while text[pos] != "]":
        st, pos = _DECODER.raw_decode(text, pos)
        _expect((st["m"], st["n"], st["field"]) == (m, n, fieldname), "wrong header")
        yield st["f"], st["g"]
        pos = _SPACE.match(text, pos).end()
        if text[pos] == ",":
            pos = _SPACE.match(text, pos + 1).end()
    _expect(re.fullmatch(r"\]\s*\}\s*", text[pos:]) is not None, "text after the states")


def listing(m: int, n: int, model: str, count: int, fmt: str, boundary=None):
    fieldname = "F2" if model == "eight" else "F3"

    def check(text: str) -> None:
        if fmt == "csv":
            rows = csv.reader(_lines(text))
            _expect(next(rows) == oracle.edge_headers(m, n), "wrong CSV header")
            tables = (oracle.tables_from_edges([int(x) for x in r], m, n) for r in rows)
        else:
            tables = _json_states(text, m, n, fieldname, count)
        _check_states(tables, m, n, model, count, boundary)
    return check


def sparse_fibers(m: int, n: int):
    total = oracle.TOROIDAL_COUNTS[(m, n)]

    def check(text: str) -> None:
        doc = json.loads(text)
        _expect(doc["passed"] is True and doc["states"] == total, "wrong state total")
        _expect(sum(fe["fiber_size"] for fe in doc["fibers"]) == total, "fibers miss states")
        for fe in doc["fibers"]:
            _expect(fe["fiber_size"] == len(fe["r_choices"]) * len(fe["s_choices"]),
                    "fiber size is not the product of the shift choices")
    return check


def defect_rank(m: int, n: int) -> dict:
    total = oracle.eight_total(m, n)
    doc = {"suite": "defect-rank", "shape": [m, n], "rank": m * n,
           "expected_rank": m * n, "total_states": total,
           "valid_boundaries": 2 ** (2 * m + 2 * n - 1), "passed": True}
    if m * (n + 1) + (m + 1) * n <= 26:  # the suite's brute-force sweep runs
        doc["brute_total"] = total
    return doc


def _ybe_jobs(tri) -> list:
    r, s, t = tri.weights
    rp, sp, tp = tri.paths
    ok = tri.solvable
    star = [str(v) for v in oracle.star_residuals(r, s, t)]

    def residuals_json(text: str) -> None:
        doc = json.loads(text)
        _expect(doc["residuals64"] == star, "residuals64 differ from the commutator")
        values = [e["value"] for e in doc["residuals28"]]
        _expect(len(values) == 28 and all(v == "0" for v in values) == ok,
                "residuals28 verdict")
        _expect(doc["all_zero"] is ok, "all_zero verdict")

    def residuals_csv(text: str) -> None:
        rows = list(csv.reader(_lines(text)))
        _expect(rows[0] == ["kind", "index", "label", "value"], "wrong CSV header")
        _expect([r[3] for r in rows[1:65]] == star, "star rows differ from the commutator")
        eq = [r[3] for r in rows[65:]]
        _expect(len(eq) == 28 and all(v == "0" for v in eq) == ok, "eq rows verdict")

    def conditions(text: str) -> None:
        doc = json.loads(text)
        _expect(doc["all_hold"] is ok, "all_hold verdict")
        _expect(doc["F(S)"] == str(oracle.f_invariant(s))
                and doc["F(T)"] == str(oracle.f_invariant(t)), "F invariants")

    def solve(text: str) -> None:
        doc = json.loads(text)
        if not ok:
            _expect(doc["dimension"] == 0 and doc["witness"] is None, "generic solve")
            return
        _expect(doc["dimension"] == 1 and doc["witness_commutator_zero"] is True,
                "solvable solve")
        w = {k: Fraction(v) for k, v in doc["witness"].items()}
        _expect(not any(x for row in oracle.commutator(w, s, t) for x in row)
                and all(w[k] != 0 for k in ("c1", "c-1", "d1", "d-1")), "witness")

    rc = 0 if ok else 1
    return [
        Job(["ybe", "check", "--r", rp, "--s", sp, "--t", tp], rc,
            equals({"commutator_zero": ok})),
        Job(["ybe", "residuals", "--r", rp, "--s", sp, "--t", tp], 0, residuals_json),
        Job(["ybe", "residuals", "--r", rp, "--s", sp, "--t", tp, "--format", "csv"], 0,
            residuals_csv),
        Job(["ybe", "conditions", "--s", sp, "--t", tp], rc, conditions),
        Job(["ybe", "solve", "--s", sp, "--t", tp], rc, solve),
    ]


def _shape(m: int, n: int) -> list:
    return ["--m", str(m), "--n", str(n)]


def _count(m: int, n: int, expected: dict, *extra, facts=None) -> Job:
    return Job(["count", *_shape(m, n), *extra], 0, equals(expected), facts or {})


def _partition(m: int, n: int, model: str, wpath: str, weights, bpath=None, b=None) -> Job:
    argv = ["partition", *_shape(m, n), "--model", model, "--weights", wpath]
    if bpath is not None:
        argv += ["--boundary", bpath]
    z = oracle.lattice_sum(m, n, model, weights, b)
    states = oracle.lattice_sum(m, n, model, None, b)
    facts = {"weight_lookups": states * m * n}
    if model == "six" and b is not None:
        facts["kept"] = states
    return Job(argv, 0, equals({"value": str(z)}), facts)


def _enumerate(m: int, n: int, model: str, fmt: str, bpath=None, b=None) -> Job:
    argv = ["enumerate", *_shape(m, n), "--model", model, "--format", fmt]
    if bpath is not None:
        argv += ["--boundary", bpath]
    if m * (n + 1) + (m + 1) * n > 26:
        argv.append("--force")
    if model == "toroidal":
        count = oracle.toroidal_count(m, n)
    else:
        count = oracle.lattice_sum(m, n, model, None, b)
    facts = {"kept": count} if model == "six" and b is not None else {}
    return Job(argv, 0, listing(m, n, model, count, fmt, b), facts)


def _verify(suite: str, m: int, n: int, expected, *extra) -> Job:
    check = expected if callable(expected) else equals(expected)
    return Job(["verify", suite, *_shape(m, n), *extra], 0, check)


def _suite_doc(suite: str, m: int, n: int, mode: str, checked: int) -> dict:
    return {"suite": suite, "shape": [m, n], "mode": mode, "checked": checked,
            "passed": True}


def probe(inp) -> list:
    """Short jobs covering every command, marked as probe jobs."""
    b_path, b = inp.six_boundaries[(2, 2)][0]
    w6_path, w6 = inp.weights6[0]
    w8_path, w8 = inp.weights8[0]
    seed = str(inp.seed)
    jobs = [
        _count(3, 3, {"count": oracle.SIX_COUNTS[(3, 3)]}),
        _count(2, 2, {"states": oracle.SIX_COUNTS[(2, 2)],
                      "colorings": 3 * oracle.SIX_COUNTS[(2, 2)], "match": True},
               "--check-colorings"),
        _count(2, 2, {"count": oracle.TOROIDAL_COUNTS[(2, 2)]}, "--model", "toroidal"),
        _enumerate(2, 2, "six", "json", b_path, b),
        _enumerate(2, 2, "eight", "csv"),
        _partition(2, 2, "six", w6_path, w6),
        _partition(2, 2, "eight", w8_path, w8),
        _verify("poincare", 3, 3, _suite_doc("poincare", 3, 3, "random", 5),
                "--samples", "5", "--seed", seed),
        _verify("sparse-fibers", 2, 2, sparse_fibers(2, 2)),
        _verify("defect-rank", 2, 2, defect_rank(2, 2)),
    ]
    for tri in inp.triples:
        jobs += _ybe_jobs(tri)
    for job in jobs:
        job.probe = True
    return jobs


def lattice_sums(inp) -> list:
    jobs = [
        _count(3, 3, {"count": oracle.SIX_COUNTS[(3, 3)]}),
        _count(4, 3, {"count": oracle.SIX_COUNTS[(4, 3)]}, "--force"),
        _count(4, 4, {"count": oracle.SIX_COUNTS[(4, 4)]}, "--force"),
        _count(3, 3, {"states": oracle.SIX_COUNTS[(3, 3)],
                      "colorings": 3 * oracle.SIX_COUNTS[(3, 3)], "match": True},
               "--check-colorings"),
    ]
    for path, b in inp.six_boundaries[(4, 3)]:
        kept = oracle.lattice_sum(4, 3, "six", None, b)
        jobs.append(_count(4, 3, {"count": kept}, "--force", "--boundary", path,
                           facts={"kept": kept}))
    jobs.append(_count(2, 4, {"count": oracle.TOROIDAL_COUNTS[(2, 4)]},
                       "--model", "toroidal"))
    jobs.append(_count(3, 3, {"total": oracle.eight_total(3, 3)}, "--model", "eight"))
    for path, b in inp.eight_even + inp.eight_odd:
        jobs.append(_count(3, 3, {"count": oracle.lattice_sum(3, 3, "eight", None, b)},
                           "--model", "eight", "--boundary", path))
    for (wpath, w), (bpath, b) in zip(inp.weights6, inp.six_boundaries[(3, 3)]):
        kept = oracle.lattice_sum(3, 3, "six", None, b)
        jobs.append(_count(3, 3, {"count": kept}, "--boundary", bpath, facts={"kept": kept}))
        jobs.append(_partition(3, 3, "six", wpath, w))
        jobs.append(_partition(3, 3, "six", wpath, w, bpath, b))
    jobs.append(_partition(2, 3, "eight", *inp.weights8[0]))
    # odd boundaries have no extension: Z = 0
    for k, (bpath, b) in enumerate(inp.eight_even + inp.eight_odd):
        jobs.append(_partition(3, 3, "eight", *inp.weights8[k % 2], bpath, b))
    return jobs


def listing_verify(inp) -> list:
    (p0, b0), (p1, b1) = inp.six_boundaries[(3, 3)]
    jobs = [
        _enumerate(3, 3, "six", "json"),
        _enumerate(3, 3, "six", "csv"),
        _enumerate(3, 3, "six", "json", p0, b0),
        _enumerate(3, 3, "six", "csv", p1, b1),
        _enumerate(4, 3, "six", "csv"),
    ]
    (p0, b0), (p1, b1) = inp.eight_even[:2]
    po, bo = inp.eight_odd[0]
    jobs += [
        _enumerate(2, 3, "eight", "json"),
        _enumerate(3, 3, "eight", "json", p0, b0),
        _enumerate(3, 3, "eight", "csv", p1, b1),
        _enumerate(3, 3, "eight", "json", po, bo),
        _enumerate(2, 4, "toroidal", "json"),
        # bijection: three base labels per state, plus 500 random colorings
        _verify("bijection", 3, 3, {"suite": "bijection", "shape": [3, 3],
                                    "checked": 3 * oracle.SIX_COUNTS[(3, 3)] + 500,
                                    "passed": True},
                "--seed", str(inp.seed)),
        # 3^(mn+m+n) closed forms on the rectangle, 3^(mn+1) on the torus
        _verify("poincare", 2, 2, _suite_doc("poincare", 2, 2, "exhaustive", 3 ** 8)),
        _verify("cohomology", 2, 2, _suite_doc("cohomology", 2, 2, "exhaustive", 3 ** 5)),
        _verify("defect-rank", 3, 2, defect_rank(3, 2)),
    ]
    for case in inp.states:
        argv = ["verify", "state", "--in", case.path, "--model", case.model]
        if case.bad_vertex is None:
            jobs.append(Job(argv, 0, equals({"admissible": True})))
        else:
            edges = oracle.vertex_edges(case.f, case.g, *case.bad_vertex)
            jobs.append(Job(argv, 1, equals({
                "admissible": False,
                "counterexample": {"vertex": list(case.bad_vertex), "edges": list(edges)},
            })))
    return jobs


def algebra_ybe(inp) -> list:
    jobs = []
    for tri in inp.triples:
        jobs += _ybe_jobs(tri)
    seed = str(inp.seed)
    for m, n, samples in ((6, 6, 100), (8, 8, 30)):
        jobs.append(_verify("poincare", m, n, _suite_doc("poincare", m, n, "random", samples),
                            "--samples", str(samples), "--seed", seed))
    jobs.append(_verify("cohomology", 8, 7, _suite_doc("cohomology", 8, 7, "random", 500),
                        "--seed", seed))
    for m, n in ((8, 8), (10, 6)):
        jobs.append(_verify("defect-rank", m, n, defect_rank(m, n)))
    return jobs


BUILDERS = {
    "lattice-sums": lattice_sums,
    "listing-verify": listing_verify,
    "algebra-ybe": algebra_ybe,
}


def build(name: str, inp, probe_inp) -> list:
    """The workload's jobs, then the probe group.

    inp holds the seeded inputs, probe_inp those made from PROBE_SEED.
    """
    return BUILDERS[name](inp) + probe(probe_inp)
