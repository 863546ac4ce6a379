"""Self-test of the benchmark harness; exits 0 when every check passes.

    python3 perfbench/selftest.py

Checks that the count tables agree with the transfer sums, that one seed
gives byte-identical input files, that a wrong output is caught, and
runs a smoke pass of each workload (MIN_PASSES plain passes and as many
traced pairs, with fewer weight triples), requiring every output check
to pass and every metric named in BENCHMARK.json to be emitted with its
unit.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import shutil
import sys
from pathlib import Path

import inputs
import oracle
import run
import workloads

SEED = 3


def check_tables() -> None:
    for (m, n), count in oracle.SIX_COUNTS.items():
        assert oracle.lattice_sum(m, n, "six") == count, (m, n)
    for (m, n), count in oracle.TOROIDAL_COUNTS.items():
        assert oracle.toroidal_count(m, n) == count, (m, n)
    for m, n in ((2, 2), (3, 3), (4, 3)):
        assert oracle.lattice_sum(m, n, "eight") == oracle.eight_total(m, n)


def check_inputs_repeat(work: Path) -> None:
    a = inputs.generate(SEED, work / "a", workloads.SMOKE_TRIPLES).root
    b = inputs.generate(SEED, work / "b", workloads.SMOKE_TRIPLES).root
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _expect_mismatch(check, text: str, what: str) -> None:
    try:
        check(text)
    except oracle.Mismatch:
        return
    raise AssertionError(f"{what} passed its check")


def check_catches_wrong_output(inp) -> None:
    _expect_mismatch(workloads.probe(inp)[0].check,
                     json.dumps({"count": oracle.SIX_COUNTS[(4, 3)] + 1}), "a wrong count")
    # the 2x2 six-vertex listing, built by brute force over all edge labels
    m, n = 2, 2
    states = []
    for edges in itertools.product((0, 1), repeat=2 * m * n + m + n):
        f, g = oracle.tables_from_edges(edges, m, n)
        if oracle.first_bad_vertex(f, g, m, n, "six") is None:
            states.append({"f": f, "g": g, "field": "F3", "m": m, "n": n})

    def as_json(sts, count=len(states)):
        return json.dumps({"count": count, "states": sts}, indent=2, sort_keys=True)

    def as_csv(sts):
        rows = [oracle.edge_headers(m, n)] + [oracle.edge_tuple(st["f"], st["g"]) for st in sts]
        return "".join(",".join(map(str, r)) + "\r\n" for r in rows)

    flipped = json.loads(json.dumps(states))
    flipped[5]["g"][0][0] ^= 1
    swapped = states[:3] + [states[4], states[3]] + states[5:]
    for fmt, render in (("json", as_json), ("csv", as_csv)):
        check = workloads.listing(m, n, "six", oracle.SIX_COUNTS[(m, n)], fmt)
        check(render(states))
        _expect_mismatch(check, render(states[:-1]), f"a {fmt} listing missing a state")
        _expect_mismatch(check, render(flipped), f"a {fmt} listing with a bad vertex")
        _expect_mismatch(check, render(swapped), f"an unsorted {fmt} listing")
    check = workloads.listing(m, n, "six", oracle.SIX_COUNTS[(m, n)], "json")
    _expect_mismatch(check, as_json(states, len(states) + 1), "a wrong listing count")


def check_units(got: dict, wanted: list, what: str) -> None:
    for metric in wanted:
        assert metric["name"] in got, f"{what}: {metric['name']} not emitted"
        assert got[metric["name"]][1] == metric["unit"], f"{what}: unit of {metric['name']}"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    cli = run.import_cli()
    assert cli is not None, "vertexforms sources not found"
    check_tables()
    work = run.ROOT / ".perfbench_work" / "selftest"
    try:
        check_inputs_repeat(work)
        inp = inputs.generate(SEED, work / "smoke", workloads.SMOKE_TRIPLES)
        probe_inp = inputs.generate(workloads.PROBE_SEED, work / "probe",
                                    workloads.PROBE_TRIPLES)
        check_catches_wrong_output(probe_inp)
        for name in workloads.WORKLOADS:
            jobs = workloads.build(name, inp, probe_inp)
            own = [job for job in jobs if not job.probe]
            setup_times = []
            plain = run.measure(cli, jobs, 0, setup_times)
            pairs = run.measure_traced(cli, own, 0)
            problems = [msg for p in plain + pairs[0] + pairs[1] for msg in p["problems"]]
            assert not problems, f"{name}: {problems}"
            metrics = run.end_to_end(jobs, plain, setup_times)[0]
            check_units(metrics, spec["end_to_end"], name)
            assert all(value > 0 for value, _ in metrics.values()), f"{name}: a zero metric"
            check_units(run.traced_metrics(own, *pairs), spec["per_layer"], name)
            print(f"{name}: {len(jobs)} smoke jobs passed, plain and traced")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no run is using it
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
