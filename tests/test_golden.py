"""Golden CLI output: verify suites, listings and the ybe commands print
what the fixtures recorded.

Each case runs cli.main in-process and compares stdout, stderr and the
exit code byte for byte with tests/fixtures/golden/<name>.out (and
<name>.err where the run writes to stderr).  The fixtures were recorded
from these same argument lists and are not regenerated: a change that
alters any of these outputs, even in whitespace, fails here.  Listings
too large for a fixture (0.2 to 18 MB) are pinned by the SHA-256 of
their stdout instead.
"""

import hashlib

import pytest

from conftest import FIXTURES
from vertexforms.cli import main

GOLDEN = FIXTURES / "golden"
SIX_3X3 = str(FIXTURES / "boundary_six_3x3.json")
EVEN_3X3 = str(FIXTURES / "boundary_eight_3x3_even.json")
ODD_3X3 = str(FIXTURES / "boundary_eight_3x3_odd.json")


def weights(triple, parties):
    """--r/--s/--t arguments naming tests/fixtures/weights_<triple>_<party>.json."""
    return [arg for party in parties
            for arg in (f"--{party}", str(FIXTURES / f"weights_{triple}_{party}.json"))]


CASES = {
    "sparse_fibers_2x4": (["verify", "sparse-fibers", "--m", "2", "--n", "4"], 0),
    "sparse_fibers_2x4_csv": (
        ["verify", "sparse-fibers", "--m", "2", "--n", "4", "--format", "csv"], 0),
    "cohomology_2x2": (["verify", "cohomology", "--m", "2", "--n", "2"], 0),
    "cohomology_4x2": (["verify", "cohomology", "--m", "4", "--n", "2"], 0),
    "cohomology_8x7_seed3": (["verify", "cohomology", "--m", "8", "--n", "7", "--seed", "3"], 0),
    "cohomology_3x2": (["verify", "cohomology", "--m", "3", "--n", "2"], 2),
    "bijection_2x3": (["verify", "bijection", "--m", "2", "--n", "3"], 0),
    "bijection_3x3_seed1": (["verify", "bijection", "--m", "3", "--n", "3", "--seed", "1"], 0),
    "poincare_2x2": (["verify", "poincare", "--m", "2", "--n", "2"], 0),
    "poincare_4x4_samples20": (
        ["verify", "poincare", "--m", "4", "--n", "4", "--samples", "20"], 0),
    "poincare_3x3_samples5_seed0": (
        ["verify", "poincare", "--m", "3", "--n", "3", "--samples", "5", "--seed", "0"], 0),
    "poincare_6x6_samples100_seed3": (
        ["verify", "poincare", "--m", "6", "--n", "6", "--samples", "100", "--seed", "3"], 0),
    "defect_rank_3x2": (["verify", "defect-rank", "--m", "3", "--n", "2"], 0),
    "enumerate_six_2x2": (["enumerate", "--m", "2", "--n", "2"], 0),
    "enumerate_six_3x3_pinned_csv": (
        ["enumerate", "--m", "3", "--n", "3", "--boundary", SIX_3X3, "--format", "csv"], 0),
    "enumerate_eight_3x3_even": (
        ["enumerate", "--model", "eight", "--m", "3", "--n", "3", "--boundary", EVEN_3X3], 0),
    "enumerate_eight_3x3_odd": (
        ["enumerate", "--model", "eight", "--m", "3", "--n", "3", "--boundary", ODD_3X3], 0),
    "enumerate_toroidal_2x4_csv": (
        ["enumerate", "--model", "toroidal", "--m", "2", "--n", "4", "--format", "csv"], 0),
    "ybe_check_solvable": (["ybe", "check", *weights("solvable", "rst")], 0),
    "ybe_residuals_solvable": (["ybe", "residuals", *weights("solvable", "rst")], 0),
    "ybe_residuals_solvable_csv": (
        ["ybe", "residuals", *weights("solvable", "rst"), "--format", "csv"], 0),
    "ybe_conditions_solvable": (["ybe", "conditions", *weights("solvable", "st")], 0),
    "ybe_solve_solvable": (["ybe", "solve", *weights("solvable", "st")], 0),
    "ybe_check_generic": (["ybe", "check", *weights("generic", "rst")], 1),
    "ybe_residuals_generic": (["ybe", "residuals", *weights("generic", "rst")], 0),
    "ybe_residuals_generic_csv": (
        ["ybe", "residuals", *weights("generic", "rst"), "--format", "csv"], 0),
    "ybe_conditions_generic": (["ybe", "conditions", *weights("generic", "st")], 1),
    "ybe_solve_generic": (["ybe", "solve", *weights("generic", "st")], 1),
    # S = T = identity: every R solves, dimension 8, the first combination scanned is a witness
    "ybe_solve_identity": (["ybe", "solve", *weights("identity", "st")], 0),
    # S = T, untwisted (c1 = c-1, d1 = d-1): dimension 1, its line has c = d = 0
    "ybe_solve_untwisted": (["ybe", "solve", *weights("untwisted", "st")], 1),
}


# name -> (argv, SHA-256 of stdout); each exits 0 and writes no stderr
DIGESTS = {
    "enumerate_six_4x3_csv": (
        ["enumerate", "--m", "4", "--n", "3", "--format", "csv"],
        "3274d9979215e521e89cce7eba924b8d7ec2637269c4acc156574135b24b7b4a"),
    "enumerate_eight_3x3_force": (
        ["enumerate", "--model", "eight", "--m", "3", "--n", "3", "--force"],
        "4a90e641644f703ba46f4879ee1464a8b57b9da526f6eba8a93aa439a9b765f0"),
    "enumerate_toroidal_4x4_csv": (
        ["enumerate", "--model", "toroidal", "--m", "4", "--n", "4", "--format", "csv"],
        "487b3ce36587a0546398d8750dc5d1693a0f82fff820e99468ee6b1353f3894e"),
}


def recorded(name, suffix):
    path = GOLDEN / f"{name}{suffix}"
    # bytes, not read_text: the CSV fixture keeps csv's \r\n line ends
    return path.read_bytes().decode() if path.exists() else ""


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_the_golden_fixture(capsys, name):
    argv, code = CASES[name]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == recorded(name, ".out")
    assert err == recorded(name, ".err")


def test_every_golden_fixture_has_a_case():
    assert {p.name.split(".")[0] for p in GOLDEN.iterdir()} == set(CASES)


@pytest.mark.parametrize("name", list(DIGESTS))
def test_large_listing_matches_its_digest(capsys, name):
    argv, digest = DIGESTS[name]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
