"""Acceptance criteria, one test per criterion, with the stated time bounds.

Each criterion runs the `verify` checks it names, looked up by id in the
suite registry `cli_report.SUITES`, at a fixed seed; the registry is the
only implementation of each claim.  The check functions are called
directly, so a crash surfaces with its full traceback.  Every assertion is
exact (tolerance zero); each test prints a single pass/fail line with its
elapsed time.
"""

import time

from hkrlab.cli_report import SUITES, SuiteConfig, run_suite

# no golden report uses this seed, so the criteria sample cases the golden files do not pin
SEED = 2

# criterion -> (the registered checks it runs, the config fields it sets)
CRITERIA = {
    1: (("sign-census",), {}),
    2: (("koszul-duality",), {}),
    3: (("dg-battery",), {}),
    4: (("ak-battery",), {}),
    5: (("hkr-maps",), {}),
    6: (("dual-signs",), {}),
    7: (("comparison-wedge",), {}),
    8: (("comparison-last-level",), {}),
    # a depth-2 nerve exercises the level-2 chain-map equations that
    # delta_matrix checks on every comparison
    9: (("comparison-wedge", "comparison-last-level"), {"nerve": "sphere2", "max_rank": 2}),
    10: (("cycle-class",), {}),
    11: (("contraction-action",), {}),
    12: (("probe-domains", "probe-general"), {}),
}


class Timer:
    def __init__(self, name, bound):
        self.name = name
        self.bound = bound

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.name}: {status} ({elapsed:.2f}s, bound {self.bound}s)")
        if exc_type is None:
            assert elapsed < self.bound, f"{self.name} exceeded its time bound: {elapsed:.1f}s"


def run_checks(criterion):
    """{check id: (status, detail)} for each check the criterion names."""
    ids, fields = CRITERIA[criterion]
    config = SuiteConfig(seed=SEED, **fields)
    registry = {check_id: fn for check_id, _, fn in SUITES["all"]}
    return {check_id: registry[check_id](config) for check_id in ids}


def assert_checks_pass(criterion):
    for check_id, (status, detail) in run_checks(criterion).items():
        assert status == "pass", (check_id, detail)


def test_criterion_01_sign_census():
    with Timer("1 (sign census)", 10):
        assert_checks_pass(1)


def test_criterion_02_koszul_duality():
    with Timer("2 (Koszul duality)", 10):
        assert_checks_pass(2)


def test_criterion_03_dg_battery():
    with Timer("3 (dg battery)", 30):
        assert_checks_pass(3)


def test_criterion_04_ak_battery():
    with Timer("4 (resolution battery)", 60):
        assert_checks_pass(4)


def test_criterion_05_hkr_maps():
    with Timer("5 (comparison maps)", 60):
        assert_checks_pass(5)


def test_criterion_06_dual_signs():
    with Timer("6 (dual comparison signs)", 60):
        assert_checks_pass(6)


def test_criterion_07_wedge_comparison():
    with Timer("7 (wedge-twist comparison)", 120):
        assert_checks_pass(7)


def test_criterion_08_last_level_comparison():
    with Timer("8 (last-level comparison)", 60):
        assert_checks_pass(8)


def test_criterion_09_comparison_chain_property():
    with Timer("9 (comparison chain equations)", 120):
        assert_checks_pass(9)


def test_criterion_10_cycle_classes():
    with Timer("10 (cycle classes)", 30):
        assert_checks_pass(10)


def test_criterion_11_contraction_realization():
    with Timer("11 (contraction realization)", 10):
        assert_checks_pass(11)


def test_criterion_12_probe():
    with Timer("12 (recursion probe)", 120):
        results = run_checks(12)
        status, detail = results["probe-domains"]
        assert status == "pass", detail
        # general case: completes and emits a structured report
        status, detail = results["probe-general"]
        assert status == "exploratory"
        rep = detail["report"]
        assert rep["agrees"] is None
        assert rep["entries"] and all("cocycle" in v for v in rep["entries"].values())


def test_criterion_13_determinism():
    with Timer("13 (determinism)", 120):
        config = SuiteConfig(suite="comparison_wedge", seed=5)
        first = run_suite(config).to_json()
        second = run_suite(SuiteConfig(suite="comparison_wedge", seed=5)).to_json()
        assert first.encode() == second.encode()


def test_every_registered_check_is_driven_by_a_criterion():
    driven = {check_id for ids, _ in CRITERIA.values() for check_id in ids}
    registered = {check_id for check_id, _, _ in SUITES["all"]}
    assert registered <= driven, sorted(registered - driven)
