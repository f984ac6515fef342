"""Negative controls for the suite verdicts: each control perturbs what a
check reads (the comparison matrix, the recursion behind the comparison
morphism, the local model's B-action and reductions, the divisor class,
the sign-census stability rule, the Koszul duality, Q's differential, the
double complex of the dual chase, or the pairing product), runs the suite
through run_suite and asserts a failure with its exact witness.  A control
that still passed would show a verdict that cannot see the perturbation.
CONTROLS names the controls of every pass-required check."""

import ast
import inspect
import weakref
from pathlib import Path

import pytest

from hkrlab import ak_complexes, cech_twist, cli_report, exterior_core, hkr_local
from hkrlab.cech_twist import cech_complex, cochain_type
from hkrlab.chain_core import ComplexMap, homology
from hkrlab.cli_report import SUITES, SuiteConfig, run_suite
from hkrlab.exterior_core import ExteriorContext
from hkrlab.extension_dg import TrivialExtension
from hkrlab.hkr_local import ModelBase

TESTS = Path(__file__).parent

delta_matrix = cli_report.delta_matrix
divisor_class = cli_report.divisor_class
k_b_action = hkr_local.k_b_action


def first_record(suite, nerve):
    return run_suite(SuiteConfig(suite=suite, nerve=nerve)).records[0]


def doubled_top_diagonal(*args):
    """delta_matrix with its (r, r) entry doubled."""
    delta = delta_matrix(*args)
    r = delta.ext.rank
    delta.entries[(r, r)] = delta.entries[(r, r)].scale(2)
    return delta


def with_generator_added(i, j):
    """delta_matrix with a generator of the Cech cohomology its (i, j) entry
    lives in added to that entry, which changes the entry's class."""

    def perturbed(*args):
        delta = delta_matrix(*args)
        x = delta.entries[(i, j)]
        l, module = cochain_type(delta.nerve, x)
        H = homology(cech_complex(delta.nerve, module), l)
        delta.entries[(i, j)] = x + H.representatives[0]
        return delta

    return perturbed


def test_doubled_diagonal_fails_comparison_last_level(monkeypatch):
    # every entry below the diagonal still agrees: only the exact diagonal
    # check sees this one
    monkeypatch.setattr(cli_report, "delta_matrix", doubled_top_diagonal)
    record = first_record("comparison_last_level", "circle")
    assert record["status"] == "fail"
    assert record["detail"] == {"rank": 2, "trial": 0, "claim": "diagonal"}


def test_a_changed_class_fails_comparison_last_level(monkeypatch):
    monkeypatch.setattr(cli_report, "delta_matrix", with_generator_added(2, 1))
    record = first_record("comparison_last_level", "circle")
    assert record["status"] == "fail"
    assert record["detail"] == {"rank": 2, "trial": 0, "entry": (2, 1)}


@pytest.mark.parametrize("nerve, entry", [("circle", (1, 0)), ("sphere2", (2, 0))])
def test_a_changed_class_fails_comparison_wedge(monkeypatch, nerve, entry):
    monkeypatch.setattr(cli_report, "delta_matrix", with_generator_added(*entry))
    record = first_record("comparison_wedge", nerve)
    assert record["status"] == "fail"
    assert record["detail"] == {"rank": 2, "trial": 0, "entry": entry}


def with_source_replaced(module, name, *replacements):
    """module.name recompiled from its source with each (old, new) text
    replaced; each old text occurs exactly once."""
    source = inspect.getsource(getattr(module, name))
    for old, new in replacements:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(module))
    exec(source, namespace)
    return namespace[name]


def eta_recursion_with_plus_signs():
    """eta_recursion with both cup signs, (-1)^i on the j = 0 line and
    (-1)^{i-j} on the general line, set to +1."""
    return with_source_replaced(
        cech_twist,
        "eta_recursion",
        ("Fraction((-1) ** i, i + 1)", "Fraction(1, i + 1)"),
        (".scale((-1) ** (i - j))", ".scale(1)"),
    )


def test_plus_cup_signs_break_the_comparison_morphism_on_sphere2(monkeypatch):
    monkeypatch.setattr(cech_twist, "eta_recursion", eta_recursion_with_plus_signs())
    record = first_record("comparison_wedge", "sphere2")
    assert record["status"] == "fail"
    assert record["detail"] == {"rank": 2, "trial": 0, "claim": "comparison morphism is not a chain map"}


def test_plus_cup_signs_escape_comparison_wedge_on_the_circle(monkeypatch):
    # on a nerve of depth 1 the entries the signs change vanish, so the
    # mutation passes there; the sphere2 control above is what catches it
    monkeypatch.setattr(cech_twist, "eta_recursion", eta_recursion_with_plus_signs())
    assert first_record("comparison_wedge", "circle")["status"] == "pass"


@pytest.fixture
def fresh_bases(monkeypatch):
    """Local models built in the test get their own bases, with no complex,
    map or zeta verdict kept from an earlier test."""
    monkeypatch.setattr(hkr_local, "_BASES", weakref.WeakValueDictionary())


def test_a_doubled_j_part_of_the_action_fails_hkr_maps(monkeypatch, fresh_bases):
    def doubled_j(ext, p, b, x):
        out = k_b_action(ext, p, b, x)
        return out + out.module.element((lab, c) for lab, c in out.data.items() if lab[0] == "j")

    monkeypatch.setattr(hkr_local, "k_b_action", doubled_j)
    record = first_record("hkr", "circle")
    assert record["status"] == "fail"
    assert record["detail"] == {
        "model": (1, 1, 3),
        "zeta": {"chain_map": True, "quasi_iso": True, "b_linear": False, "augmentation": True, "short_exact": False},
    }


@pytest.mark.parametrize(
    "perturb, witness",
    [
        (lambda q0, q1: (2 * q0, q1), {"divisor_case": "zero", "q0": "2"}),
        (lambda q0, q1: (q0, q1.scale(0)), {"divisor_case": "generator", "q0": "1"}),
    ],
    ids=["doubled-q0", "zero-q1"],
)
def test_a_perturbed_divisor_class_fails_cycle_class(monkeypatch, perturb, witness):
    monkeypatch.setattr(cli_report, "divisor_class", lambda nerve, delta_in: perturb(*divisor_class(nerve, delta_in)))
    record = first_record("cycle_class", "circle")
    assert record["status"] == "fail"
    assert record["detail"] == witness


def doubled(name):
    """The ModelBase map `name` with every column doubled, rebuilt on each
    read, so no model keeps the unperturbed map."""
    build = getattr(ModelBase, name).func

    def twice(base):
        f = build(base)
        cols = {n: [{t: 2 * c for t, c in col.items()} for col in cols] for n, cols in f.cols.items()}
        return ComplexMap(f.source, f.target, cols)

    return property(twice)


@pytest.mark.parametrize("reduction", ["red_l", "red_p"])
def test_a_doubled_reduction_fails_cycle_class(monkeypatch, fresh_bases, reduction):
    monkeypatch.setattr(ModelBase, reduction, doubled(reduction))
    record = first_record("cycle_class", "circle")
    assert record["status"] == "fail"
    # the reduced route is twice the inclusion of A in degree 0
    assert record["detail"]["exception"].startswith("ModelError(")


def test_unstable_tables_fail_sign_census(monkeypatch):
    # without the stability rule the associativity constraints alone admit
    # eight tables at rank 3; at rank 2 the rule constrains nothing
    unstable = with_source_replaced(
        exterior_core, "check_sign_action", ("i + j + 2 <= r and chi(i, j) != chi(i, j + 2)", "False")
    )
    monkeypatch.setattr(exterior_core, "check_sign_action", unstable)
    record = first_record("signs", "circle")
    assert record["status"] == "fail"
    assert record["detail"] == {"rank": 3, "side": "left", "census_size": 8}


def test_a_flipped_shift_sign_fails_koszul_duality(monkeypatch):
    right_duality = ExteriorContext.right_duality

    def flipped(self, n):
        terms, labels, cols, invertible = right_duality(self, n)
        if n % 2:
            cols = [{i: -c for i, c in col.items()} for col in cols]
        return terms, labels, cols, invertible

    monkeypatch.setattr(ExteriorContext, "right_duality", flipped)
    record = first_record("koszul_duality", "circle")
    assert record["status"] == "fail"
    assert record["detail"] == {"rank": 1, "phi": ["-5"]}


def test_a_negated_q_differential_fails_ak_battery(monkeypatch):
    # the battery has one home, so one patch reaches every claim; a fresh
    # complex on each call, so the extension keeps its unperturbed Q
    build_q_complex = ak_complexes.build_q_complex

    def negated(ext):
        return build_q_complex(ext).scale_diff(-1)

    monkeypatch.setattr(ak_complexes, "build_q_complex", negated)
    record = first_record("ak", "circle")
    assert record["status"] == "fail"
    assert record["detail"] == {
        "rank": 1,
        "algebra": "Q",
        "results": {
            "p_aug_quasi_iso": True,
            "q_coaug_quasi_iso": True,
            "q_realized_differential": False,
            "hat_star_chain_map": False,
            "hat_star_module_action": True,
            "homology_action": True,
        },
    }


def test_a_positive_realized_dual_differential_fails_dual_signs(monkeypatch):
    positive = with_source_replaced(hkr_local, "double_complex_n", ("-(r - q + 1))", "r - q + 1)"))
    monkeypatch.setattr(hkr_local, "double_complex_n", positive)
    record = first_record("dual_signs", "circle")
    assert record["status"] == "fail"
    assert record["detail"] == {
        "rank": 1,
        "got": [None, None],
        "claims": {
            "total_homology_dims": True,
            "kernel_is_pure_subspace": True,
            "projector_kills_exactly_boundaries": False,
            "projector_block_scalar": True,
            "chase": False,
        },
    }


def test_a_negated_product_fails_contraction_action(monkeypatch):
    star = TrivialExtension.star

    def negated_in_degree_one(self, k, l, x, y):
        p = star(self, k, l, x, y)
        return -p if k == 1 else p

    monkeypatch.setattr(TrivialExtension, "star", negated_in_degree_one)
    record = first_record("contraction_action", "circle")
    assert record["status"] == "fail"
    assert record["detail"] == {"rank": 1}


# pass-required check id -> its controls, "test file::test": each perturbs
# what the check reads and asserts the check's failure witness
CONTROLS = {
    "sign-census": ["test_negative_controls.py::test_unstable_tables_fail_sign_census"],
    "koszul-duality": ["test_negative_controls.py::test_a_flipped_shift_sign_fails_koszul_duality"],
    "dg-battery": ["test_dg_battery.py::test_the_battery_catches_a_mutated_product"],
    "ak-battery": ["test_negative_controls.py::test_a_negated_q_differential_fails_ak_battery"],
    "hkr-maps": ["test_negative_controls.py::test_a_doubled_j_part_of_the_action_fails_hkr_maps"],
    "dual-signs": ["test_negative_controls.py::test_a_positive_realized_dual_differential_fails_dual_signs"],
    "comparison-wedge": [
        "test_negative_controls.py::test_a_changed_class_fails_comparison_wedge",
        "test_negative_controls.py::test_plus_cup_signs_break_the_comparison_morphism_on_sphere2",
    ],
    "probe-domains": ["test_cech.py::test_opposite_sign_transitions_fail_probe_domains_at_a_named_domain"],
    "comparison-last-level": [
        "test_negative_controls.py::test_doubled_diagonal_fails_comparison_last_level",
        "test_negative_controls.py::test_a_changed_class_fails_comparison_last_level",
    ],
    "cycle-class": [
        "test_negative_controls.py::test_a_perturbed_divisor_class_fails_cycle_class",
        "test_negative_controls.py::test_a_doubled_reduction_fails_cycle_class",
    ],
    "contraction-action": ["test_negative_controls.py::test_a_negated_product_fails_contraction_action"],
}


def test_every_pass_required_check_has_a_control():
    informational = {check_id for check_id, _, _ in SUITES["conjecture"]}
    required = [check_id for check_id, _, _ in SUITES["all"] if check_id not in informational]
    assert sorted(CONTROLS) == sorted(required)
    for name in sum(CONTROLS.values(), []):
        path, test = name.split("::")
        tree = ast.parse((TESTS / path).read_text())
        assert test in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, name
