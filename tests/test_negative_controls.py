"""Negative controls for the suite verdicts: each control perturbs what a
check reads (the comparison matrix, the recursion behind the comparison
morphism, the local model's B-action and reductions, or the divisor class),
runs the suite through run_suite and asserts a failure with its exact
witness.  A control that still passed would show a verdict that cannot see
the perturbation."""

import inspect
import weakref

import pytest

from hkrlab import cech_twist, cli_report, hkr_local
from hkrlab.cech_twist import cech_complex, cochain_type
from hkrlab.chain_core import ComplexMap, homology
from hkrlab.cli_report import SuiteConfig, run_suite
from hkrlab.hkr_local import ModelBase

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


def eta_recursion_with_plus_signs():
    """eta_recursion with both cup signs, (-1)^i on the j = 0 line and
    (-1)^{i-j} on the general line, set to +1."""
    source = inspect.getsource(cech_twist.eta_recursion)
    mutated = source.replace("Fraction((-1) ** i, i + 1)", "Fraction(1, i + 1)")
    mutated = mutated.replace(".scale(\n                (-1) ** (i - j)\n            )", ".scale(1)")
    assert mutated.count("(-1)") == source.count("(-1)") - 2
    namespace = dict(vars(cech_twist))
    exec(mutated, namespace)
    return namespace["eta_recursion"]


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
