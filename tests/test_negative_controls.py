"""Negative controls for the comparison-matrix verdicts: each control
perturbs the comparison matrix the suites read, or the recursion behind the
comparison morphism, runs the suite through run_suite and asserts a failure
with its exact witness.  A control that still passed would show a verdict
that cannot see the perturbation."""

import inspect

import pytest

from hkrlab import cech_twist, cli_report
from hkrlab.cech_twist import cech_complex, cochain_type
from hkrlab.chain_core import homology
from hkrlab.cli_report import SuiteConfig, run_suite

delta_matrix = cli_report.delta_matrix


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
