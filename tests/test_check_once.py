"""Each numeric input of a closed form is checked once, before any evaluation:
a public function checks only the inputs it does not pass on to another
public function, which checks those (the rule in ``hestonfp.core``)."""
from collections import Counter

import numpy as np
import pytest

import hestonfp as h
from hestonfp import cli, core

TH = 8.62e-5 / 0.045
D = h.Dimensionless(TH, 10.0)
Z, V, TAU = np.array([0.01, 0.05]), np.array([TH, 0.0]), np.array([0.5, 3.0])

# each call, and the names it checks: every argument, plus the v = 0 that the
# averaged forms pass on
CALLS = {
    "survival_erf": (lambda: h.survival_erf(Z, V, TAU, TH), "z v tau theta"),
    "survival_pheno": (lambda: h.survival_pheno(Z, V, TAU, TH), "z v tau theta"),
    "survival_avg_erf": (lambda: h.survival_avg_erf(Z, TAU, TH), "z v tau theta"),
    "survival_arctan": (lambda: h.survival_arctan(Z, V, TAU, TH, 10.0), "z v tau theta beta"),
    "survival_avg_arctan": (lambda: h.survival_avg_arctan(Z, TAU, TH, 10.0),
                            "z v tau theta beta"),
    "variance_scale": (lambda: h.variance_scale(TAU, V, TH), "tau v theta"),
    "survival_wiener": (lambda: h.survival_wiener(Z, TH, TAU), "z sigma_sq t"),
}
# the names each closed-form column of the CLI checks; its model D is checked when built
COLUMNS = {
    "erf_joint": "z v tau theta",
    "arctan_joint": "z v tau theta beta",
    "pheno": "z v tau theta",
    "pheno_beta": "z v tau theta",
    "erf_averaged": "z v tau theta",
    "arctan_averaged": "z v tau theta beta",
    "wiener": "z sigma_sq t",
    "tail_gaussian": "tau v theta L_abs lam",
    "tail_powerlaw": "L_abs tau theta beta",
}


@pytest.fixture
def checked(monkeypatch):
    names = []
    check = core._checked_arrays

    def spy(named, positive):
        names.extend(named)
        return check(named, positive)

    monkeypatch.setattr(core, "_checked_arrays", spy)
    return names


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_closed_form_checks_each_input_once(name, checked):
    call, names = CALLS[name]
    call()
    assert Counter(checked) == Counter(names.split())


def test_the_column_table_lists_every_closed_form():
    assert set(COLUMNS) == set(cli._COLUMNS) - {"exact", "averaged"}


@pytest.mark.parametrize("method", sorted(COLUMNS))
def test_a_closed_form_column_checks_each_input_once(method, checked):
    cli._COLUMNS[method](Z, V, TAU, D)
    assert Counter(checked) == Counter(COLUMNS[method].split())
