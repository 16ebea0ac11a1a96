"""Shared fixtures: four models of ``zoo.py``, each with its :class:`Geometry`.

Also loads the hypothesis profile of the suite and hosts the
terminal-summary hook that prints one PASS/FAIL line per acceptance
criterion after any run that included them.
"""
import pytest
from hypothesis import settings

import zoo
from norden import Geometry

#: Every run draws the same examples (and keeps no example database);
#: ``--hypothesis-profile=explore`` draws new ones on each run.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("derandomized")

#: ``Geometry(model)`` computes each layer on first use.
build_geometry = Geometry

#: The layers that ``structure_pack``, ``riemann`` and ``square_norms``
#: compute, in the order they compute them.
STRUCTURE_LAYERS = ("f", "theta", "theta_star", "omega", "omega_star", "omega_vec",
                    "nabla_phi", "nabla_eta", "n", "s")
CURVATURE_LAYERS = ("r13", "r04", "ricci", "tau", "tau_star", "tau_2star")
NORM_LAYERS = ("nabla_phi_square_norm", "nabla_eta_square_norm", "nijenhuis_square_norm")


def layers(geo: Geometry, names) -> tuple:
    """The values of the layers ``names`` of ``geo``."""
    return tuple(getattr(geo, name) for name in names)


@pytest.fixture(scope="session")
def fam23() -> Geometry:
    """The worked n=1 example with lambda = (2, 3)."""
    return build_geometry(zoo.family(zoo.FIXTURE_LAMBDAS["fam23"]))


@pytest.fixture(scope="session")
def fam5() -> Geometry:
    """A 5-dimensional member, lambda = (1, 0, 0, 2)."""
    return build_geometry(zoo.family(zoo.FIXTURE_LAMBDAS["fam5"]))


@pytest.fixture(scope="session")
def heis() -> Geometry:
    """The Heisenberg-type control model (valid, outside the pure class)."""
    return build_geometry(zoo.heis())


@pytest.fixture(scope="session")
def fam_zero() -> Geometry:
    """The flat lambda = 0 member."""
    return build_geometry(zoo.family(zoo.FIXTURE_LAMBDAS["fam_zero"]))


# --- acceptance summary ----------------------------------------------------

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    nodeid = report.nodeid
    if "test_acceptance.py" not in nodeid:
        return
    name = nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return
    if report.when == "call":
        _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"
    elif report.failed:  # setup or teardown error counts as a failure
        _ACCEPTANCE_RESULTS[name] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        parts = name.split("_")  # test_criterion_NN_label_words
        num, label = parts[2], " ".join(parts[3:])
        terminalreporter.write_line(
            f"criterion {num} ({label}): {_ACCEPTANCE_RESULTS[name]}"
        )
