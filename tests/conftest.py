"""Shared fixtures: a small zoo of models, each with its :class:`Geometry`.

Also hosts the terminal-summary hook that prints one PASS/FAIL line per
acceptance criterion after any run that included them.
"""
import pytest

from norden import FamilyParams, Geometry, generate_family, heisenberg_model

#: ``Geometry(model)`` computes ``.conn``, ``.pack`` and ``.curv`` on first use.
build_geometry = Geometry


@pytest.fixture(scope="session")
def fam23() -> Geometry:
    """The worked n=1 example with lambda = (2, 3)."""
    return build_geometry(generate_family(FamilyParams(1, (2, 3))))


@pytest.fixture(scope="session")
def fam5() -> Geometry:
    """A 5-dimensional member, lambda = (1, 0, 0, 2)."""
    return build_geometry(generate_family(FamilyParams(2, (1, 0, 0, 2))))


@pytest.fixture(scope="session")
def heis() -> Geometry:
    """The Heisenberg-type control model (valid, outside the pure class)."""
    return build_geometry(heisenberg_model())


@pytest.fixture(scope="session")
def fam_zero() -> Geometry:
    """The flat lambda = 0 member."""
    return build_geometry(generate_family(FamilyParams(1, (0, 0))))


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
