"""Shared fixtures: one real trained model for the acceptance suite, cheap
synthetic material for everything else."""

import re
import time

import numpy as np
import pytest

from latprog import phantom
from latprog.autoencoder import AEConfig, init_model, train_autoencoder

# Criterion outcomes keyed by number, filled by the logreport hook below.
_ACCEPTANCE: dict[int, tuple[str, str]] = {}
_CRITERION_RE = re.compile(r"test_criterion_(\d+)_(\w+)")


@pytest.fixture(scope="session")
def spec32():
    return phantom.default_spec()


@pytest.fixture(scope="session")
def cohort60(spec32):
    return phantom.generate_cohort(spec32, 60, seed=7)


@pytest.fixture(scope="session")
def model60(cohort60):
    """Default-recipe model; wall time is part of the quality criterion."""
    t0 = time.monotonic()
    model = train_autoencoder(cohort60.split("train").volumes(), AEConfig())
    model.train_seconds = time.monotonic() - t0
    return model


@pytest.fixture(scope="session")
def tiny_model():
    """Random-init affine model on an 8-cube; mechanics only, never trained."""
    return init_model(AEConfig(init="random", seed=1), (8, 8, 8))


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _CRITERION_RE.search(report.nodeid)
    if not m:
        return
    label = m.group(2).replace("_", " ")
    _ACCEPTANCE[int(m.group(1))] = (label, report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        label, outcome = _ACCEPTANCE[num]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num} ({label}): {verdict}")
