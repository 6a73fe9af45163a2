import numpy as np
import pytest

from bjjctrl import (
    JunctionParams,
    counterdiabatic_controls,
    initial_state,
    phases,
    profile_fast,
    profile_original,
    propagate,
    solve_duration,
    symmetric_preparation,
)

ALPHA = 0.1


class ShortcutRun:
    """One full counterdiabatic run, shared across test modules."""

    def __init__(self, profile):
        self.profile = profile
        self.duration = solve_duration(profile)
        self.controls = counterdiabatic_controls(profile, self.duration)
        self.record = phases(profile, self.duration)
        self.alpha = ALPHA
        self.prep = symmetric_preparation(ALPHA)
        self.trajectory = propagate(
            initial_state(self.prep), self.controls, JunctionParams(), steps=10_000
        )


@pytest.fixture(scope="session")
def original_profile():
    return profile_original()


@pytest.fixture(scope="session")
def fast_profile():
    return profile_fast()


@pytest.fixture(scope="session")
def original_run(original_profile):
    return ShortcutRun(original_profile)


@pytest.fixture(scope="session")
def fast_run(fast_profile):
    return ShortcutRun(fast_profile)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
