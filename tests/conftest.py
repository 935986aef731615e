"""Shared test fixtures.

The acceptance tests record one outcome line each; the hook below prints
them as a block in the terminal summary so a full run ends with a compact
pass/fail table.
"""

import pytest

from atomswarm.engine import configuration_from_positions
from atomswarm.faults import CrashEvent, CrashMode, FaultPlan, StayPutStrategy

_acceptance_lines: list[str] = []


@pytest.fixture
def acceptance():
    """Recorder for a single acceptance-criterion outcome."""

    def record(number: int, ok: bool, detail: str) -> bool:
        _acceptance_lines.append(
            f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        )
        return ok

    return record


@pytest.fixture
def faulty():
    """``faulty(positions, byzantine=(), frozen=())``: a step-0 configuration
    whose faulty statuses come from a fault plan's ``start``, as in a run."""

    def build(positions, byzantine=(), frozen=()):
        plan = FaultPlan(
            f=len(byzantine) + len(frozen),
            crashes=tuple(CrashEvent(CrashMode.FREEZE, robot=rid, at=0) for rid in frozen),
            byzantine={rid: StayPutStrategy() for rid in byzantine},
        )
        return plan.start(configuration_from_positions(positions))[0]

    return build


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)
