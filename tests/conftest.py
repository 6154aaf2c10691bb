"""Shared fixtures for the test suite."""

from __future__ import annotations

import signal
import threading

import pytest

from repro.isa import assemble
from repro.uarch import MEGA_BOOM, SMALL_BOOM

try:  # CI installs the dev extras; the bare container may not have it.
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False

#: Hang ceilings (seconds) for the SIGALRM fallback guard below.  With
#: pytest-timeout installed these are ignored — CI passes ``--timeout``
#: explicitly (see .github/workflows/ci.yml).
DEFAULT_TEST_TIMEOUT = 120
SLOW_TEST_TIMEOUT = 600


def pytest_collection_modifyitems(config, items):
    """Everything not explicitly ``slow`` is part of the tier1 fast gate.

    CI runs ``pytest -m tier1`` as its quick gate and the full (unfiltered)
    suite with coverage afterwards; the auto-marker means new tests join the
    gate by default and only deliberately heavy ones opt out.
    """
    for item in items:
        if "slow" not in item.keywords:
            item.add_marker(pytest.mark.tier1)


@pytest.fixture(autouse=True)
def _hang_guard(request):
    """Per-test hang ceiling when pytest-timeout is unavailable.

    The service tests drive real subprocess pools and asyncio servers; a
    deadlock there would otherwise wedge the whole suite.  When the
    pytest-timeout plugin is installed it owns the job (CI); this fallback
    arms ``SIGALRM`` instead, honouring ``@pytest.mark.timeout(N)`` and
    defaulting by slow/fast tier.
    """
    if _HAVE_PYTEST_TIMEOUT or not hasattr(signal, "SIGALRM") \
            or threading.current_thread() is not threading.main_thread():
        yield
        return
    limit = (SLOW_TEST_TIMEOUT if "slow" in request.keywords
             else DEFAULT_TEST_TIMEOUT)
    marker = request.node.get_closest_marker("timeout")
    if marker is not None and marker.args:
        limit = marker.args[0]

    def _on_alarm(_signum, _frame):
        pytest.fail(f"test exceeded the {limit}s hang guard", pytrace=True)

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _isolated_trace_cache(tmp_path, monkeypatch):
    """Keep the default trace cache out of the user's real cache directory."""
    monkeypatch.setenv("MICROSAMPLER_CACHE_DIR", str(tmp_path / "trace-cache"))


@pytest.fixture(scope="session")
def mega():
    return MEGA_BOOM


@pytest.fixture(scope="session")
def small():
    return SMALL_BOOM


#: A small program exercising loops, calls, memory and M-extension ops;
#: exits with a deterministic checksum.
SUM_PROGRAM = """
.data
arr: .word 3, 1, 4, 1, 5, 9, 2, 6
out: .zero 8
.text
main:
    la   s0, arr
    li   s1, 0
    li   s2, 0
loop:
    slli t0, s2, 2
    add  t0, t0, s0
    lw   t1, 0(t0)
    add  s1, s1, t1
    addi s2, s2, 1
    li   t2, 8
    blt  s2, t2, loop
    mv   a0, s1
    call double
    la   t0, out
    sd   a0, 0(t0)
    li   a7, 93
    ecall
double:
    slli a0, a0, 1
    ret
"""

SUM_PROGRAM_EXIT = 62  # 2 * (3+1+4+1+5+9+2+6)


@pytest.fixture(scope="session")
def sum_program():
    return assemble(SUM_PROGRAM, entry="main")


@pytest.fixture(scope="session")
def subprocess_env():
    """Environment in which a child interpreter imports this ``repro``."""
    import os
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}
