import threading

import pytest

_config = None


@pytest.fixture(autouse=True)
def no_thread_left_running():
    # the CLI solves its spectra on a background thread and must join it on every path
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"test left threads running: {left}")


def pytest_configure(config):
    global _config
    _config = config


@pytest.hookimpl(trylast=True)
def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    terminal = _config.pluginmanager.get_plugin("terminalreporter") if _config else None
    if terminal is not None:
        status = "PASS" if report.passed else "FAIL"
        name = report.nodeid.split("::")[-1]
        terminal.write_line(f"ACCEPTANCE {name}: {status}")
