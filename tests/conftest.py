"""Suite-wide guard: a test fails if an engine raised while the simulator ran it.

`Simulator._run` catches every exception a handler raises, counts it in the
engine's `errors` counter and goes on, so a run with a broken handler can
still pass its checks. The guard records each such exception and fails the
test in which it happened, unless the test is marked `engine_errors`. An
exception raised while a module- or session-scoped fixture ran counts
against the first test that used the fixture.
"""

import pytest

from icncep.sim import Simulator

_caught = []  # (node, exception) since the last test ended


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "engine_errors: the test expects an engine handler to raise during a run"
    )


@pytest.fixture(scope="session", autouse=True)
def _record_engine_errors():
    original = Simulator._run

    def _run(self, node, thunk, *rest):
        def guarded():
            try:
                thunk()
            except Exception as err:
                _caught.append((node, err))
                raise

        original(self, node, guarded, *rest)

    Simulator._run = _run
    try:
        yield
    finally:
        Simulator._run = original


@pytest.fixture(autouse=True)
def no_engine_errors(request):
    yield
    caught = list(_caught)
    _caught.clear()
    if caught and request.node.get_closest_marker("engine_errors") is None:
        node, err = caught[0]
        pytest.fail(
            "%d engine errors, first at %s: %s: %s" % (len(caught), node, type(err).__name__, err)
        )
