"""Actionable TypeErrors at public entry points that take traces/requests.

``trace_by_name`` returns a SyntheticTrace *bundle*; handing the bundle
(rather than its ``.trace``) to APIs that duck-type used to fail deep
in the call stack or silently compute nonsense.  Every guarded entry
point funnels through ``repro.traces.trace.ensure_contact_trace`` and
must (a) name itself, (b) name the received type, and (c) spell out
the ``.trace`` fix when the value looks like a bundle.
"""

import pytest

from repro.experiments.parallel import RunRequest, execute_request, run_requests
from repro.traces import EvaluationWindow, ensure_contact_trace
from repro.traces.presets import trace_by_name
from repro.traces.synthetic import SyntheticTrace


@pytest.fixture(scope="module")
def bundle() -> SyntheticTrace:
    return trace_by_name("cambridge06", seed=0)


class TestEnsureContactTrace:
    def test_passthrough(self, bundle):
        assert ensure_contact_trace(bundle.trace, "caller") is bundle.trace

    def test_bundle_gets_the_fix_spelled_out(self, bundle):
        with pytest.raises(TypeError) as excinfo:
            ensure_contact_trace(bundle, "my_entry_point")
        message = str(excinfo.value)
        assert "my_entry_point" in message
        assert "SyntheticTrace" in message
        assert ".trace attribute" in message

    def test_plain_wrong_type_has_no_bundle_hint(self):
        with pytest.raises(TypeError) as excinfo:
            ensure_contact_trace([1, 2, 3], "my_entry_point")
        assert "ContactTrace" in str(excinfo.value)
        assert ".trace attribute" not in str(excinfo.value)


class TestGuardedEntryPoints:
    def test_evaluation_window_slice_rejects_bundle(self, bundle):
        window = EvaluationWindow(start=0.0, length=1000.0)
        with pytest.raises(
            TypeError, match=r"EvaluationWindow\.slice .*\.trace attribute"
        ):
            window.slice(bundle)


class TestRunRequestGuards:
    def test_single_request_not_a_sequence(self):
        request = RunRequest(
            trace_name="infocom05", family="epidemic",
            protocol_name="epidemic", seed=1,
        )
        with pytest.raises(TypeError, match=r"wrap it in a list"):
            run_requests(request)

    def test_wrong_element_type_named_with_index(self):
        request = RunRequest(
            trace_name="infocom05", family="epidemic",
            protocol_name="epidemic", seed=1,
        )
        with pytest.raises(TypeError, match=r"dict at index 1"):
            run_requests([request, {"trace_name": "infocom05"}])

    def test_execute_request_rejects_non_request(self):
        with pytest.raises(TypeError, match=r"execute_request expects a RunRequest"):
            execute_request(("infocom05", "epidemic"))
