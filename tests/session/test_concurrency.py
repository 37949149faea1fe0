"""Overlapping requests over one live deployment: submit()/gather().

The weight-resident claim has to survive concurrency: several clients'
requests pipeline over the same pinned plan at once, and the residency
ledger must stay all-warm - zero cold lease or reprogram events after
deploy - while every client gets logits byte-identical to serving the same
batches sequentially.
"""

import numpy as np
import pytest

from repro.errors import ModelDefinitionError, SessionStateError
from repro.session import Session, SessionConfig


def _config(model, shape, **overrides):
    return SessionConfig(
        model=model, input_shape=shape, bits=4, name="tinycnn", **overrides
    )


@pytest.fixture(scope="module")
def batches(images_rng):
    return [images_rng.normal(size=(2, 3, 8, 8)) for _ in range(3)]


@pytest.fixture(scope="module")
def sequential_results(tiny_cnn, batches):
    model, shape = tiny_cnn
    with Session(_config(model, shape)) as session:
        session.compile().deploy()
        return [session.infer(batch) for batch in batches]


class TestOverlappingRequests:
    @pytest.mark.parametrize("executor,workers", [("serial", None), ("thread", 2)])
    def test_gather_matches_sequential_serving(
        self, tiny_cnn, batches, sequential_results, executor, workers
    ):
        model, shape = tiny_cnn
        config = _config(
            model, shape, executor=executor, workers=workers, concurrency=3
        )
        with Session(config) as session:
            session.compile().deploy()
            deployed = session.residency
            handles = [session.submit(batch) for batch in batches]
            results = session.gather()
            after = session.residency

        assert [handle.index for handle in handles] == [0, 1, 2]
        assert all(handle.done() for handle in handles)
        assert len(results) == len(batches)
        for overlapped, sequential in zip(results, sequential_results):
            assert np.array_equal(overlapped.logits, sequential.logits)
            assert overlapped.execution.mode == "pipelined"
            assert (
                overlapped.execution.total_stats
                == sequential.execution.total_stats
            )
        # The heart of the claim: overlapping clients never lease or
        # reprogram anything after deploy.
        assert after.lease_events == deployed.lease_events
        assert after.reprogram_events == deployed.reprogram_events
        assert after.warm_hits > deployed.warm_hits

    def test_gather_records_requests_in_submission_order(
        self, tiny_cnn, batches
    ):
        model, shape = tiny_cnn
        with Session(_config(model, shape, concurrency=3)) as session:
            session.compile().deploy()
            for batch in batches:
                session.submit(batch)
            results = session.gather()
            records = session.requests
        assert len(records) == len(batches)
        for record, result in zip(records, results):
            assert record.execution is result.execution
        report_images = sum(record.images for record in records)
        assert report_images == sum(batch.shape[0] for batch in batches)

    def test_individual_handle_result(self, tiny_cnn, batches):
        model, shape = tiny_cnn
        with Session(_config(model, shape, concurrency=2)) as session:
            session.compile().deploy()
            handle = session.submit(batches[0])
            result = handle.result(timeout=120)
            assert result.images == batches[0].shape[0]
            # gather() still collects (and records) the same request.
            gathered = session.gather()
            assert gathered[0] is result

    def test_submit_requires_deployment(self, tiny_cnn, batches):
        model, shape = tiny_cnn
        with Session(_config(model, shape)) as session:
            session.compile()
            with pytest.raises(SessionStateError):
                session.submit(batches[0])

    def test_failed_request_propagates_but_keeps_session_alive(
        self, tiny_cnn, batches
    ):
        model, shape = tiny_cnn
        with Session(_config(model, shape, concurrency=2)) as session:
            session.compile().deploy()
            session.submit(batches[0])
            session.submit(np.zeros((2, 99)))  # malformed request
            with pytest.raises(ModelDefinitionError):
                session.gather()
            # The good request was recorded; the session still serves.
            assert len(session.requests) == 1
            follow_up = session.infer(batches[1])
            assert follow_up.images == batches[1].shape[0]
            assert session.residency.lease_events > 0  # deploy events only

    def test_close_waits_for_outstanding_requests(self, tiny_cnn, batches):
        model, shape = tiny_cnn
        session = Session(_config(model, shape, concurrency=2))
        session.compile().deploy()
        handle = session.submit(batches[0])
        session.close()
        assert handle.done()
        # Pins and pools are gone; closing again is a no-op.
        assert session.accelerator.pinned_addresses() == []
        session.close()

    def test_pipelined_infer_flag_byte_identical(
        self, tiny_cnn, batches, sequential_results
    ):
        """Session.infer(pipeline=True) equals the layer-synchronous serve."""
        model, shape = tiny_cnn
        with Session(_config(model, shape, pipeline=True)) as session:
            session.compile().deploy()
            result = session.infer(batches[0])
            assert result.execution.mode == "pipelined"
            assert np.array_equal(
                result.logits, sequential_results[0].logits
            )
            # Per-request override back to layer-sync works too.
            override = session.infer(batches[0], pipeline=False)
            assert override.execution.mode == "layer-sync"
            assert np.array_equal(override.logits, result.logits)


class TestTeardownSafety:
    def test_close_is_exception_safe(self, tiny_cnn, batches, monkeypatch):
        """unpin always runs, even when the driver teardown raises."""
        model, shape = tiny_cnn
        session = Session(_config(model, shape))
        session.compile().deploy()
        session.infer(batches[0])
        accelerator = session.accelerator
        assert accelerator.pinned_addresses()

        def exploding_close():
            raise RuntimeError("executor pool stuck")

        monkeypatch.setattr(session._driver, "close", exploding_close)
        with pytest.raises(RuntimeError, match="executor pool stuck"):
            session.close()
        assert accelerator.pinned_addresses() == []
        # Idempotent after the failed close.
        session.close()

    def test_context_manager_cleans_up_after_request_error(
        self, tiny_cnn, batches
    ):
        model, shape = tiny_cnn
        with pytest.raises(ModelDefinitionError):
            with Session(_config(model, shape, pipeline=True)) as session:
                session.compile().deploy()
                accelerator = session.accelerator
                session.infer(np.zeros((1, 7)))  # malformed -> raises
        assert accelerator.pinned_addresses() == []

    def test_concurrency_config_validated(self, tiny_cnn):
        model, shape = tiny_cnn
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="concurrency"):
            _config(model, shape, concurrency=0)
        with pytest.raises(ConfigurationError, match="pipeline_depth"):
            _config(model, shape, pipeline_depth=0)
