"""Stdlib logging wiring: namespacing, levels, and diagnosable declines."""

import io
import logging

import pytest

from repro.telemetry.logs import LOG_ENV_VAR, configure_logging, get_logger


@pytest.fixture(autouse=True)
def reset_repro_logging():
    yield
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if getattr(handler, "_repro_handler", False):
            root.removeHandler(handler)
    root.setLevel(logging.NOTSET)


class TestGetLogger:
    def test_namespaces_under_repro(self):
        assert get_logger("repro.ap.backends.batched").name == (
            "repro.ap.backends.batched"
        )
        assert get_logger("ap.backends").name == "repro.ap.backends"


class TestConfigureLogging:
    def test_explicit_level(self):
        stream = io.StringIO()
        configure_logging(level="DEBUG", stream=stream)
        get_logger("test").debug("visible")
        assert "visible" in stream.getvalue()

    def test_default_level_is_warning(self, monkeypatch):
        monkeypatch.delenv(LOG_ENV_VAR, raising=False)
        stream = io.StringIO()
        configure_logging(stream=stream)
        get_logger("test").info("hidden")
        get_logger("test").warning("shown")
        output = stream.getvalue()
        assert "hidden" not in output
        assert "shown" in output

    def test_env_var_sets_level(self, monkeypatch):
        monkeypatch.setenv(LOG_ENV_VAR, "INFO")
        stream = io.StringIO()
        configure_logging(stream=stream)
        get_logger("test").info("now visible")
        assert "now visible" in stream.getvalue()


class TestBatchedDeclineLogging:
    def test_wave_decline_is_logged(self):
        """The batched backend's fallback is diagnosable, not silent."""
        from repro.ap.backends.batched import StagedWaveInputs, execute_program_wave

        stream = io.StringIO()
        configure_logging(level="DEBUG", stream=stream)
        # rows < 1 is an unambiguous decline.
        staged = StagedWaveInputs(1, 0, values=[])
        assert execute_program_wave([], staged, 0, 8) is None
        assert "wave declined" in stream.getvalue()
