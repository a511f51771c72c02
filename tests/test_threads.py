import pytest

from logsob import threads
from logsob.threads import worker_count


@pytest.fixture
def cpus(monkeypatch):
    monkeypatch.setattr(threads.os, "cpu_count", lambda: 16)


def test_env_value_wins(monkeypatch, cpus):
    monkeypatch.setenv("LOGSOB_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("LOGSOB_THREADS", "32")
    assert worker_count() == 32


def test_default_caps_cpu_count(monkeypatch, cpus):
    monkeypatch.delenv("LOGSOB_THREADS", raising=False)
    assert worker_count() == 4
    monkeypatch.setattr(threads.os, "cpu_count", lambda: 2)
    assert worker_count() == 2
    monkeypatch.setattr(threads.os, "cpu_count", lambda: None)
    assert worker_count() == 1


@pytest.mark.parametrize("bad", ["", "four", "2.5", "0", "-3"])
def test_bad_env_value_falls_back_on_default(monkeypatch, cpus, bad):
    monkeypatch.setenv("LOGSOB_THREADS", bad)
    assert worker_count() == 4
