"""Shared test setup."""

import pytest

from quorum import dataio


@pytest.fixture(autouse=True)
def private_parse_cache(tmp_path, monkeypatch):
    """Point the parse cache (``$XDG_CACHE_HOME/quorum``) into the test's own
    directory, so that no test reads or writes the user's cache; CLI
    subprocesses inherit it. In this process, the cache also stores the
    files a test has just written, which it otherwise leaves alone until they
    are ``_CACHE_SETTLE_NS`` old."""

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    monkeypatch.setattr(dataio, "_CACHE_SETTLE_NS", 0)
