import concurrent.futures

import pytest

from netelast import routing


class SpyPool:
    """A ProcessPoolExecutor stand-in that starts no process: it records each
    pool's max_workers, mp_context and mapped items, then runs the
    initializer and the map in this process, so a study's plan is seen at
    any jobs."""

    def __init__(self):
        self.workers, self.contexts, self.mapped = [], [], []

    def __call__(self, max_workers, mp_context, initializer, initargs):
        self.workers.append(max_workers)
        self.contexts.append(mp_context)
        initializer(*initargs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def map(self, fn, items):
        self.mapped.extend(items)
        return map(fn, items)


@pytest.fixture
def spy_pool(monkeypatch):
    # the initializer sets routing's worker study in this process; the
    # fixture puts it back afterwards
    monkeypatch.setattr(routing, "_worker_study", ())
    spy = SpyPool()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return spy
