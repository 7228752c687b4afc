import pytest


@pytest.fixture(scope="session", autouse=True)
def _session_embedding_cache(tmp_path_factory):
    """Point the embedding cache at a session directory for every test
    under the repository, and for the programs they start: session- and
    module-scoped fixtures build embeddings before any test's own cache
    fixture runs, and the benchmark's tests run the CLI in subprocesses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield
