# imported before numpy, the package pins OpenBLAS to one thread (see
# mlqmcgrad/__init__.py), so tests run BLAS as the command line does
import mlqmcgrad  # noqa: F401
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
