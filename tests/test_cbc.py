from pathlib import Path

import numpy as np
import pytest

from mlqmcgrad import cbc
from conftest import doubling_search
from mlqmcgrad.circulant_field import UniformGrid, build_embedding
from mlqmcgrad.qmc import default_generating_vector


def brute_force_error_sq(z, N, gamma):
    """e^2 from the double sum of the shift-averaged kernel over point pairs."""
    x = (np.outer(np.arange(N), z) % N) / N
    diff = (x[:, None, :] - x[None, :, :]) % 1.0
    return np.prod(1.0 + gamma * cbc.bernoulli2(diff), axis=2).mean() - 1.0


def test_error_criterion_matches_brute_force():
    gamma = np.array([0.9, 0.5, 0.3])
    search = cbc.EmbeddedCbc(m_min=0, m_max=5)
    search.append(gamma[0])
    search.append(gamma[1])
    for j, m in enumerate(search.ms):
        assert search.current_errors()[j] == pytest.approx(
            brute_force_error_sq(search.z, 2**m, gamma[:2]), rel=1e-12, abs=1e-15)
    e2 = search.current_errors() + search.increments(gamma[2])
    assert e2.shape == (8, 6)  # odd candidates below 2^4
    for i, c in enumerate(search.candidates):
        z = search.z + [int(c)]
        for j, m in enumerate(search.ms):
            expected = brute_force_error_sq(z, 2**m, gamma)
            assert e2[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_mirrored_and_first_candidates_give_equal_errors():
    # the two symmetries that let the search skip candidates
    gamma = np.array([0.9, 0.5, 0.3])
    N = 32
    for n in (4, 8, 16, 32):  # every rule of the embedded sequence
        e2_first = [brute_force_error_sq([c], n, gamma[:1]) for c in range(1, N, 2)]
        assert np.allclose(e2_first, e2_first[0], rtol=1e-12)
        for c in range(1, N // 2, 2):
            assert brute_force_error_sq([1, 7, c], n, gamma) == pytest.approx(
                brute_force_error_sq([1, 7, N - c], n, gamma), rel=1e-12)


def test_choice_minimizes_worst_increment_ratio():
    gamma = np.array([0.8, 0.6, 0.4, 0.2])
    search = cbc.EmbeddedCbc(m_min=2, m_max=6)
    assert search.append(gamma[0]) == 1  # every odd z_1 gives the same rules
    for g in gamma[1:]:
        inc = search.increments(g)
        assert np.all(inc > 0)
        worst = (inc / inc.min(axis=0)).max(axis=1)
        chosen = search.append(g)
        best = pytest.approx(worst.min(), rel=1e-9)  # the search's tie rule
        assert worst[search.candidates.tolist().index(chosen)] == best
        assert search.ratios[-1] == best and search.ratios[-1] >= 1.0
    assert search.ratios[0] == 1.0


def test_script_reproduces_packaged_prefix():
    # sums run in a fixed order without BLAS, so this holds on any machine
    z = cbc.embedded_cbc(cbc.ce_weights(count=64)).z
    assert np.array_equal(z, default_generating_vector().entries[:64])


def test_weights_are_ce_amplitudes():
    grid = UniformGrid(dim=2, points_per_axis=9)
    emb = build_embedding(cbc.DEFAULT_KERNEL, grid)
    b = cbc.ce_weights()
    assert b.size == emb.s == 4096  # level-3 problem-1 embedding
    assert np.all(np.diff(b) <= 0)  # importance order
    # the embedding's spectrum: the doubling search's, as it takes no cutoff
    assert not emb.periodized
    eigs = doubling_search(cbc.DEFAULT_KERNEL, grid, 1e-13, 12)[2]
    assert b[0] == pytest.approx(np.sqrt(2.0 * eigs.max() / emb.s))


def test_packaged_header_states_provenance():
    text = (Path(cbc.__file__).parent / "data" / "lattice_default.txt").read_text()
    header = [ln for ln in text.splitlines() if ln.startswith("#")]
    assert any("python -m mlqmcgrad.cbc" in ln for ln in header)
    assert any("N = 2^3 .. 2^12" in ln for ln in header)
    vec = default_generating_vector()
    assert vec.n_max == 2**12
