import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erfc, ndtri

from mlqmcgrad.circulant_field import UniformGrid, assign_inputs, build_embedding
from mlqmcgrad.covariance import MaternParams
from mlqmcgrad.qmc import (
    GeneratingVector,
    cube_to_normal,
    default_generating_vector,
    extend_vector,
    lattice_point,
    load_generating_vector,
    make_shift_set,
    radical_inverse,
    sequence_point,
    shift_rng,
    to_normal,
)


def gv(entries, **kw):
    return GeneratingVector(entries=np.asarray(entries, dtype=np.int64), **kw)


class TestLatticePoint:
    def test_exact_rational_example(self):
        z = gv([1, 5])
        pt = lattice_point(z, 8, 3, np.zeros(2))
        assert np.array_equal(pt, [0.375, 0.875])

    def test_last_index_is_origin(self):
        z = gv([3, 7, 11])
        assert np.array_equal(lattice_point(z, 16, 16, np.zeros(3)), np.zeros(3))

    def test_last_index_with_shift_is_shift(self):
        z = gv([3, 7])
        delta = np.array([0.25, 0.625])
        assert np.array_equal(lattice_point(z, 16, 16, delta), delta)

    def test_index_out_of_range(self):
        z = gv([1])
        with pytest.raises(IndexError):
            lattice_point(z, 8, 0, np.zeros(1))
        with pytest.raises(IndexError):
            lattice_point(z, 8, 9, np.zeros(1))

    def test_warns_outside_validity_range(self):
        z = gv([1, 5], n_min=8, n_max=2**20)
        with pytest.warns(UserWarning):
            lattice_point(z, 4, 1, np.zeros(2))

    def test_group_closure_exhaustive(self):
        # the unshifted point set is a group under addition mod 1
        rng = np.random.default_rng(0)
        for N in (7, 16, 33, 64):
            z = gv(2 * rng.integers(0, 2**19, size=3) + 1)
            pts = {tuple(Fraction(int(i * zj) % N, N) for zj in z.entries)
                   for i in range(1, N + 1)}
            for a in list(pts)[:10]:
                for b in list(pts)[:10]:
                    s = tuple((x + y) % 1 for x, y in zip(a, b))
                    assert s in pts


class TestSequence:
    def test_radical_inverse_values(self):
        assert [radical_inverse(k) for k in range(8)] == \
            [0.0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]

    def test_first_block_equals_lattice_rule(self):
        z = gv([277851, 136789, 423117])
        delta = np.array([0.1, 0.7, 0.3])
        N = 16
        seq = {tuple(sequence_point(z, k, delta)) for k in range(N)}
        rule = {tuple(lattice_point(z, N, i, delta)) for i in range(1, N + 1)}
        assert seq == rule


    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(0, 2**20 - 1), s=st.integers(1, 64),
           seed=st.integers(0, 2**32 - 1), edge=st.booleans())
    @example(k=0, s=3, seed=0, edge=True)
    @example(k=2**20 - 1, s=64, seed=1, edge=True)
    def test_matches_float_radical_inverse_form(self, k, s, seed, edge):
        # the float form the integer lattice point must reproduce bitwise
        rng = np.random.default_rng(seed)
        z = gv(2 * rng.integers(0, 2**19, size=s) + 1)
        delta = rng.random(s)
        lattice = (radical_inverse(k) * z.entries) % 1.0
        if edge:  # shifts at the ends of [0, 1), and shifts that put the
            # lattice part plus shift exactly on 1
            delta[::3] = np.nextafter(1.0, 0.0)
            delta[1::3] = (1.0 - lattice[1::3]) % 1.0
        ref = (lattice + delta) % 1.0
        pt = sequence_point(z, k, delta)
        assert pt.dtype == np.float64
        assert pt.tobytes() == ref.tobytes()


def reference_cube_to_normal(xi):
    """Clamp-then-reflect inverse normal map, with its Newton tail refinement."""
    xi = np.clip(xi, 2.0**-53, np.nextafter(1.0, 0.0))
    upper = xi > 0.5
    q = np.where(upper, 1.0 - xi, xi)
    y = np.atleast_1d(ndtri(q))
    tail = y < -4.0
    if np.any(tail):
        yt, qt = y[tail], q[tail]
        for _ in range(2):
            cdf = 0.5 * erfc(-yt / np.sqrt(2.0))
            pdf = 1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * yt * yt)
            yt = yt - (cdf - qt) / pdf
        y[tail] = yt
    return np.where(upper, -y, y)


SPECIAL_POINTS = [0.0, 1.0, 0.5, 2.0**-53, 1.0 - 2.0**-53, 1e-300, 1e-30,
                  1e-6, 1.0 - 1e-6, 3e-5, 1.0 - 3e-5, float(np.nextafter(0.5, 0.0)),
                  float(np.nextafter(0.5, 1.0))]


class TestCubeToNormal:
    def test_special_points_bitwise(self):
        xi = np.array(SPECIAL_POINTS)
        y = cube_to_normal(xi)
        assert y.tobytes() == reference_cube_to_normal(xi).tobytes()
        assert np.any(np.abs(y) > 4.0)  # the refined tail is exercised

    @settings(max_examples=200, deadline=None)
    @given(xi=st.lists(st.one_of(st.floats(0.0, 1.0),
                                 st.floats(0.0, 1e-4),
                                 st.floats(1.0 - 1e-4, 1.0),
                                 st.sampled_from(SPECIAL_POINTS)),
                       min_size=1, max_size=50))
    def test_bitwise_equal_to_reference(self, xi):
        xi = np.array(xi)
        assert cube_to_normal(xi).tobytes() == reference_cube_to_normal(xi).tobytes()


class TestToNormal:
    def test_median(self):
        assert to_normal(np.array([0.5]))[0] == 0.0

    def test_symmetry(self):
        xi = np.array([0.01, 0.2, 0.43, 0.77, 0.999])
        assert np.abs(to_normal(xi) + to_normal(1.0 - xi)).max() < 1e-12

    def test_upper_quantile_against_erf_bisection(self):
        # independent oracle: invert Phi built on math.erf by bisection
        def phi(x):
            return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

        def invert(p):
            lo, hi = -10.0, 10.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if phi(mid) < p:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        for p in (0.975, 0.6, 0.25, 1e-4):
            assert to_normal(np.array([p]))[0] == pytest.approx(invert(p), abs=1e-9)
        assert to_normal(np.array([0.975]))[0] == pytest.approx(1.95996398, abs=1e-7)

    def test_extreme_tails_against_mpmath(self):
        # |x - Phi^-1(p)| ~ |Phi(x) - p| / pdf(x); bound it with an
        # arbitrary-precision normal CDF
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 400
        for p in (1e-300, 1e-30, 1e-12, 0.3, 1.0 - 1e-12,
                  float(np.nextafter(1.0, 0.0))):
            x = float(to_normal(np.array([p]))[0])
            # mp.mpf(float) converts the binary double exactly
            abs_err = abs(mp.ncdf(mp.mpf(x)) - mp.mpf(float(p))) / mp.npdf(mp.mpf(x))
            assert float(abs_err) <= 1e-9

    def test_domain_error_at_endpoints(self):
        with pytest.raises(ValueError):
            to_normal(np.array([0.0]))
        with pytest.raises(ValueError):
            to_normal(np.array([1.0]))

    def test_clamped_map_finite_at_endpoints(self):
        y = cube_to_normal(np.array([0.0, 1.0, 0.5]))
        assert np.all(np.isfinite(y))
        assert abs(y[0] + y[1]) < 1e-9  # clamp is symmetric


class TestAssignDimensions:
    def setup_method(self):
        self.emb = build_embedding(MaternParams(0.1, 1.0, 0.5),
                                   UniformGrid(dim=2, points_per_axis=3))

    def test_identity_when_sorted(self):
        emb = self.emb
        order = np.arange(emb.s)
        object.__setattr__(emb, "importance_order", order)
        y = np.random.default_rng(1).standard_normal(emb.s)
        assert np.array_equal(assign_inputs(emb, y), y)

    def test_swap_case(self):
        emb = self.emb
        order = np.arange(emb.s)
        order[[0, 1]] = order[[1, 0]]
        object.__setattr__(emb, "importance_order", order)
        y = np.arange(float(emb.s))
        out = assign_inputs(emb, y)
        assert out[1] == 0.0 and out[0] == 1.0
        assert np.array_equal(out[2:], y[2:])

    def test_permutation_roundtrip(self):
        emb = self.emb
        rng = np.random.default_rng(2)
        perm = rng.permutation(emb.s)
        object.__setattr__(emb, "importance_order", perm)
        y = rng.standard_normal(emb.s)
        out = assign_inputs(emb, y)
        assert np.array_equal(out[perm], y)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assign_inputs(self.emb, np.zeros(self.emb.s - 1))


class TestExtendVector:
    def test_same_length_unchanged(self):
        z = gv([3, 5, 7])
        assert extend_vector(z, 3, seed=0) is z

    def test_deterministic(self):
        z = gv([3, 5, 7])
        a = extend_vector(z, 100, seed=[1, 2])
        b = extend_vector(z, 100, seed=[1, 2])
        assert np.array_equal(a.entries, b.entries)
        c = extend_vector(z, 100, seed=[1, 3])
        assert not np.array_equal(a.entries, c.entries)

    def test_prefix_untouched_and_marked(self):
        z = gv([3, 5, 7], loaded_prefix=3)
        a = extend_vector(z, 64, seed=9)
        assert np.array_equal(a.entries[:3], [3, 5, 7])
        assert a.loaded_prefix == 3

    def test_appended_entries_odd_and_in_range(self):
        z = gv([3])
        a = extend_vector(z, 100001, seed=4)
        tail = a.entries[1:]
        assert np.all(tail % 2 == 1)
        assert tail.min() >= 1 and tail.max() <= 2**20 - 1


class TestShifts:
    def test_deterministic_and_level_independent(self):
        a = np.array(list(make_shift_set(11, 2, 4, 8)))
        b = np.array(list(make_shift_set(11, 2, 4, 8)))
        c = np.array(list(make_shift_set(11, 3, 4, 8)))
        assert a.shape == (4, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all((a >= 0) & (a < 1))

    def test_prefix_stable_in_R(self):
        small = np.array(list(make_shift_set(11, 1, 3, 8)))
        large = np.array(list(make_shift_set(11, 1, 6, 8)))
        assert np.array_equal(large[:3], small)

    def test_drawn_one_at_a_time(self):
        # shift r is drawn when the caller reaches it, from its own key
        shifts = make_shift_set(11, 1, 3, 8)
        first = next(shifts)
        assert first.shape == (8,)
        assert np.array_equal(first, shift_rng(11, "shift", 1, 0).random(8))
        assert len(list(shifts)) == 2


class TestStatisticalProperties:
    def test_shift_unbiased_on_affine_integrand(self):
        z = default_generating_vector()
        rng = np.random.default_rng(5)
        N, R = 64, 200
        means = []
        for _ in range(R):
            delta = rng.random(4)
            pts = np.array([sequence_point(z, k, delta) for k in range(N)])
            means.append(pts[:, 0].mean())
        err = abs(np.mean(means) - 0.5)
        se = np.std(means, ddof=1) / np.sqrt(R)
        assert err <= 4 * se + 1e-12

    def test_shifted_points_uniform_ks(self):
        z = default_generating_vector()
        rng = np.random.default_rng(6)
        N, R = 2**10, 2**4
        for dim in range(3):
            vals = []
            for r in range(R):
                delta = rng.random(4)
                vals.extend(
                    sequence_point(z, k, delta)[dim] for k in range(N))
            vals = np.sort(vals)
            n = len(vals)
            grid = np.arange(1, n + 1) / n
            ks = max(np.abs(grid - vals).max(),
                     np.abs(vals - (grid - 1.0 / n)).max())
            assert ks < 1.63 / np.sqrt(n)  # 1% critical value

    def test_qmc_beats_mc_on_smooth_integrand(self):
        # slope of shift-variance vs N: lattice clearly steeper than -1,
        # i.i.d. sampling statistically consistent with -1
        z = default_generating_vector()
        rng = np.random.default_rng(7)
        Ns = [2**m for m in range(6, 11)]
        R = 32
        deltas = rng.random((R, 4))

        def integrand(pts):
            return np.prod(1.0 + 0.1 * (pts - 0.5), axis=1)

        qmc_vars, mc_vars = [], []
        for N in Ns:
            means_q, means_m = [], []
            for r in range(R):
                pts = np.array([sequence_point(z, k, deltas[r]) for k in range(N)])
                means_q.append(integrand(pts).mean())
                means_m.append(integrand(rng.random((N, 4))).mean())
            qmc_vars.append(np.var(means_q, ddof=1))
            mc_vars.append(np.var(means_m, ddof=1))
        A = np.vstack([np.log(Ns), np.ones(len(Ns))]).T
        q_slope = np.linalg.lstsq(A, np.log(qmc_vars), rcond=None)[0][0]
        m_slope = np.linalg.lstsq(A, np.log(mc_vars), rcond=None)[0][0]
        assert q_slope <= -1.5
        assert -1.35 <= m_slope <= -0.65


class TestFileLoading:
    def test_two_column_and_comments(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("# comment\n1 101\n2 203\n\n3 305\n")
        z = load_generating_vector(p)
        assert np.array_equal(z.entries, [101, 203, 305])
        assert z.loaded_prefix == 3

    def test_single_column(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("11\n13\n17\n")
        z = load_generating_vector(p)
        assert np.array_equal(z.entries, [11, 13, 17])

    def test_bad_index_order(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("1 101\n3 305\n")
        with pytest.raises(ValueError):
            load_generating_vector(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("# nothing\n")
        with pytest.raises(ValueError):
            load_generating_vector(p)

    def test_default_vector_loads(self):
        z = default_generating_vector()
        assert len(z) >= 4096
        assert np.all(z.entries % 2 == 1)
        assert z.loaded_prefix == len(z)

    def test_entries_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gv([0, 5])
        with pytest.raises(ValueError):
            gv([2**20, 5])
