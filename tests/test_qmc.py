import math
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erfc, ndtri

from mlqmcgrad import qmc
from mlqmcgrad.qmc import (
    GeneratingVector,
    cube_to_normal,
    default_generating_vector,
    extend_vector,
    load_generating_vector,
    make_shift_set,
    sequence_point,
    shift_rng,
)


def gv(entries, **kw):
    return GeneratingVector(entries=np.asarray(entries, dtype=np.int64), **kw)


# -- oracles: reference forms that the package itself does not use ------------


def reference_load(path):
    """The entries of a generating-vector file, parsed line by line."""
    entries = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 1:
                entries.append(int(parts[0]))
            elif len(parts) == 2:
                idx, val = int(parts[0]), int(parts[1])
                if idx != len(entries) + 1:
                    raise ValueError(
                        f"{path}:{lineno}: index {idx}, expected {len(entries) + 1}")
                entries.append(val)
            else:
                raise ValueError(f"{path}:{lineno}: expected 1 or 2 columns")
    if not entries:
        raise ValueError(f"{path}: no generating vector entries found")
    return entries


def lattice_point(gv: GeneratingVector, N: int, i: int,
                  delta: np.ndarray) -> np.ndarray:
    """Point i of the N-point shifted rule, i in [1, N].

    The lattice part ((i * z) mod N) / N is computed in integer
    arithmetic; the shift is added modulo 1.
    """
    if not (1 <= i <= N):
        raise IndexError(f"lattice index {i} outside [1, {N}]")
    delta = np.asarray(delta, dtype=float)
    s = delta.size
    if len(gv) < s:
        raise ValueError(f"generating vector has {len(gv)} < s = {s} entries")
    if N > gv.n_max:
        warnings.warn(
            f"point count N={N} above the vector's n_max={gv.n_max}", stacklevel=2)
    frac = (np.multiply(gv.entries[:s], i, dtype=np.int64) % N).astype(float) / N
    return (frac + delta) % 1.0


def radical_inverse(k: int) -> float:
    """Dyadic radical inverse: bit-reversed fraction of k, in [0,1)."""
    v, f = 0.0, 0.5
    while k:
        if k & 1:
            v += f
        f *= 0.5
        k >>= 1
    return v


def to_normal(xi: np.ndarray) -> np.ndarray:
    """Componentwise inverse standard-normal CDF on (0,1): the package's
    Newton-refined map without the cube clamp of ``cube_to_normal``.

    Absolute accuracy below 1e-9 over [1e-300, 1 - 1e-16].
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi <= 0.0) or np.any(xi >= 1.0):
        raise ValueError("inverse normal CDF requires components in (0,1)")
    return qmc._ndtri_refined(xi)


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
        z = gv([1, 5], n_max=8)
        with pytest.warns(UserWarning):
            lattice_point(z, 16, 1, np.zeros(2))

    def test_group_closure_exhaustive(self):
        # the unshifted point set is a group under addition mod 1
        rng = np.random.default_rng(0)
        for N in (7, 16, 33, 64):
            z = gv(2 * rng.integers(0, 2**19, size=3) + 1)
            pts = {tuple(Fraction(i * int(zj) % N, N) for zj in z.entries)
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

    def test_bitwise_across_blocks(self):
        # several blocks of the blockwise map, with tails and special
        # points in every block, and a 2-D input keeping its shape
        rng = np.random.default_rng(3)
        xi = rng.random(3 * 2**16 + 17)
        xi[::997] = rng.random(xi[::997].size) ** 60
        xi[5::991] = 1.0 - rng.random(xi[5::991].size) ** 60
        xi[7::4099] = np.resize(SPECIAL_POINTS, xi[7::4099].size)
        y = cube_to_normal(xi)
        assert y.tobytes() == reference_cube_to_normal(xi).tobytes()
        assert np.any(np.abs(y[2**17:]) > 4.0)
        square = xi[:2**17].reshape(2**8, 2**9)
        assert cube_to_normal(square).tobytes() == y[:2**17].tobytes()


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


def reference_extend(z, s_needed, seed):
    """The concatenating extension: odd draws appended in int64."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    extra = 2 * rng.integers(0, z.n_max // 2, size=s_needed - len(z)) + 1
    return np.concatenate([z.entries.astype(np.int64), extra])


def traced(fn):
    """``fn()``, the bytes it left allocated and its traced peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept - base, peak - base


class TestIntegerWidths:
    @pytest.mark.parametrize("n_max,dtype", [(2**12, np.int32), (2**31, np.int32),
                                             (2**31 + 1, np.int64), (2**40, np.int64)])
    def test_entry_width_follows_n_max(self, n_max, dtype):
        assert gv([1, 3, 5], n_max=n_max).entries.dtype == dtype

    def test_default_vector_is_32_bit(self):
        assert default_generating_vector().entries.dtype == np.int32

    def test_wide_file_keeps_int64(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text(f"1 {2**35 + 1}\n2 3\n")
        z = load_generating_vector(p, n_max=2**40)
        assert z.entries.dtype == np.int64
        assert z.entries.tolist() == [2**35 + 1, 3]

    @pytest.mark.parametrize("n_max", [2**12, 2**20, 2**31, 2**40])
    @pytest.mark.parametrize("seed", [0, [7, 101, 5]])
    def test_extend_equals_concatenating_formula(self, n_max, seed):
        z = gv([3, 5, 7], n_max=n_max, loaded_prefix=3)
        ext = extend_vector(z, 5000, seed=seed)
        ref = reference_extend(z, 5000, seed)
        assert ext.entries.dtype == (np.int32 if n_max <= 2**31 else np.int64)
        assert np.array_equal(ext.entries, ref)
        assert ext.loaded_prefix == 3 and ext.n_max == n_max

    def test_extended_vector_keeps_four_bytes_per_entry(self):
        s = 2**20
        ext, kept, peak = traced(
            lambda: extend_vector(default_generating_vector(), s, seed=1))
        assert len(ext) == s
        assert kept <= 4 * s + 2**16
        assert peak <= 8 * s + 2**16      # the array and one draw

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(0, 2**20 - 1), s=st.integers(1, 64),
           seed=st.integers(0, 2**32 - 1))
    @example(k=2**20 - 1, s=8, seed=0)
    def test_sequence_point_with_wide_entries(self, k, s, seed):
        # entries up to n_max - 1 = 2^31 - 1 stored in 32 bits; the
        # float form is exact there (rev * z < 2^51)
        rng = np.random.default_rng(seed)
        entries = rng.integers(1, 2**31, size=s)
        entries[0] = 2**31 - 1
        z = gv(entries, n_max=2**31)
        delta = rng.random(s)
        ref = ((radical_inverse(k) * z.entries) % 1.0 + delta) % 1.0
        assert z.entries.dtype == np.int32
        assert sequence_point(z, k, delta).tobytes() == ref.tobytes()

    def test_lattice_point_products_past_2_31(self):
        z = gv([2**31 - 1, 2**31 - 3, 123456789, 1], n_max=2**31)
        N = 2**20
        for i in (3, 2**11 + 1, N - 1, N):
            assert i * int(z.entries[0]) >= 2**31
            pt = lattice_point(z, N, i, np.zeros(4))
            ref = [Fraction(i * int(zj), N) % 1 for zj in z.entries]
            assert [Fraction(v) for v in pt] == ref


def test_cube_to_normal_holds_only_its_normals():
    # at s = 2^20: the s-long output and block-sized temporaries
    s = 2**20
    xi = np.random.default_rng(0).random(s)
    y, _, peak = traced(lambda: cube_to_normal(xi))
    assert y.shape == (s,)
    assert peak <= 8 * s + 2**20


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

    @pytest.mark.parametrize("text", [
        "# header\n  # indented comment\n1 7\n2\t9\r\n\n3   11  \n",
        "5\n\n  17\n# note 1 2 3\n0019\n",
        "1 3\n5\n3 7\n",                     # the forms mixed
        "123456789012345678\n",                # 18 digits, the widest entry
        "7",                                   # no final newline
    ])
    def test_entries_equal_line_by_line_parse(self, tmp_path, text):
        p = tmp_path / "vec.txt"
        p.write_bytes(text.encode())
        z = load_generating_vector(p, n_max=2**62)
        expected = reference_load(p)
        assert z.entries.tolist() == expected and z.loaded_prefix == len(expected)

    def test_packaged_file_equals_line_by_line_parse(self):
        z = default_generating_vector()
        assert z.entries.tolist() == reference_load(qmc._DATA_FILE)

    @pytest.mark.parametrize("text, line, message", [
        ("1 101\n3 305\n", 2, "index 3, expected 2"),
        ("# c\n\n1 101\n2 203 7\n", 4, "expected 1 or 2 columns"),
        ("1 5\n2 x\n", 2, "expected unsigned decimal integers"),
        ("3\n-5\n", 2, "expected unsigned decimal integers"),
        ("1234567890123456789\n", 1, "expected unsigned decimal integers"),
        # the first line at fault decides, whatever its fault
        ("1 1\n2 3 4\n9 9\n", 2, "expected 1 or 2 columns"),
        ("1 1\n9 9\n2 3 4\n", 2, "index 9, expected 2"),
    ])
    def test_error_names_first_bad_line(self, tmp_path, text, line, message):
        p = tmp_path / "vec.txt"
        p.write_text(text)
        with pytest.raises(ValueError) as err:
            load_generating_vector(p, n_max=2**62)
        assert str(err.value).startswith(f"{p}:{line}: {message}")

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

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n", "# a\n  # b 1 2\n"])
    def test_file_without_entries_says_so(self, tmp_path, text):
        p = tmp_path / "vec.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{p}: no generating vector entries"):
            load_generating_vector(p)

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.one_of(
        st.tuples(st.just("comment"), st.text("# xyz19", max_size=6)),
        st.tuples(st.just("blank"), st.text(" \t", max_size=3)),
        st.tuples(st.just("entry"), st.integers(1, 10**9), st.booleans(),
                  st.integers(-1, 1), st.sampled_from([" ", "\t", "  "])),
        st.tuples(st.just("wide"), st.integers(1, 9), st.integers(3, 4))),
        max_size=12))
    def test_any_file_parses_as_line_by_line(self, lines):
        # entries and error lines agree with the line-by-line parse
        text, count = [], 0
        for kind, *args in lines:
            if kind == "comment":
                text.append("#" + args[0])
            elif kind == "blank":
                text.append(args[0])
            elif kind == "entry":
                value, indexed, off, sep = args
                count += 1
                text.append(f"{count + off}{sep}{value}" if indexed else f" {value} ")
            else:
                text.append(" ".join([str(args[0])] * args[1]))
                count += 1
        with tempfile.TemporaryDirectory() as tmp:
            p = f"{tmp}/vec.txt"
            with open(p, "w") as fh:
                fh.write("\n".join(text))
            try:
                expected = reference_load(p)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    load_generating_vector(p, n_max=2**62)
                assert str(err.value) == str(exc)
            else:
                assert load_generating_vector(p, n_max=2**62).entries.tolist() == expected

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
