"""Block evaluation: a block of samples equals one-at-a-time samples bitwise.

A refinement evaluates its new samples in blocks, each stage once over a
leading sample axis, with one LAPACK band factor per sample.  Every test
here compares bytes, not values within a tolerance: the estimators' sums
must not depend on how the samples were grouped.
"""
import numpy as np
import pytest
from conftest import make_hierarchy, quad_eval_matrix
from hypothesis import example, given, settings, strategies as st

from mlqmcgrad import cli, fem, qmc
from mlqmcgrad import estimators as est
from mlqmcgrad.circulant_field import (FieldRealization, eval_field, restrict_to_coarse,
                                       sample_field)
from mlqmcgrad.covariance import MaternParams

PROBLEM2 = MaternParams(sigma2=0.1, lambda_c=1.0, nu=2.5)


@pytest.fixture(scope="module")
def hiers():
    """Both presets' kernels at L = 3, three shifts each."""
    return [make_hierarchy(L=3, seed=404, R=3),
            make_hierarchy(L=3, seed=405, R=3, kernel=PROBLEM2)]


def rows_of(x):
    return [row.tobytes() for row in x]


def singles(hier, ell, normals, coupled):
    return [coupled_values(hier, ell, y, coupled) for y in normals]


def coupled_values(hier, ell, y, coupled):
    return est.coupled_sample(hier, ell, y, coupled).nodal_values.tobytes()


@settings(max_examples=40, deadline=None)
@given(preset=st.sampled_from([0, 1]), ell=st.integers(0, 3), coupled=st.booleans(),
       data=st.data())
@example(preset=0, ell=2, coupled=True, data=None).via("warm-up block {0, 1}")
def test_qmc_block_equals_single_points(hiers, preset, ell, coupled, data):
    hier = hiers[preset]
    gv, s = hier.vectors[ell], hier.embeddings[ell].s
    shifts = np.stack(list(qmc.make_shift_set(hier.master_seed, ell, hier.R, s)))
    if data is None:
        k, r = np.array([0, 1]), np.array([0, 0])      # bit lengths 0 and 1
    else:
        size = data.draw(st.integers(2, 12), label="block size")
        k = np.array(data.draw(st.lists(st.integers(0, 300), min_size=size,
                                        max_size=size), label="k"))
        r = np.array(data.draw(st.lists(st.integers(0, hier.R - 1), min_size=size,
                                        max_size=size), label="shift"))
    points = qmc.sequence_point(gv, k, shifts[r])
    assert rows_of(points) == [qmc.sequence_point(gv, int(i), shifts[j]).tobytes()
                               for i, j in zip(k, r)]
    normals = qmc.cube_to_normal(points)
    block = est.coupled_sample(hier, ell, normals, coupled).nodal_values
    assert block.shape == (k.size, hier.fe_levels[ell].num_nodes)
    assert rows_of(block) == singles(hier, ell, normals, coupled)


@settings(max_examples=30, deadline=None)
@given(preset=st.sampled_from([0, 1]), ell=st.integers(0, 3), coupled=st.booleans(),
       first=st.integers(0, 500), size=st.integers(2, 10))
def test_mc_block_equals_single_samples(hiers, preset, ell, coupled, first, size):
    hier = hiers[preset]
    acc = est.McLevelAccumulator(hier, ell, stream="mlmc", coupled=coupled)
    k = np.arange(first, first + size)
    normals = acc._normals(k)
    for i, row in zip(k, normals):
        rng = qmc.shift_rng(hier.master_seed, "mlmc", ell, int(i))
        assert row.tobytes() == rng.standard_normal(hier.embeddings[ell].s).tobytes()
    assert rows_of(acc._evaluate(k)) == singles(hier, ell, normals, coupled)


def accumulate(acc, block, refines):
    acc.block = block
    for _ in range(refines):
        acc.refine()
    return acc


@settings(max_examples=25, deadline=None)
@given(preset=st.sampled_from([0, 1]), ell=st.integers(0, 3), coupled=st.booleans(),
       block=st.integers(2, 13), refines=st.integers(1, 3))
def test_qmc_sums_do_not_depend_on_block_size(hiers, preset, ell, coupled, block,
                                              refines):
    # blocks run shift-major over the refinement's (shift, k) pairs, so any
    # block size above the per-shift count crosses shifts; the warm-up
    # refinement's pairs hold k = 0 and 1
    hier = hiers[preset]
    one = accumulate(est.QmcLevelAccumulator(hier, ell, coupled=coupled), 1, refines)
    many = accumulate(est.QmcLevelAccumulator(hier, ell, coupled=coupled), block,
                      refines)
    assert many.N == one.N
    assert many.sums.tobytes() == one.sums.tobytes()


@settings(max_examples=25, deadline=None)
@given(preset=st.sampled_from([0, 1]), ell=st.integers(0, 3), coupled=st.booleans(),
       block=st.integers(2, 40), refines=st.integers(1, 2))
def test_mc_sums_do_not_depend_on_block_size(hiers, preset, ell, coupled, block,
                                             refines):
    hier = hiers[preset]
    one = accumulate(est.McLevelAccumulator(hier, ell, coupled=coupled), 1, refines)
    many = accumulate(est.McLevelAccumulator(hier, ell, coupled=coupled), block, refines)
    for name in ("_ref", "sum_dev", "sum_dev2"):
        assert getattr(many, name).tobytes() == getattr(one, name).tobytes()


class TestBlockStages:
    """Each stage with a leading sample axis, against its rows one by one."""

    @pytest.fixture(scope="class")
    def block(self, hiers):
        hier = hiers[1]
        ell = 3
        y = np.random.default_rng(8).standard_normal((5, hier.embeddings[ell].s))
        return hier, ell, y, sample_field(hier.embeddings[ell], hier.mean_values[ell],
                                          y, level=ell)

    def test_sample_field_and_restriction(self, block):
        hier, ell, y, fields = block
        assert fields.values.shape == (5,) + (hier.ce_grids[ell].points_per_axis,) * 2
        coarse = restrict_to_coarse(fields, hier.ce_grids[ell - 1])
        for i, row in enumerate(y):
            one = sample_field(hier.embeddings[ell], hier.mean_values[ell], row, level=ell)
            assert fields.log_values[i].tobytes() == one.log_values.tobytes()
            assert fields.values[i].tobytes() == one.values.tobytes()
            assert coarse.values[i].tobytes() == \
                restrict_to_coarse(one, hier.ce_grids[ell - 1]).values.tobytes()

    def test_operators_loads_and_prolongation(self, block):
        hier, ell, _, fields = block
        lev = hier.fe_levels[ell]
        a = eval_field(fields, hier.stencils[ell])
        ops = fem.OperatorSet(lev, a)
        u = ops.solve(hier._b_z[ell]).nodal_values
        fq = lev.quad_values(u)
        b = fem.assemble_load(lev, fq)
        q = ops.solve(b).nodal_values
        up = fem.prolong(fem.FeFunction(ell - 1, u[:, :hier.fe_levels[ell - 1].num_nodes]),
                         hier.fe_levels, ell).nodal_values
        for i in range(len(a)):
            ai = eval_field(FieldRealization(ell, fields.grid, fields.log_values[i],
                                             fields.values[i]), hier.stencils[ell])
            assert a[i].tobytes() == ai.tobytes()
            one = fem.OperatorSet(lev, ai)
            ui = one.solve(hier._b_z[ell]).nodal_values
            assert u[i].tobytes() == ui.tobytes()
            assert fq[i].tobytes() == (quad_eval_matrix(lev) @ ui).tobytes()
            assert b[i].tobytes() == fem.assemble_load(lev, fq[i]).tobytes()
            assert q[i].tobytes() == one.solve(b[i]).nodal_values.tobytes()
            coarse = fem.FeFunction(ell - 1, u[i, :hier.fe_levels[ell - 1].num_nodes])
            assert up[i].tobytes() == \
                fem.prolong(coarse, hier.fe_levels, ell).nodal_values.tobytes()

    def test_block_diagonal_stiffness(self, block):
        hier, ell, _, fields = block
        lev = hier.fe_levels[ell]
        a = eval_field(fields, hier.stencils[ell])
        A = fem.assemble_stiffness(lev, a)
        n = lev.nodes_per_axis
        assert A.shape == (5, 3, n, n)
        for i in range(5):
            assert A[i].tobytes() == fem.assemble_stiffness(lev, a[i]).tobytes()

    def test_one_bad_sample_fails_the_block(self, block):
        hier, ell, _, fields = block
        a = eval_field(fields, hier.stencils[ell])
        a[3] *= -1.0
        with pytest.raises(fem.SolverDiverged, match="not positive definite"):
            fem.OperatorSet(hier.fe_levels[ell], a)
        a[3] = np.nan
        with pytest.raises(fem.SolverDiverged):
            fem.OperatorSet(hier.fe_levels[ell], a).solve(hier._b_z[ell])


@pytest.mark.parametrize("n", [5, 17, 65, 129])
def test_quad_values_equal_sparse_product(n):
    # halving is exact: 0.5 * (u[a] + u[b]) is the CSR row 0.5 u[a] + 0.5 u[b]
    lev = fem.build_fe_level(0, n)
    u = np.random.default_rng(n).standard_normal((3, lev.num_nodes))
    Q = quad_eval_matrix(lev)
    assert lev.quad_values(u[0]).tobytes() == (Q @ u[0]).tobytes()
    assert rows_of(lev.quad_values(u)) == [(Q @ row).tobytes() for row in u]


@pytest.fixture(scope="module")
def preset_hierarchies():
    """Both presets at L = 5, as ``mlqmcgrad run`` builds them."""
    out = {}
    for preset in ("problem1", "problem2"):
        raw = cli.load_config(None, preset).to_dict()
        raw["geometry"]["L"] = 5
        out[preset] = cli.build_hierarchy_from_config(cli.RunConfig.from_dict(raw))
    return out


@given(count=st.integers(1, 3000), block=st.integers(1, 900))
def test_balanced_blocks_are_fewest_and_near_equal(count, block):
    step = est._balanced(count, block)
    sizes = [min(step, count - a) for a in range(0, count, step)]
    assert sum(sizes) == count and max(sizes) <= block
    assert len(sizes) == -(-count // block)
    assert sizes[-1] > step - len(sizes)


class TestBlockSizeRule:
    def test_problem2_finest_levels_run_one_sample_per_block(self, preset_hierarchies):
        hier = preset_hierarchies["problem2"]
        for coupled in (True, False):
            assert [est._block_size(hier, ell, coupled) for ell in (4, 5)] == [1, 1]
        assert est.QmcLevelAccumulator(hier, 5).block == 1
        assert est.McLevelAccumulator(hier, 4).block == 1

    @pytest.mark.parametrize("preset", ["problem1", "problem2"])
    @pytest.mark.parametrize("coupled", [True, False])
    def test_no_block_plans_more_than_one_finest_sample(self, preset_hierarchies,
                                                        preset, coupled):
        hier = preset_hierarchies[preset]
        finest = est._sample_bytes(hier, hier.L, coupled)
        sizes = []
        for ell in range(hier.L + 1):
            size = est._block_size(hier, ell, coupled)
            assert 1 <= size
            assert size * est._sample_bytes(hier, ell, coupled and ell > 0) <= finest
            assert size * hier.embeddings[ell].s <= max(est._BLOCK_INPUTS,
                                                        hier.embeddings[ell].s)
            sizes.append(size)
        # the cheap levels do run in blocks
        assert sizes[0] > 1 and sizes[1] > 1
        assert sizes == sorted(sizes, reverse=True)
