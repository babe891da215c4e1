import numpy as np
import pytest

from xchmc import ScriptedRng, chain_rng


class TestChainRng:
    def test_matches_spawn_key_construction(self):
        rng = chain_rng(123, 4, 5)
        reference = np.random.default_rng(
            np.random.SeedSequence(entropy=123, spawn_key=(4, 5)))
        assert np.array_equal(rng.standard_normal(16), reference.standard_normal(16))

    def test_streams_differ_across_indices(self):
        a = chain_rng(0, 0).standard_normal(8)
        b = chain_rng(0, 1).standard_normal(8)
        c = chain_rng(1, 0).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_same_arguments_same_stream(self):
        assert np.array_equal(chain_rng(9, 2, 3).standard_normal(8),
                              chain_rng(9, 2, 3).standard_normal(8))

    @pytest.mark.parametrize("args,name", [((2.5,), "master_seed"), ((True,), "master_seed"),
                                           ((1, -1), "index"), ((1, 0, True), "index")])
    def test_non_integer_or_negative_seed_or_index_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be a non-negative integer"):
            chain_rng(*args)

    def test_numpy_integer_seed_draws_the_int_stream(self):
        assert np.array_equal(chain_rng(np.int64(3), 0).standard_normal(8),
                              chain_rng(3, 0).standard_normal(8))


class TestScriptedRng:
    def test_normals_pop_in_order(self):
        rng = ScriptedRng(normals=[1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(rng.standard_normal(2), [1.0, 2.0])
        assert np.array_equal(rng.standard_normal(2), [3.0, 4.0])

    def test_uniforms_pop_for_unit_interval(self):
        rng = ScriptedRng(uniforms=[0.25, 0.75])
        assert rng.uniform() == 0.25
        assert rng.uniform(0.0, 1.0) == 0.75

    def test_jitter_branch_uses_separate_queue(self):
        rng = ScriptedRng(uniforms=[0.5], jitters=[0.01])
        assert rng.uniform(-0.1, 0.1) == 0.01
        assert rng.uniform() == 0.5  # uniforms queue untouched by the jitter draw

    def test_jitter_defaults_to_midpoint(self):
        rng = ScriptedRng()
        assert rng.uniform(-0.2, 0.2) == 0.0
        assert rng.uniform(0.3, 0.5) == pytest.approx(0.4)

    @pytest.mark.parametrize("size", [2.5, True, -1])
    def test_size_must_be_a_non_negative_integer(self, size):
        rng = ScriptedRng(normals=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="^size must be a non-negative integer"):
            rng.standard_normal(size)

    def test_exhaustion_raises_informative_error(self):
        rng = ScriptedRng(normals=[1.0])
        rng.standard_normal(1)
        with pytest.raises(IndexError, match="normal"):
            rng.standard_normal(1)
        with pytest.raises(IndexError, match="uniform"):
            rng.uniform()
