import numpy as np
import pytest
from scipy.integrate import quad

from zpfsim.field import (
    RNG_STREAM,
    TRIAL_BLOCK,
    block_generators,
    sample_vacuum_batch,
    sample_vacuum_normals,
    sample_vacuum_power,
)

from conftest import draw_rows, drawn_normals, drawn_power

N_TRIALS = 1_000_000


@pytest.fixture(scope="module")
def vacuum_draws():
    """Shared 10^6-trial, two-mode vacuum sample."""
    return draw_rows(sample_vacuum_batch, 2, 20240817, N_TRIALS)


def quadrature_moment(power):
    """Moment E[|alpha|^(2 power)] of the density (2/pi) e^{-2|alpha|^2}.

    Computed by radial quadrature, independent of the sampling code.
    """
    val, _ = quad(lambda r: (2.0 / np.pi) * np.exp(-2.0 * r * r) * r ** (2 * power)
                  * 2.0 * np.pi * r, 0.0, 10.0, epsabs=1e-13)
    return val


class TestSampleVacuum:
    def test_empty_mode_list_rejected(self):
        rng, _ = block_generators(1, 0)
        with pytest.raises(ValueError, match="n_modes"):
            sample_vacuum_batch(0, rng, 1)
        for sample, dtype in ((sample_vacuum_power, float), (sample_vacuum_normals, complex)):
            with pytest.raises(ValueError, match="n_modes"):
                sample(rng, np.empty((1, 0), dtype=dtype))

    def test_determinism_bit_identical(self):
        s1, s2, s3 = (sample_vacuum_batch(1, block_generators(7, block)[0], 4)
                      for block in (0, 0, 1))
        assert np.array_equal(s1, s2)
        assert not np.array_equal(s1, s3)

    def test_mean_occupation_matches_quadrature_oracle(self, vacuum_draws):
        # E[|alpha|^2] = 1/2 with Var(|alpha|^2) = 1/4; band is 3 SE at 10^6
        mean_sq = quadrature_moment(1)
        var_sq = quadrature_moment(2) - mean_sq**2
        assert mean_sq == pytest.approx(0.5, abs=1e-10)
        assert var_sq == pytest.approx(0.25, abs=1e-10)
        sample = np.mean(np.abs(vacuum_draws[:, 0]) ** 2)
        assert abs(sample - mean_sq) < 3.0 * np.sqrt(var_sq / N_TRIALS)
        assert abs(sample - 0.5) < 0.002

    def test_circular_symmetry_kills_alpha_squared(self, vacuum_draws):
        assert abs(np.mean(vacuum_draws[:, 0] ** 2)) < 3e-3

    def test_zero_mean(self, vacuum_draws):
        assert abs(np.mean(vacuum_draws[:, 0])) < 3.0 * np.sqrt(0.5 / N_TRIALS)

    def test_cross_mode_independence(self, vacuum_draws):
        a, b = vacuum_draws[:, 0], vacuum_draws[:, 1]
        cov = np.mean(a * np.conj(b)) - np.mean(a) * np.conj(np.mean(b))
        assert abs(cov) < 3.0 * np.sqrt(0.25 / N_TRIALS)


def direct_draws(key, draw, shape):
    """0.5 x ``Generator.<draw>`` of shape ``shape`` from a fresh SFC64 seeded by ``key``."""
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))
    return 0.5 * getattr(rng, draw)(shape)


class TestBlockKeyedSampling:
    """Trial t is row t % TRIAL_BLOCK of the generators of block t // TRIAL_BLOCK."""

    def test_prefix_is_head_of_longer_run(self):
        longer = draw_rows(sample_vacuum_batch, 5, 3, 2 * TRIAL_BLOCK + 9)
        for n in (1, 100, TRIAL_BLOCK, TRIAL_BLOCK + 1):
            prefix = draw_rows(sample_vacuum_batch, 5, 3, n)
            assert np.array_equal(prefix, longer[:n]), n

    @pytest.mark.parametrize("rows", [1, 7, TRIAL_BLOCK])
    def test_alternating_tiles_equal_whole_block_draws(self, rows):
        # a crystal point draws each tile's power from the block's first
        # generator and its pair amplitudes from the second, in alternation,
        # into the head of one buffer each
        n_pairs, seed, block = 4, 17, 1
        whole_power = drawn_power(n_pairs, block_generators(seed, block)[0], TRIAL_BLOCK)
        whole_q = drawn_normals(n_pairs, block_generators(seed, block)[1], TRIAL_BLOCK)
        rng, pair_rng = block_generators(seed, block)
        power_buf, q_buf = np.empty((rows, n_pairs)), np.empty((rows, n_pairs), dtype=complex)
        power, q = [], []
        for start in range(0, TRIAL_BLOCK, rows):
            n = min(rows, TRIAL_BLOCK - start)
            power.append(sample_vacuum_power(rng, power_buf[:n]).copy())
            q.append(sample_vacuum_normals(pair_rng, q_buf[:n]).copy())
        assert np.array_equal(np.concatenate(power), whole_power)
        assert np.array_equal(np.concatenate(q), whole_q)

    def test_tiles_equal_whole_batch_whatever_calls_come_between(self):
        # the sampler keeps no state of its own: draws for another block,
        # seed or mode count between a block's tiles leave the tiles unchanged
        whole = sample_vacuum_batch(4, block_generators(21, 0)[0], TRIAL_BLOCK)
        rng, _ = block_generators(21, 0)
        tiles = []
        for k in range(TRIAL_BLOCK // 8):
            tiles.append(sample_vacuum_batch(4, rng, 8))
            seed, block, n = ((21, 1, 4), (22, 0, 4), (21, 0, 5))[k % 3]
            sample_vacuum_batch(n, block_generators(seed, block)[0], 3)
        assert np.array_equal(np.concatenate(tiles), whole)

    def test_stream_is_sfc64_keyed_by_seed_and_block(self):
        # pins the generator: each block's tiles equal direct draws from its own SFC64
        n_modes, seed = 3, 31
        for block in (0, 1):
            rng, _ = block_generators(seed, block)
            tiles = [sample_vacuum_batch(n_modes, rng, rows) for rows in (5, TRIAL_BLOCK - 5)]
            direct = direct_draws((seed, block), "standard_normal", (TRIAL_BLOCK, 2 * n_modes))
            assert np.array_equal(np.concatenate(tiles), direct.view(complex)), block
        assert RNG_STREAM == f"sfc64-seedseq-block{TRIAL_BLOCK}-normal-amp-exp-power-pair-law"

    def test_power_is_half_an_sfc64_exponential_keyed_by_seed_and_block(self):
        n_modes, seed, head = 4, 31, 300
        for block in (0, 1):
            rng, _ = block_generators(seed, block)
            # |alpha|^2 is half the buffer's 2|alpha|^2
            tiles = [0.5 * drawn_power(n_modes, rng, rows) for rows in (head, TRIAL_BLOCK - head)]
            direct = direct_draws((seed, block), "standard_exponential", (TRIAL_BLOCK, n_modes))
            assert np.array_equal(np.concatenate(tiles), direct), block

    def test_pair_amplitudes_are_an_sfc64_keyed_by_seed_block_and_1(self):
        # pins the second stream: each block's pair amplitudes equal direct
        # draws from SeedSequence((seed, b, 1)), and the first stream's power
        # drawn between their tiles is that of a whole draw
        n_pairs, seed, head = 3, 31, 5
        for block in (0, 1):
            rng, pair_rng = block_generators(seed, block)
            power, tiles = [], []
            for rows in (head, TRIAL_BLOCK - head):
                power.append(drawn_power(n_pairs, rng, rows))
                tiles.append(0.5 * drawn_normals(n_pairs, pair_rng, rows))
            direct = direct_draws((seed, block, 1), "standard_normal", (TRIAL_BLOCK, 2 * n_pairs))
            assert np.array_equal(np.concatenate(tiles), direct.view(complex)), block
            whole = drawn_power(n_pairs, block_generators(seed, block)[0], TRIAL_BLOCK)
            assert np.array_equal(np.concatenate(power), whole), block

    def test_same_row_of_two_blocks_uncorrelated(self):
        n_modes = 5000
        n = 2 * n_modes                    # Re and Im of every mode

        def row_of(block, row):
            rng, _ = block_generators(9, block)
            for _ in range(row + 1):       # one row at a time: a whole block is 160 MB
                out = sample_vacuum_batch(n_modes, rng, 1)
            return out.view(np.float64).ravel()

        for row in (0, 17, TRIAL_BLOCK - 1):
            r = np.corrcoef(row_of(0, row), row_of(1, row))[0, 1]
            assert abs(r) < 4.0 / np.sqrt(n), (row, r)
