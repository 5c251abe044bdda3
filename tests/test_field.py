import numpy as np
import pytest
from scipy.integrate import quad

from zpfsim.field import (
    RNG_STREAM,
    TRIAL_BLOCK,
    sample_pair_amplitudes,
    sample_vacuum_batch,
    sample_vacuum_power,
)
from zpfsim.scenarios import _mode_arrays, vacuum_scenario

from conftest import detector

N_TRIALS = 1_000_000


@pytest.fixture(scope="module")
def vacuum_draws():
    """Shared 10^6-trial, two-mode vacuum sample."""
    return sample_vacuum_batch(2, seed=20240817, trial_indices=range(N_TRIALS))


def quadrature_moment(power):
    """Moment E[|alpha|^(2 power)] of the density (2/pi) e^{-2|alpha|^2}.

    Computed by radial quadrature, independent of the sampling code.
    """
    val, _ = quad(lambda r: (2.0 / np.pi) * np.exp(-2.0 * r * r) * r ** (2 * power)
                  * 2.0 * np.pi * r, 0.0, 10.0, epsabs=1e-13)
    return val


class TestMode:
    """The mode arrays (k, omega, pol) that the scenario builders make."""

    def test_dispersion_enforced(self):
        # k = omega * axis with the axis normalized, so |k| = omega for any axis length
        scen = vacuum_scenario([detector(n_cells=8, axis=(0.0, 3.0, 4.0))])
        assert np.allclose(np.linalg.norm(scen.k, axis=1), scen.omega, rtol=1e-12, atol=0)

    def test_negative_frequency_rejected(self):
        # a band 2 pi / tau wider than 2 omega_center reaches below omega = 0
        with pytest.raises(ValueError, match="positive"):
            vacuum_scenario([detector(n_cells=8, omega_center=1.0, window=10.0)])


class TestSampleVacuum:
    def test_empty_mode_list_rejected(self):
        with pytest.raises(ValueError, match="n_modes"):
            sample_vacuum_batch(0, seed=1, trial_indices=range(1))

    def test_duplicate_mode_rejected(self):
        w = np.array([1.0])
        axis = (0.0, 0.0, 1.0)
        _mode_arrays([(w, 0, axis), (w, 1, axis)])   # other polarization
        with pytest.raises(ValueError, match="duplicate"):
            _mode_arrays([(w, 0, axis), (w, 0, axis)])

    def test_determinism_bit_identical(self):
        s1 = sample_vacuum_batch(1, seed=7, trial_indices=range(3, 4))
        s2 = sample_vacuum_batch(1, seed=7, trial_indices=range(3, 4))
        assert np.array_equal(s1, s2)
        s3 = sample_vacuum_batch(1, seed=7, trial_indices=range(4, 5))
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


class TestBlockKeyedSampling:
    """Trial t is row t % TRIAL_BLOCK of the generator keyed by (seed, t // TRIAL_BLOCK)."""

    def test_unaligned_split_equals_whole_batch(self):
        whole = sample_vacuum_batch(3, seed=12, trial_indices=range(6000))
        cuts = (0, 1000, 2500, 6000)
        parts = [sample_vacuum_batch(3, seed=12, trial_indices=range(a, b))
                 for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_prefix_is_head_of_longer_run(self):
        longer = sample_vacuum_batch(5, seed=3, trial_indices=range(2 * TRIAL_BLOCK + 9))
        for n in (1, 100, TRIAL_BLOCK, TRIAL_BLOCK + 1):
            prefix = sample_vacuum_batch(5, seed=3, trial_indices=range(n))
            assert np.array_equal(prefix, longer[:n]), n

    def test_single_realization_is_batch_row(self):
        batch = sample_vacuum_batch(3, seed=7, trial_indices=range(TRIAL_BLOCK + 40))
        for k in (0, 5, TRIAL_BLOCK - 1, TRIAL_BLOCK + 33):
            single = sample_vacuum_batch(3, seed=7, trial_indices=range(k, k + 1))
            assert np.array_equal(single[0], batch[k]), k

    def test_tiles_equal_whole_batch_whatever_calls_come_between(self):
        # a tile that starts where the last call stopped resumes that call's
        # generator; a call for another mode count, seed or block must not
        trials = 2 * TRIAL_BLOCK + 5
        whole = sample_vacuum_batch(4, seed=21, trial_indices=range(trials + 8))
        others = {"modes": sample_vacuum_batch(5, seed=21, trial_indices=range(trials + 8)),
                  "seed": sample_vacuum_batch(4, seed=22, trial_indices=range(trials + 8))}
        tiles = []
        for k, start in enumerate(range(0, trials, 8)):
            rows = range(start, min(start + 8, trials))
            tiles.append(sample_vacuum_batch(4, seed=21, trial_indices=rows))
            if k % 3:
                # starts where the tile stopped, which may be the next block's first row
                n, seed, label = (5, 21, "modes") if k % 3 == 1 else (4, 22, "seed")
                other = sample_vacuum_batch(n, seed=seed, trial_indices=range(rows.stop,
                                                                               rows.stop + 3))
                assert np.array_equal(other, others[label][rows.stop:rows.stop + 3]), (label, k)
        assert np.array_equal(np.concatenate(tiles), whole[:trials])

    def test_stream_is_sfc64_keyed_by_seed_and_block(self):
        # pins the generator: a resumed tile of block 0 and the rows it runs
        # on into block 1 equal direct draws from each block's own SFC64
        n_modes, seed = 3, 31
        sample_vacuum_batch(n_modes, seed=seed, trial_indices=range(5))
        tile = sample_vacuum_batch(n_modes, seed=seed, trial_indices=range(5, TRIAL_BLOCK + 7))
        direct = [0.5 * np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, b))))
                  .standard_normal((rows, 2 * n_modes)).view(complex)
                  for b, rows in ((0, TRIAL_BLOCK), (1, 7))]
        assert np.array_equal(tile[:TRIAL_BLOCK - 5], direct[0][5:])
        assert np.array_equal(tile[TRIAL_BLOCK - 5:], direct[1])
        assert RNG_STREAM == f"sfc64-seedseq-block{TRIAL_BLOCK}-normal-amp-exp-power-pair-law"

    @pytest.mark.parametrize("before", [
        lambda n, seed, rows: sample_vacuum_power(n, seed, rows),       # resumed
        lambda n, seed, rows: sample_vacuum_batch(n, seed, rows),       # drawn fresh
        lambda n, seed, rows: sample_vacuum_batch(n // 2, seed, rows),  # as many floats
    ], ids=["after-power", "after-amplitudes", "after-amplitudes-of-half-the-modes"])
    def test_power_is_half_an_sfc64_exponential_keyed_by_seed_and_block(self, before):
        # a tile of block 0 that runs on into block 1 equals direct exponential
        # draws, whether it resumes the last call's generator or, after a call
        # of the other draw, builds its own. The leading rows are many, because
        # both ziggurats take one raw draw per value on their fast path: over a
        # few values, a generator that drew normals is where one that drew
        # exponentials would be.
        n_modes, seed, head = 4, 31, 300
        before(n_modes, seed, range(head))
        tile = sample_vacuum_power(n_modes, seed=seed, trial_indices=range(head, TRIAL_BLOCK + 7))
        direct = [0.5 * np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, b))))
                  .standard_exponential((rows, n_modes))
                  for b, rows in ((0, TRIAL_BLOCK), (1, 7))]
        assert np.array_equal(tile[:TRIAL_BLOCK - head], direct[0][head:])
        assert np.array_equal(tile[TRIAL_BLOCK - head:], direct[1])

    def test_pair_amplitudes_are_an_sfc64_keyed_by_seed_block_and_1(self):
        # pins the second stream: a resumed tile of block 0 that runs on into
        # block 1 equals direct draws from SeedSequence((seed, b, 1)), and the
        # first stream's power drawn between its tiles is that of a whole call
        n_pairs, seed, head = 3, 31, 5
        power = [sample_vacuum_power(n_pairs, seed, range(head))]
        sample_pair_amplitudes(n_pairs, seed, range(head))
        power.append(sample_vacuum_power(n_pairs, seed, range(head, TRIAL_BLOCK + 7)))
        tile = sample_pair_amplitudes(n_pairs, seed, range(head, TRIAL_BLOCK + 7))
        direct = [0.5 * np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, b, 1))))
                  .standard_normal((rows, 2 * n_pairs)).view(complex)
                  for b, rows in ((0, TRIAL_BLOCK), (1, 7))]
        assert np.array_equal(tile[:TRIAL_BLOCK - head], direct[0][head:])
        assert np.array_equal(tile[TRIAL_BLOCK - head:], direct[1])
        whole = sample_vacuum_power(n_pairs, seed, range(TRIAL_BLOCK + 7))
        assert np.array_equal(np.concatenate(power), whole)

    @pytest.mark.parametrize("rows", [1, 7, TRIAL_BLOCK])
    def test_interleaved_streams_resume_each_generator(self, rows, monkeypatch):
        # a crystal point alternates the two streams tile by tile: each keeps
        # its own resume slot, so every block builds each of its two
        # generators once instead of re-drawing its leading rows per tile
        n_pairs, seed, trials = 4, 17, TRIAL_BLOCK + 9
        whole_power = sample_vacuum_power(n_pairs, seed, range(trials))
        whole_q = sample_pair_amplitudes(n_pairs, seed, range(trials))
        built = []
        seed_sequence = np.random.SeedSequence
        monkeypatch.setattr(np.random, "SeedSequence",
                            lambda entropy: built.append(entropy) or seed_sequence(entropy))
        power, q = [], []
        for start in range(0, trials, rows):
            tile = range(start, min(start + rows, trials))
            power.append(sample_vacuum_power(n_pairs, seed, tile))
            q.append(sample_pair_amplitudes(n_pairs, seed, tile))
        assert np.array_equal(np.concatenate(power), whole_power)
        assert np.array_equal(np.concatenate(q), whole_q)
        assert sorted(built) == [(seed, 0), (seed, 0, 1), (seed, 1), (seed, 1, 1)]

    @pytest.mark.parametrize("indices", [[0, 2], range(0, 10, 2), range(5, 0, -1), [0, 1]])
    def test_non_contiguous_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="contiguous"):
            sample_vacuum_batch(2, seed=1, trial_indices=indices)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample_vacuum_batch(2, seed=1, trial_indices=range(-1, 3))

    def test_same_row_of_two_blocks_uncorrelated(self):
        n_modes = 5000
        n = 2 * n_modes                    # Re and Im of every mode
        for row in (0, 17, TRIAL_BLOCK - 1):
            a, b = (sample_vacuum_batch(n_modes, seed=9, trial_indices=range(t, t + 1))
                    .view(np.float64).ravel()
                    for t in (row, TRIAL_BLOCK + row))
            r = np.corrcoef(a, b)[0, 1]
            assert abs(r) < 4.0 / np.sqrt(n), (row, r)
