import itertools
import math
import warnings

import numpy as np
import pytest

from zpfsim import engine
from zpfsim.detection import intensity_batch, q_model
from zpfsim.engine import detection_summary, mc_detect, run_variants
from zpfsim.field import TRIAL_BLOCK, sample_vacuum_batch
from zpfsim.optics import rotator_transform
from zpfsim.scenarios import chsh_scenario, pdc_scenario, vacuum_scenario

from conftest import (WINDOW_1E5, detector, draw_rows, drawn_power, mc_intensity_samples,
                      power_path_oracle, signed_zero_amps)


def two_detector_scenario(n_cells=16, kind="vacuum"):
    if kind == "pdc":
        return pdc_scenario(
            detector(n_cells=n_cells, threshold_sigma=1.0, zeta_sigma=0.5, omega_center=1.25),
            detector(n_cells=n_cells, threshold_sigma=1.0, zeta_sigma=0.5, omega_center=0.75),
            0.2, ("a", "b"))
    return vacuum_scenario(
        [detector(n_cells=n_cells, threshold_sigma=1.0, zeta_sigma=0.5),
         detector(n_cells=n_cells, threshold_sigma=1.0, zeta_sigma=0.5, omega_center=2.0)],
        ["a", "b"],
    )


def direct_intensities(scen, kind, trials, seed):
    """Intensities (trials, n_det) recomputed from the field's draws in one batch.

    A vacuum scenario has no crystal, so its Monte Carlo draws each mode's power.
    A PDC scenario draws each pair's P and turned difference amplitude q, and
    its output amplitudes, turned by p's phase, are
    ((1 + g + g^2/2) sqrt(P) +- (1 - g + g^2/2) q) / sqrt(2).
    """
    if kind == "vacuum":
        power = 0.5 * draw_rows(drawn_power, scen.n_modes, seed, trials)
    else:
        g, n_pairs = scen.crystal, scen.n_modes // 2
        p = (1 + g + g * g / 2) * np.sqrt(0.5 * draw_rows(drawn_power, n_pairs, seed, trials))
        q = (1 - g + g * g / 2) * draw_rows(sample_vacuum_batch, n_pairs, seed, trials, stream=1)
        # pair j's signal is mode j and its idler mode n_modes - 1 - j
        power = np.hstack([np.abs(p + q) ** 2 / 2, np.abs(p - q)[:, ::-1] ** 2 / 2])
    return intensity_batch(power, scen.parts)


class TestRunVariants:
    def test_trials_validated(self):
        scen = two_detector_scenario()
        with pytest.raises(ValueError, match="trials"):
            run_variants(scen, (), 0, seed=1)

    def test_worker_count_does_not_change_sums(self):
        scen = two_detector_scenario()
        trials = 3 * TRIAL_BLOCK + 17
        s1 = run_variants(scen, (), trials, seed=4, workers=1)
        s2 = run_variants(scen, (), trials, seed=4, workers=4)
        assert s1.n == s2.n == trials
        for f in ("q_sum", "q2_sum", "i_sum", "i2_sum", "ii_sum", "u_sum", "uu_sum"):
            assert np.array_equal(getattr(s1, f), getattr(s2, f)), f


    @pytest.mark.parametrize("kind", ["vacuum", "pdc", "chsh"])
    def test_tile_size_and_worker_count_do_not_change_sums(self, kind, monkeypatch):
        dets = (detector(n_cells=16, threshold_sigma=1.0, zeta_sigma=0.5, omega_center=1.25),
                detector(n_cells=16, threshold_sigma=1.0, zeta_sigma=0.5, omega_center=0.75))
        if kind == "vacuum":
            scen = vacuum_scenario(list(dets))
            settings = ()
        elif kind == "pdc":
            scen = pdc_scenario(*dets, 0.2)
            settings = ()
        else:
            scen = chsh_scenario(*dets, 0.2)
            settings = [(0.0, 0.3), (0.0, 1.1), (0.8, 0.3), (0.8, 1.1)]
        trials = 2 * TRIAL_BLOCK + 5
        ref = run_variants(scen, settings, trials, seed=8, workers=1)
        runs = {"workers 2": run_variants(scen, settings, trials, seed=8, workers=2)}
        for rows in (1, 7, TRIAL_BLOCK):
            monkeypatch.setattr(engine, "TILE_AMPS", rows * scen.n_modes)
            runs[f"{rows}-row tiles"] = run_variants(scen, settings, trials, seed=8, workers=1)
        for label, sums in runs.items():
            assert sums.n == trials
            for f in ("q_sum", "q2_sum", "i_sum", "i2_sum", "ii_sum", "u_sum", "uu_sum"):
                assert np.array_equal(getattr(sums, f), getattr(ref, f)), (label, f)


class TestPowerPath:
    @pytest.mark.parametrize("case, expected", [("vacuum", True), ("pdc", True), ("chsh", False),
                                                ("pdc-g0", True)])
    def test_which_runs_draw_power(self, case, expected):
        # only a run on H modes alone skips its modes' amplitudes: a PDC run
        # draws one power and one amplitude per pair instead, at g = 0 too
        dets = (detector(n_cells=4, omega_center=1.25), detector(n_cells=4, omega_center=0.75))
        scen = (vacuum_scenario(list(dets)) if case == "vacuum" else
                chsh_scenario(*dets, 0.2) if case == "chsh" else
                pdc_scenario(*dets, 0.0 if case == "pdc-g0" else 0.2))
        n = scen.n_modes
        # (modes, rows) of each draw: power and the pair amplitudes fill the
        # engine's buffers, the amplitudes of a run with stations are returned
        modes_rows = {"sample_vacuum_power": lambda rng, out: out.shape[::-1],
                      "sample_vacuum_normals": lambda rng, out: out.shape[::-1],
                      "sample_vacuum_batch": lambda n_modes, rng, rows: (n_modes, rows)}
        drawn = {name: [] for name in modes_rows}
        with pytest.MonkeyPatch.context() as mp:
            for name, key in modes_rows.items():
                mp.setattr(engine, name, lambda *args, sample=getattr(engine, name), key=key,
                           log=drawn[name]: log.append(key(*args)) or sample(*args))
            run_variants(scen, (), 5, seed=2, workers=1)
        assert bool(drawn["sample_vacuum_power"]) is expected
        assert tuple(drawn.values()) == {
            "vacuum": ([(n, 5)], [], []), "pdc": ([(n // 2, 5)], [(n // 2, 5)], []),
            "pdc-g0": ([(n // 2, 5)], [(n // 2, 5)], []), "chsh": ([], [], [(n, 5)])}[case]

    @pytest.mark.parametrize("kind", ["vacuum", "pdc"])
    def test_settings_need_v_modes(self, kind, monkeypatch):
        # an analyzer rotates H into V modes, which these scenarios lack; the
        # vacuum one has four detectors, as many as two stations. The run
        # stops before it samples anything.
        dets = [detector(n_cells=4, omega_center=w) for w in (1.25, 0.75, 1.5, 1.0)]
        scen = vacuum_scenario(dets) if kind == "vacuum" else pdc_scenario(*dets[:2], 0.2)
        monkeypatch.setattr(engine, "block_generators", lambda *args: pytest.fail("sampled"))
        with pytest.raises(ValueError, match="analyzer settings need"):
            run_variants(scen, [(0.0, 0.3)], 5, seed=2, workers=1)


class TestPowerPathOracle:
    """The power path equals the old composition (``conftest.power_path_oracle``) bit for bit."""

    DETS = [detector(n_cells=16, omega_center=w) for w in (1.25, 0.75)]
    CASES = {"vacuum-1": lambda d: vacuum_scenario(d[:1]),
             "vacuum-2": lambda d: vacuum_scenario(d),
             "vacuum-cut": lambda d: vacuum_scenario(d, n_modes=7),
             "pdc-g0": lambda d: pdc_scenario(*d, 0.0),
             "pdc-g0.2": lambda d: pdc_scenario(*d, 0.2),
             "pdc-g0.39": lambda d: pdc_scenario(*d, 0.39)}

    def scenario(self, case):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")       # g = 0.39 is past the perturbative limit
            return self.CASES[case](self.DETS)

    @pytest.mark.parametrize("tile_rows", [None, 1, 7, 2048])
    @pytest.mark.parametrize("rows", [1, 17, TRIAL_BLOCK])
    @pytest.mark.parametrize("case", list(CASES))
    def test_chunk_equals_oracle(self, case, rows, tile_rows, monkeypatch):
        scen = self.scenario(case)
        if tile_rows is not None:
            monkeypatch.setattr(engine, "TILE_AMPS", tile_rows * scen.n_modes)
        i = engine.chunk_intensities(scen, (), 11, 1, rows)
        assert i.shape == (1, len(scen.parts), rows)
        assert np.array_equal(i[0], power_path_oracle(scen, 11, 1, rows))

    @pytest.mark.parametrize("tile_rows", [None, 1])
    @pytest.mark.parametrize("rows", [1, 17])
    def test_wide_chunk_equals_oracle(self, rows, tile_rows, monkeypatch):
        # 9000 modes: three-row tiles by default, one-row tiles patched
        scen = vacuum_scenario([detector(n_cells=9000, window=WINDOW_1E5)])
        if tile_rows is not None:
            monkeypatch.setattr(engine, "TILE_AMPS", tile_rows * scen.n_modes)
        i = engine.chunk_intensities(scen, (), 11, 1, rows)
        assert np.array_equal(i[0], power_path_oracle(scen, 11, 1, rows))


class TestAnalyzerSums:
    ANGLES = (0.0, 0.3, -1.1, math.pi / 4, math.pi / 2, 3 * math.pi)

    @pytest.mark.parametrize("source", ["vacuum", "signed zeros"])
    def test_three_sums_equal_the_rotated_intensities(self, source):
        # I+ = c^2 A + s^2 B + 2cs C and I- = s^2 A + c^2 B - 2cs C of each
        # station against intensity_batch of rotator_transform's amplitudes
        dets = (detector(n_cells=8, omega_center=1.25), detector(n_cells=8, omega_center=0.75))
        scen = chsh_scenario(*dets, 0.2)
        rows = 64
        amps = (signed_zero_amps(rows, scen.n_modes, seed=5) if source == "signed zeros"
                else draw_rows(sample_vacuum_batch, scen.n_modes, 5, rows))
        settings = list(itertools.product(self.ANGLES, repeat=2))
        stations = (h1, v1, _), (h2, v2, _) = scen.stations
        i = np.empty((1 + len(settings), len(scen.parts), rows))
        i[0] = intensity_batch(amps.real**2 + amps.imag**2, scen.parts).T
        engine._analyze(i, engine._cross_sums(amps, stations), settings)
        for k, (t1, t2) in enumerate(settings, start=1):
            rotated = rotator_transform(rotator_transform(amps, (h1, v1), t1), (h2, v2), t2)
            expected = intensity_batch(np.abs(rotated) ** 2, scen.parts).T
            np.testing.assert_allclose(i[k], expected, rtol=1e-13, atol=0, err_msg=f"{t1}, {t2}")
            if t1 == t2 == 0.0:
                assert i[k].tobytes() == i[0].tobytes()


class TestSharedCrystal:
    def test_chsh_variant_zero_equals_mc_detect(self):
        # the crystal is applied once per tile and shared by all five variants;
        # variant 0 (no analyzer) is exactly the plain Monte Carlo
        dets = (detector(n_cells=4, threshold_sigma=1.0, zeta_sigma=0.5, omega_center=1.25),
                detector(n_cells=4, threshold_sigma=1.0, zeta_sigma=0.5, omega_center=0.75))
        scen = chsh_scenario(*dets, 0.2)
        settings = [(0.0, 0.3), (0.0, 1.1), (0.8, 0.3), (0.8, 1.1)]
        trials = 2 * TRIAL_BLOCK + 5
        point = run_variants(scen, settings, trials, seed=8, workers=1)
        plain = run_variants(scen, (), trials, seed=8, workers=1)
        n_pair = len(scen.coincidences)
        for f in ("q_sum", "q2_sum", "i_sum", "i2_sum", "ii_sum"):
            assert np.array_equal(getattr(point, f)[0], getattr(plain, f)[0]), f
        assert np.array_equal(point.u_sum[:n_pair], plain.u_sum)
        # a BLAS product; its blocking may depend on the number of variants
        assert np.allclose(point.uu_sum[:n_pair, :n_pair], plain.uu_sum, rtol=1e-12, atol=0)
        ours, our_pairs = detection_summary(scen, point)
        theirs, their_pairs = mc_detect(scen, trials, seed=8, workers=1)
        assert ours == theirs
        # a pair's p_mc_stderr reads the diagonal of uu_sum, the BLAS product above
        for key, fields in our_pairs.items():
            assert fields["p_mc"] == their_pairs[key]["p_mc"], key
            assert fields["corr_mc"] == their_pairs[key]["corr_mc"], key


class TestMcDetect:
    @pytest.mark.parametrize("kind", ["vacuum", "pdc"])
    def test_matches_direct_recomputation(self, kind):
        scen = two_detector_scenario(n_cells=8, kind=kind)
        trials = 500
        detectors, pairs = mc_detect(scen, trials, seed=3)
        intensities = direct_intensities(scen, kind, trials, seed=3)
        for d, name in enumerate(scen.detector_names):
            i = intensities[:, d]
            q = q_model(i, scen.detector_specs[d])
            fields = detectors[name]
            assert fields["p_mc"] == pytest.approx(np.mean(q), rel=1e-12)
            assert fields["p_mc_stderr"] == pytest.approx(
                np.std(q, ddof=1) / np.sqrt(trials), rel=1e-10)
            assert fields["intensity_mean_mc"] == pytest.approx(np.mean(i), rel=1e-12)
            assert fields["intensity_std_mc"] == pytest.approx(np.std(i, ddof=1), rel=1e-10)
        ia, ib = intensities.T
        qa = q_model(ia, scen.detector_specs[0])
        qb = q_model(ib, scen.detector_specs[1])
        assert pairs[("a", "b")]["p_mc"] == pytest.approx(np.mean(qa * qb), rel=1e-12)
        # population (ddof=0) correlation of the intensities
        expected_corr = np.corrcoef(ia, ib)[0, 1]
        assert pairs[("a", "b")]["corr_mc"] == pytest.approx(expected_corr, rel=1e-10)

    def test_pdc_intensity_correlation_matches_the_pair_law(self):
        # each pair adds w_sj w_ij m^2 to the intensity covariance and each
        # mode w^2 n^2 to a variance, so corr = sum_j w_sj w_ij m^2 /
        # (n^2 sqrt(sum w_s^2 sum w_i^2)), idler weights mirrored; the
        # SE is that of the mean of 20 batch correlations
        scen = two_detector_scenario(n_cells=16, kind="pdc")
        trials, seed, g = 10 * TRIAL_BLOCK, 12, 0.2
        weight = np.zeros((2, scen.n_modes))
        for d, (idx, w) in enumerate(scen.parts):
            weight[d, idx] = w
        half = scen.n_modes // 2
        ws, wi = weight[0, :half], weight[1, :half - 1:-1]     # mode m pairs with N-1-m
        n, m = 0.5 + g * g + g**4 / 8, g * (1 + g * g / 2)
        expected = np.sum(ws * wi) * m * m / (n * n * np.sqrt(np.sum(ws**2) * np.sum(wi**2)))
        corr = mc_detect(scen, trials, seed)[1][("a", "b")]["corr_mc"]
        samples = mc_intensity_samples(scen, trials, seed)
        batches = [np.corrcoef(a, b)[0, 1] for a, b in zip(np.split(samples["a"], 20),
                                                            np.split(samples["b"], 20))]
        se = np.std(batches, ddof=1) / np.sqrt(len(batches))
        assert abs(corr - expected) < 3.0 * se, (corr, expected, se)

    def test_deterministic_given_seed(self):
        scen = two_detector_scenario(n_cells=8)
        r1, _ = mc_detect(scen, 300, seed=10)
        r2, _ = mc_detect(scen, 300, seed=10)
        assert r1["a"]["p_mc"] == r2["a"]["p_mc"]
        r3, _ = mc_detect(scen, 300, seed=11)
        assert r1["a"]["p_mc"] != r3["a"]["p_mc"]


class TestMcIntensitySamples:
    @pytest.mark.parametrize("kind", ["vacuum", "pdc"])
    def test_matches_batch_evaluation(self, kind):
        scen = two_detector_scenario(n_cells=8, kind=kind)
        trials = TRIAL_BLOCK + 100       # spans a chunk boundary
        samples = mc_intensity_samples(scen, trials, seed=6)
        intensities = direct_intensities(scen, kind, trials, seed=6)
        for d, name in enumerate(scen.detector_names):
            assert np.allclose(samples[name], intensities[:, d], rtol=1e-12)
