import numpy as np
import pytest

from zpfsim import engine
from zpfsim.analysis import chsh_variants
from zpfsim.detection import intensity_batch, q_model
from zpfsim.engine import (
    CHUNK_TRIALS,
    detection_summary,
    mc_detect,
    run_variants,
)
from zpfsim.field import sample_vacuum_batch
from zpfsim.scenarios import apply_ops, chsh_scenario, pdc_scenario, vacuum_scenario

from conftest import detector, mc_intensity_samples


def two_detector_scenario(n_cells=16):
    return vacuum_scenario(
        [detector(n_cells=n_cells, threshold_sigma=1.0, zeta_sigma=0.5),
         detector(n_cells=n_cells, threshold_sigma=1.0, zeta_sigma=0.5, omega_center=2.0)],
        ["a", "b"],
    )


class TestRunVariants:
    def test_trials_validated(self):
        scen = two_detector_scenario()
        with pytest.raises(ValueError, match="trials"):
            run_variants(scen, [()], 0, seed=1)

    def test_worker_count_does_not_change_sums(self):
        scen = two_detector_scenario()
        trials = 3 * CHUNK_TRIALS + 17
        s1 = run_variants(scen, [()], trials, seed=4, workers=1)
        s2 = run_variants(scen, [()], trials, seed=4, workers=4)
        assert s1.n == s2.n == trials
        for f in ("q_sum", "q2_sum", "i_sum", "i2_sum", "ii_sum", "u_sum", "uu_sum"):
            assert np.array_equal(getattr(s1, f), getattr(s2, f)), f


    @pytest.mark.parametrize("kind", ["pdc", "chsh"])
    def test_tile_size_and_worker_count_do_not_change_sums(self, kind, monkeypatch):
        dets = (detector(n_cells=16, threshold_sigma=1.0, zeta_sigma=0.5, omega_center=1.25),
                detector(n_cells=16, threshold_sigma=1.0, zeta_sigma=0.5, omega_center=0.75))
        if kind == "pdc":
            scen = pdc_scenario(*dets, 0.2)
            variants = [()]
        else:
            scen = chsh_scenario(*dets, 0.2)
            settings = [(0.0, 0.3), (0.0, 1.1), (0.8, 0.3), (0.8, 1.1)]
            variants = chsh_variants(scen, settings)[1]
        trials = 2 * CHUNK_TRIALS + 5
        ref = run_variants(scen, variants, trials, seed=8, workers=1)
        runs = {"workers 2": run_variants(scen, variants, trials, seed=8, workers=2)}
        for rows in (1, 7, CHUNK_TRIALS):
            monkeypatch.setattr(engine, "TILE_AMPS", rows * scen.n_modes)
            runs[f"{rows}-row tiles"] = run_variants(scen, variants, trials, seed=8, workers=1)
        for label, sums in runs.items():
            assert sums.n == trials
            for f in ("q_sum", "q2_sum", "i_sum", "i2_sum", "ii_sum", "u_sum", "uu_sum"):
                assert np.array_equal(getattr(sums, f), getattr(ref, f)), (label, f)


class TestSharedCrystal:
    def test_chsh_variant_zero_equals_mc_detect(self):
        # the crystal is applied once per tile and shared by all five variants;
        # variant 0 (no further ops) is exactly the plain Monte Carlo
        dets = (detector(n_cells=4, threshold_sigma=1.0, zeta_sigma=0.5, omega_center=1.25),
                detector(n_cells=4, threshold_sigma=1.0, zeta_sigma=0.5, omega_center=0.75))
        scen = chsh_scenario(*dets, 0.2)
        settings = [(0.0, 0.3), (0.0, 1.1), (0.8, 0.3), (0.8, 1.1)]
        trials = 2 * CHUNK_TRIALS + 5
        point = run_variants(scen, chsh_variants(scen, settings)[1], trials, seed=8, workers=1)
        plain = run_variants(scen, [()], trials, seed=8, workers=1)
        n_pair = len(scen.coincidences)
        for f in ("q_sum", "q2_sum", "i_sum", "i2_sum", "ii_sum"):
            assert np.array_equal(getattr(point, f)[0], getattr(plain, f)[0]), f
        assert np.array_equal(point.u_sum[:n_pair], plain.u_sum)
        # a BLAS product; its blocking may depend on the number of variants
        assert np.allclose(point.uu_sum[:n_pair, :n_pair], plain.uu_sum, rtol=1e-12, atol=0)
        ours, theirs = detection_summary(scen, point), mc_detect(scen, trials, seed=8, workers=1)
        for f in ("singles", "intensity_mean", "intensity_std", "intensity_corr"):
            assert getattr(ours, f) == getattr(theirs, f), f
        for key, est in ours.coincidences.items():
            assert est.value == theirs.coincidences[key].value, key


class TestMcDetect:
    def test_matches_direct_recomputation(self):
        scen = two_detector_scenario(n_cells=8)
        trials = 500
        res = mc_detect(scen, trials, seed=3)
        amps = apply_ops(sample_vacuum_batch(scen.n_modes, 3, range(trials)), scen.ops)
        intensities = intensity_batch(amps, scen.parts)
        for d, name in enumerate(scen.detector_names):
            i = intensities[:, d]
            q = q_model(i, scen.detector_specs[d])
            assert res.singles[name].value == pytest.approx(np.mean(q), rel=1e-12)
            assert res.singles[name].stderr == pytest.approx(
                np.std(q, ddof=1) / np.sqrt(trials), rel=1e-10)
            assert res.intensity_mean[name].value == pytest.approx(np.mean(i), rel=1e-12)
            assert res.intensity_std[name] == pytest.approx(np.std(i, ddof=1), rel=1e-10)
        ia, ib = intensities.T
        qa = q_model(ia, scen.detector_specs[0])
        qb = q_model(ib, scen.detector_specs[1])
        assert res.coincidences[("a", "b")].value == pytest.approx(np.mean(qa * qb), rel=1e-12)
        # population (ddof=0) correlation of the intensities
        expected_corr = np.corrcoef(ia, ib)[0, 1]
        assert res.intensity_corr[("a", "b")] == pytest.approx(expected_corr, rel=1e-10)

    def test_deterministic_given_seed(self):
        scen = two_detector_scenario(n_cells=8)
        r1 = mc_detect(scen, 300, seed=10)
        r2 = mc_detect(scen, 300, seed=10)
        assert r1.singles["a"].value == r2.singles["a"].value
        r3 = mc_detect(scen, 300, seed=11)
        assert r1.singles["a"].value != r3.singles["a"].value


class TestMcIntensitySamples:
    def test_matches_batch_evaluation(self):
        scen = two_detector_scenario(n_cells=8)
        trials = CHUNK_TRIALS + 100       # spans a chunk boundary
        samples = mc_intensity_samples(scen, trials, seed=6)
        amps = apply_ops(sample_vacuum_batch(scen.n_modes, 6, range(trials)), scen.ops)
        intensities = intensity_batch(amps, scen.parts)
        for d, name in enumerate(scen.detector_names):
            assert np.allclose(samples[name], intensities[:, d], rtol=1e-12)
