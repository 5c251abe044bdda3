import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfsim.detection import intensity_batch, response_matrix
from zpfsim.field import sample_vacuum_batch
from zpfsim.optics import rotator_transform
from zpfsim.pdc import PERTURBATIVE_G_LIMIT, pdc_transform
from zpfsim.scenarios import (
    apply_ops,
    chsh_scenario,
    make_matched_detector,
    pdc_scenario,
    vacuum_scenario,
)

from conftest import (WINDOW_1K, dense_weights, detector, draw_rows, mode_geometry,
                      signed_zero_amps)


class TestCrystal:
    DETS = (detector(n_cells=4, omega_center=1.25), detector(n_cells=4, omega_center=0.75))

    @pytest.mark.parametrize("kind", ["vacuum", "pdc", "chsh"])
    def test_apply_ops_is_the_crystal_map(self, kind):
        scen = (vacuum_scenario(list(self.DETS)) if kind == "vacuum" else
                pdc_scenario(*self.DETS, 0.2) if kind == "pdc" else chsh_scenario(*self.DETS, 0.2))
        amps = draw_rows(sample_vacuum_batch, scen.n_modes, 3, 7)
        if kind == "vacuum":
            assert scen.crystal is None and apply_ops(amps, scen) is amps
        else:
            expected = pdc_transform(amps, scen.crystal)
            assert apply_ops(amps, scen).tobytes() == expected.tobytes()

    def test_crystal_needs_an_even_mode_count(self):
        # mode m pairs with mode N-1-m, so an odd N would leave the middle mode unpaired
        scen = vacuum_scenario([self.DETS[0]], n_modes=3)
        with pytest.raises(ValueError, match="even number of modes, got 3"):
            dataclasses.replace(scen, crystal=0.2)

    @pytest.mark.parametrize("builder", [pdc_scenario, chsh_scenario], ids=["pdc", "chsh"])
    def test_negative_coupling_rejected(self, builder):
        with pytest.raises(ValueError, match="non-negative"):
            builder(*self.DETS, -0.1)

    @pytest.mark.parametrize("builder", [pdc_scenario, chsh_scenario], ids=["pdc", "chsh"])
    def test_strong_coupling_warns(self, builder):
        with pytest.warns(UserWarning, match="perturbative") as record:
            builder(*self.DETS, PERTURBATIVE_G_LIMIT)
        # the warning names the line that called the builder
        assert record[0].filename == __file__

    @pytest.mark.parametrize("builder", [pdc_scenario, chsh_scenario], ids=["pdc", "chsh"])
    def test_weak_coupling_silent(self, builder):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            builder(*self.DETS, 0.29)

    @pytest.mark.parametrize("case, match", [("axis", "common detector axis"),
                                             ("n_cells", "equal element counts")],
                             ids=["axis", "n_cells"])
    @pytest.mark.parametrize("builder", [pdc_scenario, chsh_scenario], ids=["pdc", "chsh"])
    def test_detectors_must_share_axis_and_grid(self, builder, case, match):
        # the mirrored pairs are phase-matched only on one axis and equal grids
        other = (detector(n_cells=4, omega_center=0.75, axis=(1, 0, 0)) if case == "axis" else
                 detector(n_cells=8, omega_center=0.75))
        with pytest.raises(ValueError, match=match):
            builder(self.DETS[0], other, 0.1)

    @given(window=st.sampled_from([2 * math.pi * 10, 2 * math.pi * 1e3, 2 * math.pi * 1e5]),
           n_cells=st.integers(1, 64), low=st.floats(1.0, 20.0), gap=st.floats(4.5, 50.0),
           swap=st.booleans(), axis=st.sampled_from([(0, 0, 1), (1, 1, 0), (0.3, -0.2, 0.9)]),
           n_pol=st.sampled_from([1, 2]))
    @settings(max_examples=100, deadline=None)
    def test_mirrored_modes_are_phase_matched(self, window, n_cells, low, gap, swap, axis,
                                              n_pol):
        # mode m and mode N-1-m satisfy k_s + k_i = omega0 axis and
        # omega_s + omega_i = omega0, omega0 the sum of the band centers
        bandwidth = 2 * math.pi * n_cells / window
        centers = (low * bandwidth, (low + gap) * bandwidth)
        d1, d2 = (detector(n_cells=n_cells, window=window, omega_center=w, axis=axis)
                  for w in (centers[::-1] if swap else centers))
        scen = (pdc_scenario if n_pol == 1 else chsh_scenario)(d1, d2, 0.1)
        omega0 = sum(centers)
        k, omega, pol = mode_geometry(scen)
        assert np.all(np.abs(omega + omega[::-1] - omega0) <= 1e-9 * omega0)
        k_sum = k + k[::-1] - omega0 * np.asarray(d1.axis)
        assert np.all(np.linalg.norm(k_sum, axis=1) <= 1e-9 * omega0)
        assert np.all(pol + pol[::-1] == n_pol - 1)   # CHSH pairs H with V


class TestMakeMatchedDetector:
    def test_threshold_and_gain_placement(self):
        det = make_matched_detector(omega_center=1.0, window=WINDOW_1K, n_cells=64,
                                    threshold_sigma=4.0, zeta_sigma=0.5)
        assert det.threshold == pytest.approx(det.I0 + 4.0 * det.sigma0, rel=1e-12)
        assert det.zeta * det.sigma0 == pytest.approx(0.5, rel=1e-12)
        assert det.n_elements == 64
        assert det.tau == pytest.approx(WINDOW_1K / 64)

    def test_zeta_conflict_rejected(self):
        with pytest.raises(ValueError, match="at most one"):
            make_matched_detector(omega_center=1.0, window=WINDOW_1K, n_cells=8,
                                  threshold_sigma=3.0, zeta=1.0, zeta_sigma=1.0)


class TestVacuumScenario:
    def test_structure_and_calibration(self):
        dets = [detector(n_cells=16), detector(n_cells=16, omega_center=2.0)]
        scen = vacuum_scenario(dets, ["a", "b"])
        assert scen.detector_names == ("a", "b")
        assert scen.n_modes == 32
        assert scen.coincidences == ((0, 1),)
        assert scen.signal_means == (0.0, 0.0)
        assert dense_weights(scen).shape == (32, 2)
        # diagonal weights: analytic vacuum mean sum w / 2 equals I0
        for d, det in enumerate(dets):
            assert 0.5 * np.sum(scen.parts[d][1]) == pytest.approx(det.I0, rel=1e-10)

    def test_masks_are_orthogonal(self):
        dets = [detector(n_cells=8), detector(n_cells=8, omega_center=2.0)]
        scen = vacuum_scenario(dets)
        support = [set(np.nonzero(w)[0]) for w in dense_weights(scen).T]
        assert not (support[0] & support[1])

    def test_central_slice_mode_subset(self):
        det = detector(n_cells=16)
        scen = vacuum_scenario([det], n_modes=6)
        assert scen.n_modes == 6
        _, omega, _ = mode_geometry(scen)
        assert np.all(np.abs(omega - det.omega_center) <= 4 * 2 * math.pi / det.window)

    def test_identical_detectors_rejected(self):
        # two beams on the same element grid would be one set of modes counted twice
        det = detector(n_cells=8)
        with pytest.raises(ValueError, match="duplicate mode"):
            vacuum_scenario([det, detector(n_cells=8)])

    def test_duplicate_mode_rejected(self):
        # the error names the two detectors whose bands overlap, not the one between
        det = detector(n_cells=8)
        with pytest.raises(ValueError, match="duplicate mode: detectors 'a' and 'b' share"):
            vacuum_scenario([det, detector(n_cells=8, omega_center=2.0), det], ["a", "c", "b"])

    def test_half_spacing_offset_grids_rejected(self):
        # grids offset by half their spacing share no mode, yet each detector's
        # elements pick up most of the other beam: its modes fall between their sinc zeros
        window = 200 * math.pi
        a, b = (detector(n_cells=8, window=window, omega_center=w)
                for w in (1.0, 1.0 + math.pi / window))
        k_b, omega_b, _ = mode_geometry(vacuum_scenario([b]))
        resp = response_matrix(k_b, omega_b, np.ones(8), a)
        assert np.max(np.abs(resp)) > 0.5
        with pytest.raises(ValueError, match="duplicate mode"):
            vacuum_scenario([a, b])

    def test_dispersion_enforced(self):
        # k = omega * axis with the axis normalized, so |k| = omega for any axis length
        k, omega, _ = mode_geometry(vacuum_scenario([detector(n_cells=8, axis=(0.0, 3.0, 4.0))]))
        assert np.allclose(np.linalg.norm(k, axis=1), omega, rtol=1e-12, atol=0)

    def test_negative_frequency_rejected(self):
        # a band 2 pi / tau wider than 2 omega_center reaches below omega = 0
        with pytest.raises(ValueError, match="positive"):
            vacuum_scenario([detector(n_cells=8, omega_center=1.0, window=10.0)])


class TestPdcScenario:
    def _dets(self, n_cells=16):
        return (detector(n_cells=n_cells, omega_center=1.25),
                detector(n_cells=n_cells, omega_center=0.75))

    def test_pairs_are_frequency_mirrored(self):
        ds, di = self._dets()
        scen = pdc_scenario(ds, di, 0.1)
        omega0 = ds.omega_center + di.omega_center
        assert scen.crystal == 0.1 and scen.n_modes == 32
        _, omega, _ = mode_geometry(scen)
        # mode m pairs with mode 31 - m
        for a in range(16):
            assert omega[a] + omega[31 - a] == pytest.approx(omega0)

    def test_signal_means_formula(self):
        ds, di = self._dets()
        scen = pdc_scenario(ds, di, 0.2)
        excess = 0.2**2 + 0.2**4 / 8
        assert scen.signal_means[0] == pytest.approx(2 * ds.I0 * excess, rel=1e-12)
        assert scen.signal_means[1] == pytest.approx(2 * di.I0 * excess, rel=1e-12)

    def test_mismatched_windows_rejected(self):
        ds = detector(n_cells=16, omega_center=1.25)
        di = detector(n_cells=16, omega_center=0.75, window=2 * WINDOW_1K)
        with pytest.raises(ValueError, match="window"):
            pdc_scenario(ds, di, 0.1)

    def test_overlapping_bands_rejected(self):
        ds = detector(n_cells=16, omega_center=1.0)
        di = detector(n_cells=16, omega_center=1.0001)
        with pytest.raises(ValueError, match="separated"):
            pdc_scenario(ds, di, 0.1)

    def test_negative_frequency_rejected(self):
        # the idler band 2 pi / tau is wider than twice its center
        ds = detector(n_cells=8, omega_center=30.0, window=10.0)
        di = detector(n_cells=8, omega_center=1.0, window=10.0)
        with pytest.raises(ValueError, match="mode frequency must be positive"):
            pdc_scenario(ds, di, 0.1)


class TestChshScenario:
    def test_structure(self):
        d1 = detector(n_cells=4, omega_center=1.25)
        d2 = detector(n_cells=4, omega_center=0.75)
        scen = chsh_scenario(d1, d2, 0.1)
        assert scen.detector_names == ("1+", "1-", "2+", "2-")
        assert scen.coincidences == ((0, 2), (0, 3), (1, 2), (1, 3))
        assert scen.n_modes == 16          # 4 slots x 2 polarizations x 2 stations
        # a station's rotator pairs its '+' and '-' detectors' own modes;
        # together they cover the station once, disjointly
        pos = np.arange(scen.n_modes)
        idx1 = [i for index, _ in scen.parts[:2] for i in pos[index]]
        idx2 = [i for index, _ in scen.parts[2:] for i in pos[index]]
        assert sorted(idx1) == list(range(8))
        assert sorted(idx2) == list(range(8, 16))
        # station s pairs its own beam's H (pol 0) and V (pol 1) modes slot by
        # slot, under its '+' detector's weights
        assert len(scen.stations) == 2
        _, omega, pol = mode_geometry(scen)
        for s, (h, v, w) in enumerate(scen.stations):
            beam = pos[8 * s: 8 * (s + 1)]
            assert pos[h].tolist() == beam[pol[beam] == 0].tolist()
            assert pos[v].tolist() == beam[pol[beam] == 1].tolist()
            assert np.array_equal(omega[h], omega[v])
            assert np.array_equal(w, scen.parts[2 * s][1])

    def test_pdc_couples_cross_polarizations(self):
        d1 = detector(n_cells=4, omega_center=1.25)
        d2 = detector(n_cells=4, omega_center=0.75)
        scen = chsh_scenario(d1, d2, 0.1)
        _, omega, pol = mode_geometry(scen)
        # mode m pairs with mode 15 - m
        for a in range(8):
            assert pol[a] != pol[15 - a]
            assert omega[a] + omega[15 - a] == pytest.approx(2.0)

    def test_detector_masks_partition_station_modes(self):
        d1 = detector(n_cells=4, omega_center=1.25)
        d2 = detector(n_cells=4, omega_center=0.75)
        scen = chsh_scenario(d1, d2, 0.1)
        support = [set(np.nonzero(w)[0]) for w in dense_weights(scen).T]
        assert support[0] | support[1] == set(range(8))
        assert support[2] | support[3] == set(range(8, 16))
        for a in range(4):
            for b in range(a + 1, 4):
                assert not (support[a] & support[b])


WINDOW_1E5 = 2.0 * math.pi * 1e5


def oracle_scenarios(window):
    """Vacuum (full beams; central slices for two and three detectors), PDC and CHSH."""
    vac = [detector(n_cells=16, window=window),
           detector(n_cells=16, window=window, omega_center=2.0)]
    pdc = (detector(n_cells=16, window=window, omega_center=1.25),
           detector(n_cells=16, window=window, omega_center=0.75))
    return {
        "vacuum": vacuum_scenario(vac),
        "vacuum-slice": vacuum_scenario(vac, n_modes=6),
        "vacuum-3-slice": vacuum_scenario(
            vac + [detector(n_cells=16, window=window, omega_center=3.0)], n_modes=6),
        "pdc": pdc_scenario(*pdc, 0.1),
        "chsh": chsh_scenario(*pdc, 0.1),
    }


def test_mode_arrays_are_read_only_and_on_the_light_cone():
    for kind, scen in oracle_scenarios(WINDOW_1K).items():
        # only a CHSH scenario has analyzer stations
        assert (scen.stations == ()) is (kind != "chsh"), kind
        k, omega, pol = mode_geometry(scen)
        assert k.shape == (scen.n_modes, 3) and omega.shape == pol.shape == (scen.n_modes,)
        assert np.all(np.abs(np.linalg.norm(k, axis=1) - omega) <= 1e-12 * omega), kind
        assert np.all(omega > 0) and pol.dtype == np.int8 and set(pol.tolist()) <= {0, 1}
        # each detector's (k, pol) are distinct, and no two detectors share one
        keys = {(*kv, p) for kv, p in zip(k.tolist(), pol.tolist())}
        assert len(keys) == scen.n_modes, kind
        for _, w in scen.parts:
            assert not w.flags.writeable, kind
            with pytest.raises(ValueError, match="read-only"):
                w[0] = 1
    # a CHSH slot's H and V modes share k: only polarization tells them apart
    k, _, pol = mode_geometry(oracle_scenarios(WINDOW_1K)["chsh"])
    assert np.array_equal(k[0::2], k[1::2])
    assert np.all(pol[0::2] == 0) and np.all(pol[1::2] == 1)


class TestDiagonalWeightsOracle:
    """The diagonal weights against the general filtered-field geometry."""

    @pytest.mark.parametrize("window", [WINDOW_1K, WINDOW_1E5])
    def test_response_matrix_reduces_to_weights(self, window):
        for kind, scen in oracle_scenarios(window).items():
            k, omega, _ = mode_geometry(scen)
            weights = dense_weights(scen)
            scale_max = math.sqrt(weights.max())
            for d, det in enumerate(scen.detector_specs):
                own = np.nonzero(weights[:, d])[0]
                scales = np.sqrt(weights[own, d])
                resp = response_matrix(k[own], omega[own], scales, det)  # (n_el, n_own)
                # each own mode sits on exactly one element of the detector's grid
                hit = np.abs(det.element_omegas[:, None] - omega[None, own]) < 1e-3 / window
                assert np.all(hit.sum(axis=0) == 1), kind
                expected = np.zeros((det.n_elements, len(own)))
                expected[hit] = np.broadcast_to(scales, hit.shape)[hit]
                assert np.max(np.abs(resp - expected)) <= 1e-9 * scale_max, (kind, d)

    def test_intensity_batch_matches_effective_intensity(self):
        for kind, scen in oracle_scenarios(WINDOW_1K).items():
            amps = apply_ops(draw_rows(sample_vacuum_batch, scen.n_modes, 8, 5), scen)
            k, omega, _ = mode_geometry(scen)
            batch = intensity_batch(np.abs(amps) ** 2, scen.parts)
            weights = dense_weights(scen)
            assert batch.shape == (5, len(scen.detector_specs))
            for d, det in enumerate(scen.detector_specs):
                own = np.nonzero(weights[:, d])[0]
                resp = response_matrix(k[own], omega[own], np.sqrt(weights[own, d]), det)
                for r in range(5):
                    # Ibar = sum_l |Ebar_l|^2 in the general geometry
                    intensity = np.sum(np.abs(resp @ amps[r, own]) ** 2)
                    assert batch[r, d] == pytest.approx(intensity, rel=1e-12), (kind, d, r)


def batching_scenarios():
    """Vacuum past numpy's 8192-element einsum buffer; PDC and CHSH at 2048 modes."""
    pdc, chsh = ((detector(n_cells=n, window=WINDOW_1E5, omega_center=1.25),
                  detector(n_cells=n, window=WINDOW_1E5, omega_center=0.75)) for n in (1024, 512))
    return {
        "vacuum": lambda: vacuum_scenario([detector(n_cells=9000, window=WINDOW_1E5)]),
        "pdc": lambda: pdc_scenario(*pdc, 0.1),
        "chsh": lambda: chsh_scenario(*chsh, 0.1),
    }


@pytest.mark.parametrize("kind", ["vacuum", "pdc", "chsh"])
def test_intensity_batch_rows_do_not_depend_on_the_batch(kind):
    # the engine computes intensities in row tiles; a trial's value must be
    # bitwise the one it gets in any other batch
    scen = batching_scenarios()[kind]()
    amps = apply_ops(draw_rows(sample_vacuum_batch, scen.n_modes, 9, 66), scen)
    power = np.abs(amps) ** 2
    whole = intensity_batch(power, scen.parts)
    for rows in (1, 3, 8, 33):
        parts = [intensity_batch(power[s:s + rows].copy(), scen.parts)
                 for s in range(0, len(power), rows)]
        assert np.array_equal(np.concatenate(parts), whole), rows


def crystal_reference(amps, pairs, g):
    out = amps.copy()
    a = 1.0 + 0.5 * g * g
    for s, i in pairs:
        out[:, s] = a * amps[:, s] + g * np.conj(amps[:, i])
        out[:, i] = a * amps[:, i] + g * np.conj(amps[:, s])
    return out


def rotator_reference(amps, pairs, angle):
    out = amps.copy()
    c, s = math.cos(angle), math.sin(angle)
    for h, v in pairs:
        out[:, h] = c * amps[:, h] + s * amps[:, v]
        out[:, v] = -s * amps[:, h] + c * amps[:, v]
    return out


@pytest.mark.parametrize("index, pairs", [
    ((slice(0, 4), slice(4, 8)), [(j, 4 + j) for j in range(4)]),
], ids=["basic"])
@pytest.mark.parametrize("g", [0.2, -0.3])
def test_maps_equal_per_pair_loop_bitwise(index, pairs, g):
    # byte comparison, so a signed zero must come out with the loop's sign;
    # the crystal pairs mode m with mode 7 - m, the rotator the given pairs
    amps = signed_zero_amps(9, 8, seed=3)
    for part in (amps.real, amps.imag):
        assert ((part == 0) & np.signbit(part)).any() and ((part == 0) & ~np.signbit(part)).any()
    saved = amps.copy()
    mirrored = [(j, 7 - j) for j in range(4)]
    assert pdc_transform(amps, g).tobytes() == crystal_reference(amps, mirrored, g).tobytes()
    assert rotator_transform(amps, index, g).tobytes() == (
        rotator_reference(amps, pairs, g).tobytes())
    assert amps.tobytes() == saved.tobytes()


class TestSliceIndexedMaps:
    """Slice-indexed maps are bit-equal to an explicit per-pair loop."""

    def test_pdc_layout(self):
        n = 16
        scen = pdc_scenario(detector(n_cells=n, omega_center=1.25),
                            detector(n_cells=n, omega_center=0.75), 0.2)
        g = scen.crystal
        pairs = [(j, 2 * n - 1 - j) for j in range(n)]
        amps = draw_rows(sample_vacuum_batch, scen.n_modes, 4, 64)
        assert np.array_equal(pdc_transform(amps, g), crystal_reference(amps, pairs, g))

    def test_chsh_layout(self):
        n = 4
        scen = chsh_scenario(detector(n_cells=n, omega_center=1.25),
                             detector(n_cells=n, omega_center=0.75), 0.2)
        off = 2 * n
        crystal = []
        for j in range(n):
            jm = n - 1 - j
            crystal += [(2 * j, off + 2 * jm + 1), (2 * j + 1, off + 2 * jm)]
        g = scen.crystal
        amps = draw_rows(sample_vacuum_batch, scen.n_modes, 5, 64)
        out = pdc_transform(amps, g)
        assert np.array_equal(out, crystal_reference(amps, crystal, g))
        (h1, _), (v1, _), (h2, _), (v2, _) = scen.parts
        for rot, base in (((h1, v1), 0), ((h2, v2), off)):
            pairs = [(base + 2 * j, base + 2 * j + 1) for j in range(n)]
            assert np.array_equal(rotator_transform(out, rot, 0.3),
                                  rotator_reference(out, pairs, 0.3))
