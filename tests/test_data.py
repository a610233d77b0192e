import io
import tracemalloc

import numpy as np
import pytest

from edmdkit import (
    DomainEscapeWarning,
    DynamicalSystem,
    NonFiniteError,
    SnapshotPair,
    apply,
    box,
    data,
    eig,
    eigenmeasure_extract,
    evaluate_batch,
    fit_edmd,
    generate_iid,
    generate_trajectory,
    parse_dictionary,
    parse_measure,
    parse_system,
    read_snapshots_csv,
    residual_scale,
    theorem1_residual,
    write_snapshots_csv,
)
from edmdkit import dictionary
from edmdkit.dictionary import _BLOCK


class TestGenerateIid:
    def test_identity_map_pairs(self):
        system = parse_system("identity")
        pair = generate_iid(system, parse_measure("uniform:-1,1"), 20, seed=2)
        assert pair.X.tobytes() == pair.Y.tobytes()

    def test_logistic_images(self):
        system = parse_system("logistic")
        pair = generate_iid(system, parse_measure("uniform:-1,1"), 3, seed=9)
        assert pair.Y == pytest.approx(2 * pair.X**2 - 1, abs=1e-14)

    def test_seed_determinism(self):
        system = parse_system("logistic")
        mu = parse_measure("uniform:-1,1")
        a = generate_iid(system, mu, 100, seed=4)
        b = generate_iid(system, mu, 100, seed=4)
        assert a.X.tobytes() == b.X.tobytes()
        assert a.Y.tobytes() == b.Y.tobytes()
        assert a.provenance == b.provenance


class TestGenerateTrajectory:
    def test_identity_repeats_x0(self):
        pair = generate_trajectory(parse_system("identity"), [0.4], 6)
        assert np.all(pair.X == 0.4)
        assert np.all(pair.Y == 0.4)

    def test_rotation_visits_equispaced_points(self):
        m = 8
        omega = 2 * np.pi / m
        pair = generate_trajectory(parse_system(f"rotation:omega={omega}"), [0.0], m)
        expected = np.sort((omega * np.arange(m)) % (2 * np.pi))
        assert np.sort(pair.X[0]) == pytest.approx(expected, abs=1e-12)

    def test_logistic_first_states(self):
        pair = generate_trajectory(parse_system("logistic"), [0.3], 3)
        assert pair.X[0] == pytest.approx([0.3, -0.82, 0.3448])

    def test_shift_structure_exact(self):
        pair = generate_trajectory(parse_system("logistic"), [0.3], 50)
        assert pair.Y[:, :-1].tobytes() == pair.X[:, 1:].tobytes()

    @pytest.mark.parametrize("spec, x0", [("logistic", 0.31), ("rotation:omega=0.8378", 0.7)])
    def test_orbit_is_a_loop_of_apply(self, spec, x0):
        # bit for bit the states of stepping one state at a time, by the
        # library's apply and by the plain map
        system = parse_system(spec)
        pair = generate_trajectory(system, [x0], 400)
        by_apply, plain = [np.array([x0])], [x0]
        for _ in range(400):
            by_apply.append(apply(system, by_apply[-1]))
            x = plain[-1]
            plain.append(2.0 * x * x - 1.0 if spec == "logistic" else (x + 0.8378) % (2 * np.pi))
        states = np.array(by_apply).T
        assert pair.X.tobytes() == states[:, :-1].tobytes()
        assert pair.Y.tobytes() == states[:, 1:].tobytes()
        assert pair.X.tobytes() == np.array([plain[:-1]]).tobytes()
        assert pair.Y[:, :-1].tobytes() == pair.X[:, 1:].tobytes()

    def test_overflowing_user_map_raises(self):
        system = DynamicalSystem("grow", box(-1.0, 1.0), forward=lambda x: 1e200 * x,
                                 forward_batch=lambda x: 1e200 * x)
        with pytest.warns(DomainEscapeWarning), np.errstate(over="ignore"), \
                pytest.raises(NonFiniteError, match=r"grow: the image of \[5.e\+199\] is not finite"):
            generate_trajectory(system, [0.5], 5)

    def test_trajectory_provenance(self):
        pair = generate_trajectory(parse_system("logistic"), [0.3], 5)
        assert pair.is_trajectory


class TestSnapshotPairShape:
    def test_no_snapshots(self):
        with pytest.raises(ValueError, match="M >= 1"):
            SnapshotPair(np.zeros((1, 0)), np.zeros((1, 0)), "iid:seed=0;M=0")

    def test_x_and_y_of_different_shapes(self):
        with pytest.raises(ValueError, match="one shape"):
            SnapshotPair(np.zeros((1, 3)), np.zeros((1, 2)), "iid:seed=0;M=3")

    def test_reader_rejects_an_empty_table(self):
        with pytest.raises(ValueError, match="M >= 1"):
            read_snapshots_csv(io.StringIO("d,M,provenance\n1,0,iid:seed=0;M=0\n"))


class TestCsvRoundTrip:
    def test_snapshots_bitexact(self):
        pair = generate_iid(parse_system("logistic"), parse_measure("uniform:-1,1"), 17, 3)
        buf = io.StringIO()
        write_snapshots_csv(pair, buf)
        buf.seek(0)
        back = read_snapshots_csv(buf)
        assert back.X.tobytes() == pair.X.tobytes()
        assert back.Y.tobytes() == pair.Y.tobytes()
        assert back.provenance == pair.provenance


class TestOneEvaluation:
    """A pair's psi(X), psi(Y) are evaluated once and read by every sampled quantity."""

    LOGISTIC = parse_system("logistic")
    ROTATION = parse_system("rotation:omega=0.8378")

    def iid(self):
        return generate_iid(self.LOGISTIC, parse_measure("uniform:-1,1"), 500, seed=3)

    def trajectory(self):
        return generate_trajectory(self.ROTATION, [0.7], 15)

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """Every point set handed to the dictionary, in call order: psi(X) is
        evaluated in ``dictionary._reduce``, psi(Y) by the target ``data`` hands it."""
        seen = []
        original = dictionary.evaluate_batch

        def counting(dic, points):
            seen.append(points)
            return original(dic, points)

        for module in (data, dictionary):
            monkeypatch.setattr(module, "evaluate_batch", counting)
        return seen

    def test_iid_pair_evaluated_once(self, evaluated):
        dic = parse_dictionary("legendre:6")
        pair = self.iid()
        k = fit_edmd(pair, dic)
        res = theorem1_residual(k, pair, dic)
        scale = residual_scale(pair, dic)
        assert len(evaluated) == 2
        assert np.array_equal(evaluated[0], pair.X) and np.array_equal(evaluated[1], pair.Y)
        # the same numbers as on pairs that were never evaluated before
        assert np.array_equal(k.A, fit_edmd(self.iid(), dic).A)
        assert res == theorem1_residual(k, self.iid(), dic)
        assert scale == residual_scale(self.iid(), dic)

    def test_trajectory_pair_evaluated_once(self, evaluated):
        dic = parse_dictionary("fourier:7", self.ROTATION.domain)
        pair = self.trajectory()
        k = fit_edmd(pair, dic)
        decomp = eig(k)
        measures = [eigenmeasure_extract(k, decomp, j, pair) for j in range(k.size)]
        # the extractions evaluate phi on the N atoms themselves, not through the pair
        assert len(evaluated) == 2
        assert np.array_equal(evaluated[0], pair.X) and np.array_equal(evaluated[1], pair.Y)
        for j, nu in enumerate(measures):
            fresh = eigenmeasure_extract(k, decomp, j, self.trajectory())
            assert np.array_equal(nu.weights, fresh.weights)
            assert nu.tail_value == fresh.tail_value

    def test_new_dictionary_replaces_the_slot(self):
        pair = self.iid()
        for spec in ["legendre:4", "legendre:6", "legendre:4"]:
            dic = parse_dictionary(spec)
            assert np.array_equal(fit_edmd(pair, dic).A, fit_edmd(self.iid(), dic).A)

    def test_data_and_cached_psi_are_read_only(self):
        pair = self.iid()
        r, _, _ = data._reduction(pair, parse_dictionary("legendre:4"))
        for array in [pair.X, pair.Y, r]:
            with pytest.raises(ValueError):
                array[0, 0] = 0.5

    def test_blocks_cover_the_pair_in_order(self, evaluated):
        # 20000 snapshots are blocks of X and of Y, alternating, ``_BLOCK``
        # columns each but the last, evaluated once each and in order; the
        # maxima behind residual_scale keep their bits
        dic = parse_dictionary("legendre:6")
        pair = generate_iid(self.LOGISTIC, parse_measure("uniform:-1,1"), 20_000, seed=4)
        k = fit_edmd(pair, dic)
        scale = residual_scale(pair, dic)
        widths = [min(_BLOCK, 20_000 - i) for i in range(0, 20_000, _BLOCK)]
        assert len(widths) > 2 and widths[-1] < _BLOCK
        assert [p.shape[1] for p in evaluated] == [w for w in widths for _ in "XY"]
        assert np.array_equal(np.concatenate(evaluated[0::2], axis=1), pair.X)
        assert np.array_equal(np.concatenate(evaluated[1::2], axis=1), pair.Y)
        psix = evaluate_batch(dic, pair.X)
        psiy = evaluate_batch(dic, pair.Y)
        assert scale == max(1.0, float(np.max(np.abs(psiy)) * np.max(np.abs(psix))))
        ref, *_ = np.linalg.lstsq(psix.T, psiy.T, rcond=None)
        assert np.linalg.norm(k.A - ref.T) <= 1e-12 * np.linalg.norm(ref)

    def test_reduction_memory_does_not_grow_with_m(self):
        # streamed: the traced peak is a few QR steps of (2N + _BLOCK) x 2N
        # doubles whatever M is, never an N x M slot (seen: 2.94 steps, 6.7 MB
        # at N = 65)
        dic = parse_dictionary("legendre:64")
        step = (2 * dic.size + _BLOCK) * 2 * dic.size * 8
        peaks = []
        for m in [4 * _BLOCK, 16 * _BLOCK]:
            pair = generate_iid(self.LOGISTIC, parse_measure("uniform:-1,1"), m, seed=5)
            tracemalloc.start()
            try:
                data._reduction(pair, dic)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]
        assert max(peaks) <= 4 * step
