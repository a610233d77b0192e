import io

import numpy as np
import pytest

from edmdkit import (
    generate_iid,
    generate_trajectory,
    parse_measure,
    parse_system,
    read_snapshots_csv,
    write_snapshots_csv,
)


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

    def test_trajectory_provenance(self):
        pair = generate_trajectory(parse_system("logistic"), [0.3], 5)
        assert pair.is_trajectory


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
