import io

import numpy as np
import pytest

from edmdkit import (
    RankDeficiencyError,
    empirical_project,
    evaluate_batch,
    gauss_rule,
    generate_iid,
    generate_trajectory,
    parse_dictionary,
    parse_measure,
    parse_system,
    read_snapshots_csv,
    uniform,
    write_snapshots_csv,
)

from _oracles import quadrature_projection


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


class TestEmpiricalProject:
    def test_basis_element_projects_to_coordinate(self):
        dic = parse_dictionary("legendre:5")
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (1, 200))
        f = evaluate_batch(dic, pts)[2]
        c = empirical_project(dic, pts, f)
        expected = np.zeros(6)
        expected[2] = 1.0
        assert np.max(np.abs(c - expected)) <= 1e-10

    def test_mean_onto_constant_span(self):
        dic = parse_dictionary("monomial:0")
        pts = np.array([[-1.0, 0.0, 1.0]])
        c = empirical_project(dic, pts, pts[0] ** 2)
        assert c[0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_monte_carlo_matches_quadrature_oracle(self):
        dic = parse_dictionary("legendre:8")
        rng = np.random.default_rng(21)
        pts = rng.uniform(-1, 1, (1, 10**4))
        c_mc = empirical_project(dic, pts, pts[0] ** 4)
        rule = gauss_rule(uniform(dic.domain), 64)
        c_quad = quadrature_projection(dic, rule, rule.nodes[0] ** 4)
        assert np.max(np.abs(c_mc - c_quad)) <= 5e-2

    def test_idempotence(self):
        dic = parse_dictionary("legendre:6")
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, (1, 300))
        c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        f = c.conj() @ evaluate_batch(dic, pts)
        back = empirical_project(dic, pts, f)
        assert np.max(np.abs(back - c)) <= 1e-10

    def test_residual_orthogonality(self):
        dic = parse_dictionary("legendre:5")
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, (1, 500))
        f = np.sin(3 * pts[0])
        c = empirical_project(dic, pts, f)
        psi = evaluate_batch(dic, pts)
        resid = c.conj() @ psi - f
        defect = np.abs(psi.conj() @ resid) / pts.shape[1]
        scale = max(1.0, float(np.max(np.abs(f))))
        assert np.max(defect) <= 1e-10 * scale

    def test_rank_deficiency_raises_with_condition(self):
        dic = parse_dictionary("legendre:4")
        pts = np.array([[0.3, 0.3, 0.3]])  # repeated atom: Gram has rank one
        with pytest.raises(RankDeficiencyError) as info:
            empirical_project(dic, pts, np.ones(3))
        assert info.value.condition > 1e8

    def test_quadrature_weights_variant(self):
        dic = parse_dictionary("legendre:4")
        rule = gauss_rule(uniform(dic.domain), 16)
        c = empirical_project(dic, rule.nodes, rule.nodes[0] ** 2, weights=rule.weights)
        oracle = quadrature_projection(dic, rule, rule.nodes[0] ** 2)
        assert np.max(np.abs(c - oracle)) <= 1e-13


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
