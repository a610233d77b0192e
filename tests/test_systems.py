import math
import warnings

import numpy as np
import pytest

from edmdkit import (
    ConfigError,
    DomainEscapeWarning,
    DynamicalSystem,
    NonFiniteError,
    apply,
    apply_batch,
    box,
    gauss_rule,
    gaussian,
    parse_measure,
    parse_system,
    sample,
    uniform,
)

from edmdkit.systems import _leggauss

from _oracles import leggauss_recurrence, uniform_moment

TWO_PI = 2.0 * math.pi


class TestApply:
    def test_logistic_at_zero(self):
        system = parse_system("logistic")
        assert apply(system, [0.0])[0] == -1.0

    def test_logistic_fixed_point(self):
        system = parse_system("logistic")
        assert apply(system, [1.0])[0] == 1.0

    def test_rotation_shifts_mod_2pi(self):
        omega = 0.9
        system = parse_system(f"rotation:omega={omega}")
        assert apply(system, [0.5])[0] == pytest.approx(0.5 + omega)
        wrapped = apply(system, [TWO_PI - 0.1])[0]
        assert wrapped == pytest.approx((TWO_PI - 0.1 + omega) % TWO_PI)

    def test_dimension_mismatch(self):
        system = parse_system("logistic")
        with pytest.raises(ValueError):
            apply(system, [0.1, 0.2])

    def test_escape_is_warning_not_error(self):
        system = parse_system("affine:a=3,b=0")
        with pytest.warns(DomainEscapeWarning):
            y = apply(system, [0.9])
        assert y[0] == pytest.approx(2.7)

    @pytest.mark.parametrize("spec", ["logistic", "identity", "rotation:omega=0.8378",
                                      "affine:a=0.5,b=0.25", "forward-only"])
    def test_single_state_is_batch_on_one_column(self, spec):
        if spec == "forward-only":
            # no forward_batch: apply_batch falls back to forward per column
            system = DynamicalSystem("forward-only", box(-1.0, 1.0),
                                     forward=lambda x: np.sin(3.0 * x) * 0.9)
        else:
            system = parse_system(spec)
        pts = sample(uniform(system.domain), 50, seed=11)
        batch = apply_batch(system, pts)
        for j in range(pts.shape[1]):
            x = pts[:, j]
            assert apply(system, x).tobytes() == apply_batch(system, x[:, None])[:, 0].tobytes()
            assert apply(system, x).tobytes() == batch[:, j].tobytes()

    def test_non_finite_image_raises(self):
        system = parse_system("affine:a=3,b=0")
        with pytest.warns(DomainEscapeWarning), pytest.raises(NonFiniteError), \
                np.errstate(over="ignore"):
            apply(system, [1e308])
        assert issubclass(NonFiniteError, ValueError)

    def test_batch_non_finite_image_warns_then_raises(self):
        # apply_batch is the checked step: one escape report, then the map's error
        system = DynamicalSystem("grow", box(-1.0, 1.0), forward=lambda x: 1e200 * x,
                                 forward_batch=lambda x: 1e200 * x)
        with warnings.catch_warnings(record=True) as caught, np.errstate(over="ignore"):
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteError,
                               match=r"^grow: the image of \[5.e\+199\] is not finite$"):
                apply_batch(system, [[0.0, 5e199, 1e-201]])
        assert [(w.category, str(w.message)) for w in caught] == [
            (DomainEscapeWarning, "grow: 1 of 3 images left the domain")]


class TestGaussRule:
    def test_order_one_is_midpoint(self):
        rule = gauss_rule(uniform(box(-1.0, 1.0)), 1)
        assert rule.nodes[0] == pytest.approx([0.0], abs=1e-15)
        assert rule.weights[0] == pytest.approx(1.0)

    def test_order_two_nodes(self):
        rule = gauss_rule(uniform(box(-1.0, 1.0)), 2)
        assert sorted(rule.nodes[0]) == pytest.approx(
            [-0.5773502691896257, 0.5773502691896257]
        )
        assert rule.weights == pytest.approx([0.5, 0.5])

    def test_x8_moment_order_five(self):
        rule = gauss_rule(uniform(box(-1.0, 1.0)), 5)
        val = float(np.sum(rule.weights * rule.nodes[0] ** 8))
        assert val == pytest.approx(1.0 / 9.0, abs=1e-15)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13])
    def test_exactness_up_to_degree(self, order):
        rule = gauss_rule(uniform(box(-1.0, 1.0)), order)
        for k in range(2 * order):
            val = float(np.sum(rule.weights * rule.nodes[0] ** k))
            assert abs(val - uniform_moment(k)) <= 1e-13

    def test_weights_normalized(self):
        for measure in [uniform(box(-2.0, 5.0)), gaussian(1.0, 2.0)]:
            rule = gauss_rule(measure, 12)
            assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-14)
            assert np.all(rule.weights >= 0)

    def test_gaussian_moments(self):
        rule = gauss_rule(gaussian(1.5, 0.7), 8)
        x = rule.nodes[0]
        assert float(np.sum(rule.weights * x)) == pytest.approx(1.5, abs=1e-12)
        assert float(np.sum(rule.weights * (x - 1.5) ** 2)) == pytest.approx(0.7, abs=1e-12)

    def test_circle_rule_exact_for_trig(self):
        from edmdkit import circle

        rule = gauss_rule(uniform(circle(1)), 16)
        for m in range(1, 16):
            val = np.sum(rule.weights * np.exp(1j * m * rule.nodes[0]))
            assert abs(val) <= 1e-14

    def test_tensorized_2d(self):
        rule = gauss_rule(uniform(box([-1.0, 0.0], [1.0, 2.0])), 4)
        assert rule.nodes.shape == (2, 16)
        val = float(np.sum(rule.weights * rule.nodes[0] ** 2 * rule.nodes[1]))
        assert val == pytest.approx((1.0 / 3.0) * 1.0, abs=1e-13)


    @pytest.mark.parametrize("order", [371, 400])
    def test_gaussian_weight_overflow_is_config_error(self, order):
        # numpy's hermgauss returns zero weights at 371 nodes and NaN from 372
        with pytest.raises(ConfigError):
            gauss_rule(gaussian(0.0, 1.0), order)


SMALL_ORDERS = [1, 2, 3, 20, 21, 22, 64, 127, 128]


class TestLegendreNodes:
    """The one O(order) generator, at every order, against Newton on the
    three-term recurrence and against numpy's eigensolver."""

    @pytest.mark.parametrize("order", [*SMALL_ORDERS, 129, 256, 257, 1000, 4096])
    def test_matches_recurrence(self, order):
        x, w = _leggauss(order)
        x_ref, w_ref = leggauss_recurrence(order)
        assert float(np.max(np.abs(x - x_ref))) <= 1e-15
        assert float(np.max(np.abs(w - w_ref))) <= 1e-15

    @pytest.mark.parametrize("order", SMALL_ORDERS)
    def test_matches_numpy(self, order):
        # numpy's weights are off by up to 9.5e-15 here, so only 1e-14
        x, w = _leggauss(order)
        x_ref, w_ref = np.polynomial.legendre.leggauss(order)
        assert float(np.max(np.abs(x - x_ref))) <= 1e-14
        assert float(np.max(np.abs(w - w_ref))) <= 1e-14

    @pytest.mark.parametrize("order", [1, 2, 21, 128, 129, 256, 257, 1000, 4097, 16384])
    def test_symmetric_ascending_positive(self, order):
        x, w = _leggauss(order)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        if order % 2:
            middle = x[order // 2]
            assert middle == 0.0 and not np.signbit(middle)
        assert np.all(np.diff(x) > 0)
        assert np.all(w > 0)

    def test_moments_at_escalation_cap(self):
        x, w = _leggauss(2**14)
        assert abs(float(np.sum(w)) - 2.0) <= 1e-14
        for k in range(41):
            assert abs(float(np.sum(w * x**k)) - 2.0 * uniform_moment(k)) <= 1e-14

    @pytest.mark.parametrize("order", [64, 256])
    def test_cached_arrays_are_read_only(self, order):
        x, w = _leggauss(order)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestSample:
    def test_support_containment(self):
        measure = parse_measure("uniform:-1,1")
        pts = sample(measure, 4, seed=7)
        assert pts.shape == (1, 4)
        assert np.all((pts >= -1) & (pts <= 1))

    def test_determinism_bit_for_bit(self):
        measure = parse_measure("uniform:-1,1")
        a = sample(measure, 50, seed=123)
        b = sample(measure, 50, seed=123)
        assert a.tobytes() == b.tobytes()
        c = sample(measure, 50, seed=124)
        assert a.tobytes() != c.tobytes()

    def test_empirical_mean_clt_bound(self):
        # 3 sigma / sqrt(M) with sigma^2 = 1/3 is under the stated 0.02
        pts = sample(parse_measure("uniform:-1,1"), 10**5, seed=0)
        assert abs(float(np.mean(pts))) <= 0.02

    def test_empirical_second_moment(self):
        pts = sample(parse_measure("uniform:-1,1"), 10**5, seed=1)
        assert abs(float(np.mean(pts**2)) - 1.0 / 3.0) <= 0.02

    def test_gaussian_sample_moments(self):
        pts = sample(parse_measure("gaussian:2,0.25"), 10**5, seed=5)
        assert float(np.mean(pts)) == pytest.approx(2.0, abs=0.01)
        assert float(np.var(pts)) == pytest.approx(0.25, abs=0.01)


class TestParsing:
    def test_unknown_system(self):
        with pytest.raises(ConfigError):
            parse_system("henon")

    def test_malformed_rotation(self):
        with pytest.raises(ConfigError):
            parse_system("rotation:om=1")

    def test_unknown_measure(self):
        with pytest.raises(ConfigError):
            parse_measure("cauchy:0,1")

    def test_uniform_needs_ordered_bounds(self):
        with pytest.raises(ConfigError):
            parse_measure("uniform:1,-1")
