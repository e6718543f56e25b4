"""Knot placement, basis evaluation, and stacked design assembly."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvcm import LongitudinalDataset, gen_scenario2
from tvcm import basis as basis_module
from tvcm.basis import (
    BasisFamily,
    BasisSpec,
    DesignBundle,
    basis_matrix,
    build_design,
    coefficient_curve,
    default_bandwidth,
    make_spec,
    place_knots_equal,
    place_knots_quantile,
    split_alpha,
)
from tvcm.errors import KnotError

from conftest import single_subject
from oracles import stacked_design


# ---------------------------------------------------------------------------
# Knot placement and bandwidth
# ---------------------------------------------------------------------------


class TestKnotPlacement:
    def test_equal_unit_interval(self):
        assert place_knots_equal((0.0, 1.0), 3) == (0.25, 0.5, 0.75)

    def test_equal_zero_knots(self):
        assert place_knots_equal((0.0, 1.0), 0) == ()

    def test_equal_wide_domain(self):
        assert place_knots_equal((0.0, 120.0), 4) == (24.0, 48.0, 72.0, 96.0)

    def test_equal_degenerate_domain(self):
        with pytest.raises(KnotError):
            place_knots_equal((0.5, 0.5), 2)

    def test_quantile_median(self):
        assert place_knots_quantile(np.arange(11.0), 1) == (5.0,)

    def test_quantile_uniform_grid(self):
        got = place_knots_quantile(np.linspace(0.0, 1.0, 101), 3)
        np.testing.assert_allclose(got, (0.25, 0.5, 0.75))

    def test_quantile_interpolates(self):
        # quartiles of four points use linear interpolation between order stats
        got = place_knots_quantile([0.0, 1.0, 2.0, 3.0], 1)
        np.testing.assert_allclose(got, (1.5,))

    def test_quantile_ties_rejected(self):
        with pytest.raises(KnotError):
            place_knots_quantile([0.0, 1.0, 1.0, 1.0, 1.0, 2.0], 3)

    def test_default_bandwidth_tracks_spacing(self):
        assert default_bandwidth((0.0, 1.0), 3) == 0.25
        assert default_bandwidth((0.0, 120.0), 4) == 24.0
        assert default_bandwidth((0.5, 0.5), 3) == 1.0

    def test_quantile_knots_far_apart_warn_nothing(self):
        """Knots whose difference overflows are ordered by comparing neighbours."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert place_knots_quantile([-1e308] * 3 + [1e308] * 3, 2) == (-1e308, 1e308)

    def test_overflowing_domain_width_is_knot_error(self):
        """Finite bounds whose width b - a overflows: equal knots and the
        default radial bandwidth raise KnotError naming the domain."""
        domain = (-1e308, 1e308)
        builds = (lambda: place_knots_equal(domain, 1), lambda: default_bandwidth(domain, 0),
                  lambda: make_spec("radial", 0, 0, domain))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in builds:
                with pytest.raises(KnotError, match=r"time domain \(-1e\+308, 1e\+308\)"):
                    build()


# ---------------------------------------------------------------------------
# Spec validation and serialization
# ---------------------------------------------------------------------------


class TestBasisSpec:
    def test_n_terms(self):
        spec = make_spec("radial", 2, 3, (0.0, 1.0))
        assert spec.n_terms == 6

    def test_knots_must_increase(self):
        with pytest.raises(ValueError):
            BasisSpec(BasisFamily.RADIAL, 1, (0.5, 0.5), 0.1)

    def test_radial_requires_bandwidth(self):
        with pytest.raises(ValueError):
            BasisSpec(BasisFamily.RADIAL, 1, (0.5,), None)

    def test_tpower_forbids_bandwidth(self):
        with pytest.raises(ValueError):
            BasisSpec(BasisFamily.TPOWER, 1, (0.5,), 0.1)

    def test_dict_round_trip(self):
        for family in ("radial", "tpower"):
            spec = make_spec(family, 2, 2, (0.0, 1.0))
            again = BasisSpec.from_dict(spec.to_dict())
            assert again == spec

    def test_tpower_dict_has_no_bandwidth(self):
        spec = make_spec("tpower", 2, 1, (0.0, 1.0))
        assert "bandwidth" not in spec.to_dict()


class TestMakeSpec:
    def test_quantile_placement_uses_the_times(self):
        times = [0.0, 0.1, 0.2, 0.3, 1.0]
        spec = make_spec("radial", 2, 1, (0.0, 1.0), placement="quantile",
                         times=times)
        assert spec.knots == place_knots_quantile(times, 1) == (0.2,)
        # the default bandwidth still follows the equal spacing of the domain
        assert spec.bandwidth == default_bandwidth((0.0, 1.0), 1) == 0.5

    def test_quantile_zero_knots_is_the_equal_spec(self):
        assert (make_spec("tpower", 1, 0, (0.0, 1.0), placement="quantile",
                          times=[0.3, 0.4])
                == make_spec("tpower", 1, 0, (0.0, 1.0)))

    def test_bandwidth_override(self):
        spec = make_spec("radial", 2, 3, (0.0, 1.0), 0.1)
        assert spec.knots == place_knots_equal((0.0, 1.0), 3)
        assert spec.bandwidth == 0.1

    def test_quantile_needs_times(self):
        with pytest.raises(ValueError, match="times"):
            make_spec("radial", 2, 2, (0.0, 1.0), placement="quantile")

    def test_unknown_placement(self):
        with pytest.raises(ValueError, match="placement"):
            make_spec("radial", 2, 2, (0.0, 1.0), placement="random")

    def test_tpower_bandwidth_names_both_options(self):
        with pytest.raises(ValueError, match="bandwidth.*tpower"):
            make_spec("tpower", 2, 2, (0.0, 1.0), 0.5)


# ---------------------------------------------------------------------------
# Basis evaluation
# ---------------------------------------------------------------------------


class TestEvaluation:
    def test_radial_row_at_knot(self):
        """At t equal to the knot the kernel term is exp(0) = 1 regardless
        of bandwidth, and the polynomial part is (1, t, t^2)."""
        for h in (0.1, 0.25, 3.0):
            spec = BasisSpec(BasisFamily.RADIAL, 2, (0.5,), h)
            np.testing.assert_allclose(basis_matrix(spec, [0.5])[0],
                                       [1.0, 0.5, 0.25, 1.0])

    def test_radial_one_bandwidth_away(self):
        spec = BasisSpec(BasisFamily.RADIAL, 0, (0.5,), 0.25)
        np.testing.assert_allclose(basis_matrix(spec, [0.75])[0],
                                   [1.0, math.exp(-1.0)])

    def test_radial_kernel_symmetry(self):
        # knot and offsets chosen exactly representable so |t - kappa| matches
        spec = BasisSpec(BasisFamily.RADIAL, 1, (0.5,), 0.25)
        for delta in (0.0625, 0.125, 0.375):
            left = basis_matrix(spec, [0.5 - delta])[0][-1]
            right = basis_matrix(spec, [0.5 + delta])[0][-1]
            assert left == right

    def test_tpower_above_knot(self):
        spec = BasisSpec(BasisFamily.TPOWER, 2, (0.5,), None)
        np.testing.assert_allclose(basis_matrix(spec, [0.7])[0],
                                   [1.0, 0.7, 0.49, 0.2**2])

    def test_tpower_below_knot(self):
        spec = BasisSpec(BasisFamily.TPOWER, 2, (0.5,), None)
        np.testing.assert_allclose(basis_matrix(spec, [0.3])[0], [1.0, 0.3, 0.09, 0.0])

    def test_tpower_degree_zero_is_right_continuous_step(self):
        spec = BasisSpec(BasisFamily.TPOWER, 0, (0.5,), None)
        assert basis_matrix(spec, [0.5 - 1e-12])[0][-1] == 0.0
        assert basis_matrix(spec, [0.5])[0][-1] == 1.0
        assert basis_matrix(spec, [0.7])[0][-1] == 1.0

    def test_tpower_smoothness_at_knot(self):
        """Degree-g hinge terms keep g-1 continuous derivatives across the
        knot; the g-th derivative jumps."""
        kappa = 0.5
        eps = 1e-6
        for g in (2, 3):
            spec = BasisSpec(BasisFamily.TPOWER, g, (kappa,), None)

            def hinge(t):
                return basis_matrix(spec, [t])[0][-1]

            # value continuous
            assert abs(hinge(kappa + eps) - hinge(kappa - eps)) < 1e-5 ** (g - 1)
            # derivatives up to g-1 continuous, order g jumps by g!
            for order in range(1, g + 1):
                h = 1e-3
                grid = np.arange(order + 1)
                coef = [(-1) ** (order - i) * math.comb(order, i) for i in grid]

                def deriv(t0):
                    vals = [hinge(t0 + i * h) for i in grid]
                    return sum(c * v for c, v in zip(coef, vals)) / h**order

                jump = deriv(kappa) - deriv(kappa - (order + 1) * h)
                if order < g:
                    assert abs(jump) < 0.05
                else:
                    assert abs(jump - math.factorial(g)) < 0.05 * math.factorial(g)

    def test_matrix_matches_rowwise_eval(self):
        spec = make_spec("radial", 2, 3, (0.0, 1.0))
        t = np.linspace(0.0, 1.0, 9)
        M = basis_matrix(spec, t)
        for i, ti in enumerate(t):
            np.testing.assert_array_equal(M[i], basis_matrix(spec, [ti])[0])


# ---------------------------------------------------------------------------
# Stacked design
# ---------------------------------------------------------------------------


def _two_subject_data():
    return LongitudinalDataset(("a", "b"), [3, 2], [0.1, 0.2, 0.3, 0.1, 0.4],
                               [1.0, 1.5, 2.0, 0.0, 0.5], np.full((5, 1), 2.0),
                               time_domain=(0.0, 1.0))


class TestBuildDesign:
    def test_caller_arrays_stay_writeable(self):
        """A bundle freezes copies that it owns: the caller's arrays stay
        writeable, and writing to them leaves the bundle unchanged."""
        Z, y, weights = np.arange(6.0).reshape(3, 2), np.ones(3), np.full(3, 0.5)
        bundle = DesignBundle(Z, y, weights, (2,), ())
        for mine, theirs in ((Z, bundle.Z), (y, bundle.y), (weights, bundle.weights)):
            assert not theirs.flags.writeable
            before = theirs.copy()
            mine[0] = 9.0
            np.testing.assert_array_equal(theirs, before)

    def test_intercept_only_rows_are_basis_rows(self):
        data = single_subject([0.2, 0.5, 0.8], [1.0, 2.0, 3.0])
        spec = make_spec("radial", 2, 1, data.time_domain)
        bundle = build_design(data, (spec,))
        np.testing.assert_array_equal(bundle.Z, basis_matrix(spec, data.times))

    def test_covariate_block_scales_basis(self):
        data = _two_subject_data()
        specs = (make_spec("tpower", 0, 0, data.time_domain),
                 make_spec("tpower", 0, 0, data.time_domain))
        bundle = build_design(data, specs)
        # intercept block is all ones, covariate block is x1 = 2 everywhere
        np.testing.assert_array_equal(bundle.Z[:, 0], 1.0)
        np.testing.assert_array_equal(bundle.Z[:, 1], 2.0)

    def test_shape_and_block_dims(self):
        data = _two_subject_data()
        specs = (make_spec("radial", 2, 0, data.time_domain),
                 make_spec("radial", 2, 1, data.time_domain))
        bundle = build_design(data, specs)
        assert bundle.Z.shape == (5, 7)
        assert bundle.block_dims == (3, 4)
        assert bundle.n_obs == 5
        assert bundle.n_params == 7

    def test_default_weights_are_subject_uniform(self):
        bundle = build_design(_two_subject_data(),
                              (make_spec("radial", 1, 0, (0.0, 1.0)),
                               make_spec("radial", 1, 0, (0.0, 1.0))))
        np.testing.assert_allclose(bundle.weights,
                                   [1 / 6, 1 / 6, 1 / 6, 0.25, 0.25])

    def test_spec_count_must_match_covariates(self):
        data = _two_subject_data()
        with pytest.raises(ValueError):
            build_design(data, (make_spec("radial", 1, 0, data.time_domain),))

    def test_knots_outside_domain_rejected(self):
        data = single_subject([0.2, 0.5, 0.8], [1.0, 2.0, 3.0])
        spec = BasisSpec(BasisFamily.RADIAL, 1, (2.0,), 0.2)
        with pytest.raises(KnotError):
            build_design(data, (spec,))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)),
                    min_size=1, max_size=4))
    def test_column_count_property(self, shapes):
        """Total columns are sum over coefficients of k_r + g_r + 1."""
        n_cov = len(shapes) - 1
        t = np.linspace(0.05, 0.95, 6)
        data = LongitudinalDataset(("a",), [6], t, np.zeros(6),
                                   np.ones((6, n_cov)), time_domain=(0.0, 1.0))
        specs = tuple(make_spec("tpower", g, k, data.time_domain)
                      for g, k in shapes)
        bundle = build_design(data, specs)
        expected = sum(k + g + 1 for g, k in shapes)
        assert bundle.Z.shape == (6, expected)
        assert bundle.block_dims == tuple(k + g + 1 for g, k in shapes)

    @pytest.mark.parametrize("specs", [
        (("tpower", 2, 4),) * 3,
        (("radial", 2, 3), ("radial", 1, 0), ("radial", 2, 3)),
        (("tpower", 0, 3), ("tpower", 0, 0), ("tpower", 0, 3)),
        (("radial", 2, 5),),
    ], ids=["repeated", "distinct", "tpower-degree-0", "no-covariates"])
    def test_matches_stacked_products(self, specs, monkeypatch):
        """Bit for bit the concatenated products, with one basis evaluation per distinct spec."""
        data, _ = gen_scenario2(30, np.random.default_rng(5))
        if len(specs) == 1:
            data = LongitudinalDataset(data.subject_ids, data.counts, data.times,
                                       data.responses, np.empty((data.n_obs, 0)))
        specs = tuple(make_spec(f, g, k, data.time_domain) for f, g, k in specs)
        calls = []
        evaluate = basis_module.basis_matrix
        monkeypatch.setattr(basis_module, "basis_matrix",
                            lambda spec, t: (calls.append(spec), evaluate(spec, t))[1])
        Z = build_design(data, specs).Z
        assert len(calls) == len(set(specs))
        want = stacked_design(data, specs)
        assert Z.shape == want.shape and Z.tobytes() == want.tobytes()


class TestAlphaBlocks:
    def test_split_alpha_slices(self):
        alpha = np.arange(7.0)
        blocks = split_alpha(alpha, (3, 4))
        np.testing.assert_array_equal(blocks[0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(blocks[1], [3.0, 4.0, 5.0, 6.0])

    def test_split_alpha_matrix_rows(self):
        draws = np.arange(14.0).reshape(2, 7)
        blocks = split_alpha(draws, (3, 4))
        assert blocks[0].shape == (2, 3)
        assert blocks[1].shape == (2, 4)

    def test_coefficient_curve_reproduces_polynomial(self):
        """Fitting a cubic-free truth with a quadratic basis and reading the
        curve back gives the truth at every grid point."""
        spec = make_spec("radial", 2, 0, (0.0, 1.0))
        grid = np.linspace(0.0, 1.0, 21)
        alpha_block = np.array([1.0, -2.0, 3.0])
        curve = coefficient_curve(spec, alpha_block, grid)
        np.testing.assert_allclose(curve, 1.0 - 2.0 * grid + 3.0 * grid**2,
                                   atol=1e-12)
