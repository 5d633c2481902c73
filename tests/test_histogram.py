"""Container validation, and the effective counts and bin expectations the costs take from it."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from templatefit import BinnedSample, CostFunction, TemplateModel, model_from_dict


def make_model(data, comps, edges=None, names=()):
    data = BinnedSample.from_counts(data)
    comps = tuple(BinnedSample.from_counts(c) for c in comps)
    if edges is None:
        edges = np.arange(data.nbins + 1, dtype=float)
    return TemplateModel(edges=edges, data=data, components=comps, names=names)


def effective(sample):
    # the effective counts and scales per bin that the weighted costs take
    # from a data sample (one unit template entry per bin keeps every bin active)
    ones = BinnedSample.from_counts(np.ones(sample.nbins))
    model = TemplateModel(edges=np.arange(sample.nbins + 1.0), data=sample, components=(ones,))
    row = CostFunction("approx", model, weighted=True)._stack
    return row._n[0], row._s[0]


def expectation(model, y):
    # the kernel's expectation m per active bin, on the one-row stack that fits run
    cost = CostFunction("approx", model)
    return cost._stack._approx(cost.validate(y))[3][0]


class TestBinnedSample:
    def test_from_counts_identity(self):
        s = BinnedSample.from_counts([3, 0, 7])
        np.testing.assert_array_equal(s.sumw, [3, 0, 7])
        np.testing.assert_array_equal(s.sumw2, [3, 0, 7])
        assert s.is_unweighted()

    def test_single_bin(self):
        s = BinnedSample.from_counts([5])
        assert s.nbins == 1
        assert s.total == 5.0

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError):
            BinnedSample.from_counts([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BinnedSample.from_counts([1, -2, 3])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BinnedSample.from_counts([1, float("nan")])
        with pytest.raises(ValueError):
            BinnedSample([1, float("inf")], [1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BinnedSample([1, 2], [1, 2, 3])

    def test_zero_sumw_requires_zero_sumw2(self):
        with pytest.raises(ValueError):
            BinnedSample([0.0, 2.0], [1.0, 4.0])
        with pytest.raises(ValueError):
            BinnedSample([3.0, 2.0], [0.0, 4.0])

    def test_arrays_immutable(self):
        s = BinnedSample.from_counts([1, 2])
        with pytest.raises(ValueError):
            s.sumw[0] = 9.0


class TestEffective:
    def test_unit_weights(self):
        s = BinnedSample.from_counts([3])
        n_eff, scale = effective(s)
        assert n_eff[0] == 3.0
        assert scale[0] == 1.0

    def test_weights_two_two(self):
        # two entries of weight 2: sumw=4, sumw2=8
        s = BinnedSample([4.0], [8.0])
        (n_eff,), (scale,) = effective(s)
        assert n_eff == pytest.approx(2.0, rel=1e-15)
        assert scale == pytest.approx(0.5, rel=1e-15)
        # consistency: n_eff * s == (sum w)^3 / (sum w^2)^2
        assert n_eff * scale == pytest.approx(4.0**3 / 8.0**2, rel=1e-14)

    def test_empty_bin_convention(self):
        s = BinnedSample([0.0], [0.0])
        (n_eff,), (scale,) = effective(s)
        assert (n_eff, scale) == (0.0, 1.0)

    @given(st.lists(st.floats(1.0, 50.0), min_size=1, max_size=20))
    def test_unweighted_identity_property(self, counts):
        counts = [round(c) for c in counts]
        s = BinnedSample.from_counts(counts)
        n_eff, scale = effective(s)
        for b in range(s.nbins):
            assert n_eff[b] == counts[b]
            assert scale[b] == 1.0

    def test_neff_below_sumw_for_unequal_weights(self):
        # weights {1, 3}: sumw=4, sumw2=10 -> n_eff=1.6 < 4
        (n_eff,), _ = effective(BinnedSample([4.0], [10.0]))
        assert n_eff < 4.0
        # equal weights {2, 2} reach the bound n_eff * mean_w = sumw
        (n_eq,), _ = effective(BinnedSample([4.0], [8.0]))
        assert n_eq * 2.0 == pytest.approx(4.0)


class TestTemplateModel:
    def test_basic_construction(self):
        m = make_model([1, 2, 3], [[1, 1, 1], [2, 0, 2]], names=("s", "b"))
        assert m.nbins == 3
        assert m.ncomponents == 2
        np.testing.assert_array_equal(m.norms, [3.0, 4.0])
        assert m.names == ("s", "b")

    def test_default_names(self):
        m = make_model([1, 2], [[1, 1]])
        assert m.names == ("template_0",)

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            make_model([1, 2], [[1, 1]], edges=[0.0, 1.0, 1.0])

    def test_edges_length(self):
        with pytest.raises(ValueError):
            make_model([1, 2], [[1, 1]], edges=[0.0, 1.0])

    def test_empty_template_rejected(self):
        with pytest.raises(ValueError):
            make_model([1, 2], [[1, 1], [0, 0]])

    def test_bin_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_model([1, 2], [[1, 1, 1]])

    def test_needs_component(self):
        with pytest.raises(ValueError):
            make_model([1, 2], [])


class TestBinExpectation:
    def test_single_component_proportionality(self):
        # y=100, a[bin]=10, M=100 -> 10
        m = make_model([5, 5], [[10, 90]])
        assert expectation(m, [100.0])[0] == pytest.approx(10.0, rel=1e-15)

    def test_zero_yields(self):
        m = make_model([5, 5], [[10, 90], [1, 1]])
        assert expectation(m, [0.0, 0.0])[0] == 0.0

    def test_two_component_value(self):
        # a=(4,30), M=(100,1000), y=(250,750) -> 32.5
        m = make_model([5, 5], [[4, 96], [30, 970]])
        assert expectation(m, [250.0, 750.0])[0] == pytest.approx(32.5, rel=1e-14)

    def test_linear_in_yields(self):
        m = make_model([5, 5, 5], [[4, 6, 2], [30, 1, 9]])
        y = np.array([11.0, 7.0])
        base = expectation(m, y)
        np.testing.assert_allclose(expectation(m, 3.0 * y), 3.0 * base, rtol=1e-14)

    def test_validation(self):
        m = make_model([5, 5], [[1, 1]])
        with pytest.raises(ValueError):
            expectation(m, [-1.0])
        with pytest.raises(ValueError):
            expectation(m, [1.0, 2.0])


class TestJsonSchema:
    def test_round_trip_minimal(self):
        obj = {
            "bin_edges": [0.0, 1.0, 2.0],
            "data": {"sumw": [5, 7]},
            "templates": [
                {"name": "sig", "sumw": [2, 1]},
                {"name": "bkg", "sumw": [3, 9], "sumw2": [4.5, 13.0]},
            ],
        }
        m = model_from_dict(obj)
        assert m.names == ("sig", "bkg")
        assert m.data.is_unweighted()
        assert not m.components[1].is_unweighted()
        assert not m.is_unweighted()

    def test_missing_field(self):
        with pytest.raises(ValueError, match="templates"):
            model_from_dict({"bin_edges": [0, 1], "data": {"sumw": [1]}})

    def test_sumw2_defaults_to_sumw(self):
        m = model_from_dict(
            {
                "bin_edges": [0, 1],
                "data": {"sumw": [4]},
                "templates": [{"sumw": [2]}],
            }
        )
        assert m.is_unweighted()
        assert m.names == ("template_0",)

    def test_bad_bin_counts(self):
        with pytest.raises(ValueError):
            model_from_dict(
                {
                    "bin_edges": [0, 1, 2],
                    "data": {"sumw": [4, 4]},
                    "templates": [{"sumw": [2]}],
                }
            )
