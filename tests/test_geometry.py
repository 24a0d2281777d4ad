"""Domain boxes and verdict plumbing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symflow.geometry import DomainBox
from symflow.verdict import WITNESS_CAP, Certainty, Status, Verdict, combine, threshold_verdict


class TestDomainBox:
    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            DomainBox([(1.0, 1.0)])
        with pytest.raises(ValueError):
            DomainBox([(2.0, 1.0)])
        with pytest.raises(ValueError):
            DomainBox([])

    def test_interval_of_non_finite_width_rejected(self):
        # finite bounds whose difference overflows, and infinite bounds
        for lo, hi in ((-1e308, 1e308), (-np.inf, 0.0), (0.0, np.inf)):
            with pytest.raises(ValueError, match="^interval .* has a width that is not finite$"):
                DomainBox([(0.0, 1.0), (lo, hi)])
        assert DomainBox([(-1e308, 0.0)]).volume() == 1e308

    def test_contains_and_slack(self):
        box = DomainBox([(0, 1), (-1, 1)])
        assert box.contains((0.5, 0.0))
        assert not box.contains((1.1, 0.0))
        assert box.contains((1.05, 0.0), slack=0.1)
        assert not box.contains((0.5,))  # wrong dimension
        assert not box.contains((float("nan"), 0.0))

    def test_samples_stay_inside(self):
        box = DomainBox([(-2, 3), (0, 1)])
        pts = box.sample(np.random.default_rng(0), 500)
        assert pts.shape == (500, 2)
        assert box.contains_rows(pts).all()

    def test_inflate_about_center(self):
        box = DomainBox([(0, 2)])
        assert box.inflate(2.0).intervals == ((-1.0, 3.0),)
        assert box.shrink(0.5).intervals == ((0.5, 1.5),)

    def test_grid_includes_endpoints(self):
        box = DomainBox([(0, 1), (0, 2)])
        g = box.grid([3, 2])
        assert g.shape == (6, 2)
        assert (g[0] == (0.0, 0.0)).all()
        assert (g[-1] == (1.0, 2.0)).all()

    def test_volume(self):
        assert DomainBox([(0, 2), (1, 4)]).volume() == 6.0


class TestVerdict:
    def test_fails_requires_witness(self):
        with pytest.raises(ValueError):
            Verdict(Status.FAILS, Certainty.CERTAIN, 1.0, ())

    def test_combine_failure_dominates(self):
        ok = Verdict(Status.HOLDS, Certainty.CERTAIN)
        bad = Verdict(Status.FAILS, Certainty.CERTAIN, 2.0, (((0.0,), 2.0),))
        v = combine([ok, bad])
        assert v.status is Status.FAILS
        assert v.witnesses

    def test_combine_inconclusive_blocks_holds(self):
        ok = Verdict(Status.HOLDS, Certainty.CERTAIN)
        unknown = Verdict.inconclusive("no samples")
        assert combine([ok, unknown]).status is Status.INCONCLUSIVE

    def test_combine_certainty_unanimity(self):
        a = Verdict(Status.HOLDS, Certainty.CERTAIN)
        b = Verdict(Status.HOLDS, Certainty.PROBABILISTIC, 1e-12)
        v = combine([a, b])
        assert v.status is Status.HOLDS
        assert v.certainty is Certainty.PROBABILISTIC
        assert v.residual_max == 1e-12

    def test_combine_empty(self):
        assert combine([]).status is Status.INCONCLUSIVE

    def test_jsonable_floats_are_strings(self):
        v = Verdict(Status.FAILS, Certainty.PROBABILISTIC, 0.5, (((1.0, 2.0), 0.5),), "note")
        d = v.to_jsonable()
        assert d["residual_max"] == repr(0.5)
        assert d["witnesses"][0]["point"] == [repr(1.0), repr(2.0)]


def rows(k):
    return [(float(i), -float(i)) for i in range(k)]


class TestThresholdVerdict:
    def test_worst_equal_to_tol_fails(self):
        v = threshold_verdict([0.5, 1.0], rows(2), 1.0, "n")
        assert v.status is Status.FAILS and v.residual_max == 1.0
        assert v.witnesses == (((1.0, -1.0), 1.0),)
        v = threshold_verdict([0.5, 1.0], rows(2), np.nextafter(1.0, 2.0), "n")
        assert v.status is Status.HOLDS and v.certainty is Certainty.PROBABILISTIC
        assert v.residual_max == 1.0 and v.witnesses == () and v.notes == "n"

    def test_witnesses_are_capped_largest_first_and_at_least_tol(self):
        v = threshold_verdict([1.0, 5.0, 3.0, 4.0, 2.0, 0.5], rows(6), 1.5, "n")
        assert WITNESS_CAP == 3
        assert [p[0] for p, _ in v.witnesses] == [1.0, 3.0, 2.0]
        assert [r for _, r in v.witnesses] == [5.0, 4.0, 3.0]
        v = threshold_verdict([1.0, 5.0, 3.0], rows(3), 4.0, "n")
        assert v.witnesses == (((1.0, -1.0), 5.0),)

    def test_ties_keep_sample_order(self):
        v = threshold_verdict([2.0, 7.0, 7.0, 1.0, 7.0, 7.0], rows(6), 1.0, "n")
        assert [p[0] for p, _ in v.witnesses] == [1.0, 2.0, 4.0]

    def test_non_finite_rows_are_skipped_and_counted(self):
        v = threshold_verdict([np.nan, 0.25, np.inf, -np.inf], rows(4), 1.0, "n")
        assert v.status is Status.HOLDS and v.residual_max == 0.25
        assert v.notes == "n, 3 evaluation errors skipped"
        v = threshold_verdict([np.inf, 2.0, np.nan], rows(3), 1.0, "n")
        assert v.status is Status.FAILS and v.residual_max == 2.0
        assert v.witnesses == (((1.0, -1.0), 2.0),)
        assert v.notes == "n, 2 evaluation errors skipped"

    def test_no_finite_row_is_inconclusive(self):
        v = threshold_verdict([np.nan, np.inf], rows(2), 1.0, "n")
        assert v.status is Status.INCONCLUSIVE
        assert v.notes == "n, 2 evaluation errors skipped"
        assert threshold_verdict([], [], 1.0, "n").status is Status.INCONCLUSIVE

    @given(
        st.lists(st.one_of(st.floats(0.0, 1e3), st.sampled_from([np.nan, np.inf])), max_size=12),
        st.floats(0.0, 1e3),
    )
    def test_fails_always_carries_witnesses_at_least_tol(self, residuals, tol):
        v = threshold_verdict(residuals, rows(len(residuals)), tol, "n")
        finite = [r for r in residuals if np.isfinite(r)]
        assert np.isfinite(v.residual_max)
        if not finite:
            assert v.status is Status.INCONCLUSIVE
        elif max(finite) < tol:
            assert v.status is Status.HOLDS and v.residual_max == max(finite)
        else:
            assert v.status is Status.FAILS and v.residual_max == max(finite)
            assert 1 <= len(v.witnesses) <= WITNESS_CAP
            assert v.witnesses[0][1] == max(finite)
            assert all(r >= tol for _, r in v.witnesses)
