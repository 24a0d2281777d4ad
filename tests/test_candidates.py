"""Candidate synthesis from the packed derivative identity, and the two
closed-form family classifications."""

from fractions import Fraction

import numpy as np
import pytest
from newton_reference import newton_rows, polish_root

from symflow import candidates, checks, fields
from symflow.candidates import (
    EXISTS,
    HYPOTHESES_VIOLATED,
    NOT_EXISTS,
    SingularDeltaError,
    candidate_from_delta,
    candidate_map_table,
    candidate_table_to_csv,
    classify_lienard,
    classify_lotka_volterra,
    fit_affine_candidate,
    lotka_volterra_field,
)
from symflow.checks import check_structural, fixed_points
from symflow.expr import to_string
from symflow.fields import SmoothMap, VectorField, find_critical_points, is_involution, is_measure_preserving
from symflow.geometry import DomainBox
from symflow.parser import parse
from symflow.tower import default_selection
from symflow.verdict import Certainty, CheckKind, Status


def field2(*texts, box=None):
    box = box or DomainBox.cube(-2, 2, 2)
    return VectorField([parse(t, 2) for t in texts], box)


class TestCandidateFromDelta:
    def test_two_reversibility_branches(self):
        F = lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-2, 2, 2))
        roots = candidate_from_delta(F, default_selection(2), CheckKind.REVERSIBILITY, (1.0, 0.4))
        pts = [r.point for r in roots]
        np.testing.assert_allclose(pts[0], (-2 / 3, 0.1), atol=1e-8)
        np.testing.assert_allclose(pts[1], (4 / 15, 1.5), atol=1e-8)
        assert not any(r.trivial for r in roots)

    def test_symmetry_nontrivial_branch(self):
        F = lotka_volterra_field(1, 1, 1, -1, DomainBox.cube(-2, 2, 2))
        roots = candidate_from_delta(F, default_selection(2), CheckKind.SYMMETRY, (0.5, 0.7))
        nontrivial = [r for r in roots if not r.trivial]
        assert any(
            np.allclose(r.point, (-0.7, -0.5), atol=1e-8) for r in nontrivial
        )

    def test_trivial_root_always_present_for_symmetry(self):
        for F in (field2("y + x^2", "-x"), lotka_volterra_field(1, 2, 3, 1)):
            z = (0.9, 0.7)
            roots = candidate_from_delta(F, default_selection(2), CheckKind.SYMMETRY, z)
            trivial = [r for r in roots if r.trivial]
            assert len(trivial) == 1
            np.testing.assert_allclose(trivial[0].point, z, atol=1e-8)

    def test_residuals_meet_tolerance(self):
        F = lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-2, 2, 2))
        roots = candidate_from_delta(F, default_selection(2), CheckKind.REVERSIBILITY, (1.0, 0.4))
        assert all(r.residual < 1e-10 for r in roots)

    def test_singular_point_rejected(self):
        # det J_Delta vanishes on the line 3x + 2y = 1 for this system
        F = lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-2, 2, 2))
        with pytest.raises(SingularDeltaError):
            candidate_from_delta(F, default_selection(2), CheckKind.REVERSIBILITY, (0.2, 0.2))


class TestCandidateMapTable:
    def test_predator_prey_swap_recovered(self):
        F = lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-1, 8, 2))
        cmap = candidate_map_table(
            F, default_selection(2), CheckKind.REVERSIBILITY,
            grid=(12, 12), box=DomainBox.cube(0.2, 2.0, 2),
        )
        assert cmap.status == "ok"
        Z, W = cmap.points(), cmap.images()
        expected = np.stack([2 * Z[:, 1] / 3, 3 * Z[:, 0] / 2], axis=-1)
        errors = np.linalg.norm(W - expected, axis=1)
        assert (errors < 1e-8).mean() >= 0.95

    def test_affine_fit_recovers_exact_map(self):
        F = lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-1, 8, 2))
        cmap = candidate_map_table(
            F, default_selection(2), CheckKind.REVERSIBILITY,
            grid=(10, 10), box=DomainBox.cube(0.2, 2.0, 2),
        )
        sigma, residual = fit_affine_candidate(cmap, F.domain)
        assert [to_string(c) for c in sigma.components] == ["2/3*y", "3/2*x"]
        assert residual < 1e-8

    def test_candidate_emitted_then_rejected(self):
        # the packed map ignores the restoring force, so the mirror shows up
        # as a candidate even when the force is not odd; the structural check
        # is what rejects it
        F = field2("y + x^2", "-x - x^2")
        cmap = candidate_map_table(F, default_selection(2), CheckKind.REVERSIBILITY, grid=(9, 9))
        sigma, _ = fit_affine_candidate(cmap, F.domain)
        assert [to_string(c) for c in sigma.components] == ["-x", "y"]
        assert check_structural(F, sigma, CheckKind.REVERSIBILITY).failed

    def test_inconsistent_nearest_root_yields_to_a_consistent_one(self):
        # with a loose root tolerance many roots converge only to about
        # 1e-3 and miss the tower law's 1e-6 tolerance; a point takes the
        # nearest root that passes, and the 7 points where none passes keep
        # their nearest root and are counted, without dropping them
        F = lotka_volterra_field(1, 1, 1, 1, DomainBox.cube(-1, 4, 2))
        cmap = candidate_map_table(F, default_selection(2), CheckKind.REVERSIBILITY, grid=(6, 6), newton_tol=1e-2)
        assert cmap.status == "ok" and cmap.stats["inconsistent"] == 7
        assert len(cmap.entries) == cmap.stats["grid_points"] - cmap.stats["singular_filtered"] == 32

    @pytest.mark.parametrize("abc, box, grid", [
        ((1, 4, 2), DomainBox.cube(-1, 4, 2), (20, 20)),
        ((1, 2, 3), DomainBox.cube(-1, 8, 2), (6, 6)),
        ((1, 3, 3), DomainBox.cube(-2, 2, 2), (6, 6)),
    ])
    def test_equal_rates_table_is_the_swap(self, abc, box, grid):
        # the order-0/1 equations also admit the point reflection through
        # the equilibrium; the tower law at orders 2 and 3 rejects it
        a, b, c = abc
        F = lotka_volterra_field(a, b, c, a, box)
        cmap = candidate_map_table(F, default_selection(2), CheckKind.REVERSIBILITY, grid=grid)
        assert cmap.status == "ok" and len(cmap.entries) == grid[0] * grid[1]
        Z = cmap.points()
        np.testing.assert_allclose(cmap.images(), np.stack([b * Z[:, 1] / c, c * Z[:, 0] / b], axis=-1), atol=1e-8)
        sigma, _ = fit_affine_candidate(cmap, F.domain)
        assert [to_string(e) for e in sigma.components] == [to_string(e) for e in classify_lotka_volterra(
            a, b, c, a).reversibility.sigma.components]

    def test_law_needs_both_orders_on_the_fixed_line(self):
        # z lies on the swap's fixed line c x = b y, so the swap root is z
        # itself; D_2 is 0 at both roots and only D_3 tells them apart
        F = lotka_volterra_field(1, 4, 2, 1, DomainBox.cube(-1, 4, 2))
        roots = candidate_from_delta(F, default_selection(2), CheckKind.REVERSIBILITY, (0.2, 0.1))
        assert len(roots) == 2
        swap, reflection = roots
        np.testing.assert_allclose(swap.point, (0.2, 0.1), atol=1e-8)
        np.testing.assert_allclose(reflection.point, (0.3, 0.15), atol=1e-8)
        assert swap.consistent and not reflection.consistent

    @pytest.mark.parametrize("args, box, grid, expected", [
        ((1, 2, 3, -1), DomainBox.cube(-2, 2, 2), (8, 8), ["-2/3*y", "-3/2*x"]),
        ((1, 2, 3, -1), DomainBox.cube(0.2, 2.0, 2), (6, 6), ["-2/3*y", "-3/2*x"]),
        ((2, 1, 4, -2), DomainBox.cube(-2, 2, 2), (8, 8), ["-1/4*y", "-4*x"]),
    ])
    def test_symmetry_tables_keep_the_symmetry(self, args, box, grid, expected):
        a, b, c, _ = args
        F = lotka_volterra_field(*args, box)
        cmap = candidate_map_table(F, default_selection(2), CheckKind.SYMMETRY, grid=grid)
        assert cmap.status == "ok" and cmap.stats["inconsistent"] == 0
        Z = cmap.points()
        np.testing.assert_allclose(cmap.images(), np.stack([-b * Z[:, 1] / c, -c * Z[:, 0] / b], axis=-1), atol=1e-8)
        sigma, _ = fit_affine_candidate(cmap, F.domain)
        assert [to_string(e) for e in sigma.components] == expected

    def test_mirror_negative_keeps_every_entry(self):
        # the mirror is no reversibility of this field, so the law fails
        # off its fixed line x = 0; those points keep the mirror image
        F = field2("y + x^2", "-x - x^2")
        cmap = candidate_map_table(F, default_selection(2), CheckKind.REVERSIBILITY, grid=(9, 9))
        assert cmap.status == "ok" and len(cmap.entries) == 81
        assert cmap.stats["inconsistent"] == 72
        Z = cmap.points()
        np.testing.assert_allclose(cmap.images(), np.stack([-Z[:, 0], Z[:, 1]], axis=-1), atol=1e-8)

    def test_symmetry_only_trivial_branch(self):
        F = field2("y + x^2", "-x - x^2")
        cmap = candidate_map_table(F, default_selection(2), CheckKind.SYMMETRY, grid=(8, 8))
        assert cmap.status == "trivial_only"
        assert not cmap.entries

    def test_csv_export(self, tmp_path):
        F = lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-1, 8, 2))
        cmap = candidate_map_table(
            F, default_selection(2), CheckKind.REVERSIBILITY,
            grid=(6, 6), box=DomainBox.cube(0.4, 1.6, 2),
        )
        path = tmp_path / "table.csv"
        candidate_table_to_csv(cmap, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "z1,z2,sigma1,sigma2,branch,residual"
        assert len(lines) == len(cmap.entries) + 1


class TestBatchedNewtonEndToEnd:
    """Every Newton driver gives the same results with the batched solver
    as with the scalar reference run one seed at a time."""

    @staticmethod
    def scalar(monkeypatch):
        for module in (candidates, fields, checks):
            monkeypatch.setattr(module, "newton_batch", newton_rows)
        monkeypatch.setattr(
            fields, "_polish_roots",
            lambda f, jac_fn, X: np.array([polish_root(f, jac_fn, x) for x in X]).reshape(np.shape(X)),
        )

    @staticmethod
    def results():
        lv = lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-1, 8, 2))
        quad = field2("y + x^2", "-x - x^2")
        sym = lotka_volterra_field(1, 2, 3, -1, DomainBox.cube(0.2, 2.0, 2))
        sel = default_selection(2)
        rev, symm = CheckKind.REVERSIBILITY, CheckKind.SYMMETRY
        tables = [
            candidate_map_table(lv, sel, rev, grid=(8, 8)),
            # a loose root tolerance leaves roots that fail the tower law,
            # some ranked ahead of a root that passes
            candidate_map_table(lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-1, 4, 2)), sel, rev,
                                grid=(6, 6), newton_tol=1e-2),
            candidate_map_table(quad, sel, rev, grid=(10, 10)),
            candidate_map_table(quad, sel, symm, grid=(6, 6)),
            candidate_map_table(sym, sel, symm, grid=(6, 6)),
        ]
        out = [(repr(t.entries), t.stats, t.status) for t in tables]
        out.append(repr(candidate_from_delta(lv, sel, rev, (1.0, 0.4))))
        out.append(repr(candidate_from_delta(quad, sel, rev, (0.5, -0.3))))
        out.append(repr(candidate_from_delta(sym, sel, symm, (1.0, 0.7))))
        for F in (lv, field2("x^3 - x", "y^2 - 1"), field2("x^2", "y"), field2("y - x^2", "x - y^2")):
            out.append(repr(find_critical_points(F)))
        for m in (SmoothMap([parse("y^3", 2), parse("x^(1/3)", 2)], DomainBox.cube(0.1, 2, 2)),
                  SmoothMap([parse("x^2 - y + x", 2), parse("y^3", 2)], DomainBox.cube(-2, 2, 2))):
            out.append(repr(fixed_points(m).points))
        return out

    def test_same_results_as_scalar_reference(self, monkeypatch):
        batched = self.results()
        self.scalar(monkeypatch)
        assert self.results() == batched


class TestClassifyLotkaVolterra:
    def test_equal_rates_reversibility(self):
        cl = classify_lotka_volterra(1, 2, 3, 1)
        assert cl.reversibility.verdict == EXISTS
        assert [to_string(c) for c in cl.reversibility.sigma.components] == ["2/3*y", "3/2*x"]
        assert cl.symmetry.verdict == NOT_EXISTS
        for v in cl.reversibility.verification.values():
            assert v.status is Status.HOLDS and v.certainty is Certainty.CERTAIN

    def test_opposite_rates_symmetry(self):
        cl = classify_lotka_volterra(1, 1, 1, -1)
        assert cl.symmetry.verdict == EXISTS
        assert [to_string(c) for c in cl.symmetry.sigma.components] == ["-y", "-x"]
        assert cl.reversibility.verdict == NOT_EXISTS

    def test_unit_coefficients_swap(self):
        cl = classify_lotka_volterra(1, 1, 1, 1)
        assert cl.reversibility.verdict == EXISTS
        assert [to_string(c) for c in cl.reversibility.sigma.components] == ["y", "x"]
        assert cl.symmetry.verdict == NOT_EXISTS

    def test_generic_rates_nothing(self):
        cl = classify_lotka_volterra(1, 2, 3, 2)
        assert cl.reversibility.verdict == NOT_EXISTS
        assert cl.symmetry.verdict == NOT_EXISTS
        assert cl.overall == NOT_EXISTS

    def test_degenerate_triangular(self):
        cl = classify_lotka_volterra(1, 0, 1, 1)
        assert cl.overall == HYPOTHESES_VIOLATED
        assert cl.reversibility.verdict == HYPOTHESES_VIOLATED

    def test_exact_rational_conditions(self):
        # no floating tolerance is involved: a - d = 1e-30 is a clean "no"
        a = Fraction(1) + Fraction(1, 10**30)
        cl = classify_lotka_volterra(a, 2, 3, 1)
        assert cl.reversibility.verdict == NOT_EXISTS
        cl2 = classify_lotka_volterra(Fraction(1, 3), 2, 5, Fraction(1, 3))
        assert cl2.reversibility.verdict == EXISTS

    def test_emitted_map_passes_all_three_checks(self):
        for args, kind in (((1, 2, 3, 1), CheckKind.REVERSIBILITY), ((2, 1, 4, -2), CheckKind.SYMMETRY)):
            cl = classify_lotka_volterra(*args)
            branch = cl.branch(kind)
            assert branch.verdict == EXISTS
            F = lotka_volterra_field(*args)
            assert check_structural(F, branch.sigma, kind).holds
            assert is_involution(branch.sigma).holds
            assert is_measure_preserving(branch.sigma).holds


class TestClassifyLienard:
    def test_odd_cubic_damping_mirror(self):
        cl = classify_lienard("x^3", "x")
        assert cl.reversibility.verdict == EXISTS
        assert [to_string(c) for c in cl.reversibility.sigma.components] == ["-x", "y"]
        assert cl.symmetry.verdict == HYPOTHESES_VIOLATED
        for v in cl.reversibility.verification.values():
            assert v.status is Status.HOLDS and v.certainty is Certainty.CERTAIN

    def test_even_damping_point_reflection(self):
        cl = classify_lienard("x^2", "x")
        assert cl.symmetry.verdict == EXISTS
        assert [to_string(c) for c in cl.symmetry.sigma.components] == ["-x", "-y"]
        assert cl.reversibility.verdict == HYPOTHESES_VIOLATED

    def test_mixed_damping_not_exists_with_parity_witness(self):
        cl = classify_lienard("x^3 + x^2", "x", interval=(-0.5, 0.5))
        assert cl.overall == NOT_EXISTS
        assert cl.symmetry.verdict == NOT_EXISTS
        parity = [c for c in cl.symmetry.conditions if c.name == "f_even"]
        assert parity and not parity[0].passed
        assert parity[0].witness is not None

    def test_even_damping_cubic_force(self):
        cl = classify_lienard("x^2", "x^3")
        assert cl.symmetry.verdict == EXISTS
        assert [to_string(c) for c in cl.symmetry.sigma.components] == ["-x", "-y"]

    def test_even_restoring_force_violates_hypotheses(self):
        # x g(x) = x^3 changes sign at 0
        cl = classify_lienard("x^2", "x^2")
        assert cl.overall == HYPOTHESES_VIOLATED
        xg = [c for c in cl.symmetry.conditions if c.name == "xg_positive"]
        assert xg and not xg[0].passed

    def test_mirrored_damping_pattern_accepted(self):
        cl = classify_lienard("-x^2", "x")
        assert cl.symmetry.verdict == EXISTS
        vshape = [c for c in cl.symmetry.conditions if c.name == "fprime_v_shape"]
        assert "mirror" in vshape[0].detail

    def test_nonzero_damping_at_origin_violates_reversibility_route(self):
        cl = classify_lienard("x^3 + 1", "x")
        assert cl.reversibility.verdict == HYPOTHESES_VIOLATED
        f0 = [c for c in cl.reversibility.conditions if c.name == "f_zero_at_origin"]
        assert f0 and not f0[0].passed

    def test_interval_must_straddle_zero(self):
        with pytest.raises(ValueError):
            classify_lienard("x^3", "x", interval=(0.5, 1.0))

    def test_sampled_hypotheses_are_probabilistic(self):
        # f' = 3x^2 + 4x^3 is positive on (-0.5, 0.5) but is not an
        # even-positive form, so the certificate is sampling
        cl = classify_lienard("x^3 + x^4", "x", interval=(-0.5, 0.5))
        fp = [c for c in cl.reversibility.conditions if c.name == "fprime_positive"]
        assert fp[0].passed
        assert fp[0].certainty is Certainty.PROBABILISTIC
        assert cl.reversibility.verdict == NOT_EXISTS  # parity fails (x^4 term)
