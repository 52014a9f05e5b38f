import csv
import io
import json
import math
import re
import sys
import tracemalloc
from collections.abc import Iterator

import pytest
from hypothesis import given, settings, strategies as st

import treebed.embedding
from treebed import (
    CubeId,
    HoroPoint,
    Region,
    SamplePlan,
    count_violations,
    embed,
    evaluate_pairs,
    fit_qi_constants,
    hyp_distance,
    per_color_distances,
    sample_pairs,
    stability_probe,
    validate_params,
    vertical_bound_check,
)
from treebed.verifier import (
    MIN_FIT_DHYP,
    DistortionReport,
    default_region,
)


def small_plan(strategy="uniform", count=50, seed=7):
    return SamplePlan(Region(-3.0, 3.0, 125.0), count, strategy, seed)


class TestSamplePairs:
    def test_deterministic(self, p5):
        plan = small_plan("vertical", count=10, seed=7)
        assert list(sample_pairs(p5, plan)) == list(sample_pairs(p5, plan))

    def test_seed_matters(self, p5):
        a = list(sample_pairs(p5, small_plan(seed=1)))
        b = list(sample_pairs(p5, small_plan(seed=2)))
        assert a != b

    def test_vertical_contract(self, p5):
        for z, zp in sample_pairs(p5, small_plan("vertical")):
            assert z.x == zp.x
            assert z.t == int(z.t) and zp.t == int(zp.t)

    def test_vertical_needs_an_integer_height(self, p5):
        # The plan is refused when it is built, before any draw.
        with pytest.raises(ValueError, match="no integer height"):
            SamplePlan(Region(0.2, 0.7, 5.0), 10, "vertical", 0)
        # a single integer height is enough
        pairs = sample_pairs(p5, SamplePlan(Region(0.2, 1.0, 5.0), 10, "vertical", 0))
        assert all(z.t == zp.t == 1.0 for z, zp in pairs)

    def test_same_horosphere_contract(self, p5):
        for z, zp in sample_pairs(p5, small_plan("same_horosphere")):
            assert z.t == zp.t

    def test_uniform_within_region(self, p5):
        plan = small_plan("uniform", count=200)
        for z, zp in sample_pairs(p5, plan):
            for pt in (z, zp):
                assert plan.region.t_min <= pt.t <= plan.region.t_max
                assert all(abs(c) <= plan.region.x_radius for c in pt.x)

    def test_near_pairs_contract(self, p5):
        for z, zp in sample_pairs(p5, small_plan("near_pairs")):
            assert hyp_distance(p5, z, zp) <= 2.0

    def test_near_pairs_halves_offsets_until_inside(self, monkeypatch):
        # At (3,9) a few first offsets of the default region land beyond
        # distance 2, so the halving loop runs: more distances than pairs.
        P = validate_params(3, 9)
        calls = []

        def counted(*args):
            calls.append(args)
            return hyp_distance(*args)

        monkeypatch.setattr(treebed.verifier, "hyp_distance", counted)
        plan = SamplePlan(default_region(P), 2000, "near_pairs", 1)
        pairs = list(sample_pairs(P, plan))
        assert len(calls) > len(pairs)
        assert all(hyp_distance(P, z, zp) <= 2.0 for z, zp in pairs)

    def test_bad_plan(self):
        with pytest.raises(ValueError):
            SamplePlan(Region(-1.0, 1.0, 10.0), 5, "bogus", 0)
        with pytest.raises(ValueError):
            SamplePlan(Region(1.0, -1.0, 10.0), 5, "uniform", 0)
        with pytest.raises(ValueError):
            SamplePlan(Region(-1.0, 1.0, 10.0), 0, "uniform", 0)

    @pytest.mark.parametrize("field", ["t_min", "t_max", "x_radius"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_region_fields_must_be_finite(self, field, value):
        fields = {"t_min": -1.0, "t_max": 1.0, "x_radius": 10.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Region(**fields)

    @pytest.mark.parametrize(
        "fields,name",
        [((-1e308, 1e308, 1.0), "t_max - t_min"), ((0.0, 1.0, 1e308), "x_radius")],
    )
    def test_region_spans_must_be_finite(self, fields, name):
        # Sampling draws over t_max - t_min and 2 * x_radius.
        with pytest.raises(ValueError, match=re.escape(name)):
            Region(*fields)

    def test_widest_region_samples_finite_points(self, p5):
        plan = SamplePlan(Region(-8e307, 8e307, 8e307), 20, "uniform", 0)
        for z, zp in sample_pairs(p5, plan):
            assert all(map(math.isfinite, (z.t, zp.t, *z.x, *zp.x)))

    def test_draws_lazily(self, p5):
        pairs = sample_pairs(p5, small_plan(count=3))
        assert isinstance(pairs, Iterator)
        first = next(pairs)
        assert [first, *pairs] == list(sample_pairs(p5, small_plan(count=3)))


class TestEvaluatePairs:
    def test_identical_pair(self, p5):
        z = HoroPoint(0.0, (0.4,))
        rep = evaluate_pairs(p5, [(z, z)])
        assert rep.samples == ((0.0, 0.0),)

    def test_vertical_eta0_pair(self, p5):
        # eta0 sits in nested cubes at every level: the images form a
        # containment chain, one hop per level, and the bound
        # (dk+1)/(n+1) - 1 = 2 is met with room
        z = HoroPoint(0.0, (0.25,))
        zp = HoroPoint(5.0, (0.25,))
        per = per_color_distances(p5, embed(p5, z), embed(p5, zp))
        assert per == (5, 5)
        assert all(d >= 2 for d in per)
        assert evaluate_pairs(p5, [(z, zp)]).samples[0][1] == 10

    def test_one_period_separation(self, p5):
        # shifting x by one pattern period moves every color's image
        k = 2
        x = 0.31
        z = HoroPoint(float(k), (x,))
        zp = HoroPoint(float(k), (x + 5.0 ** (-k),))
        e1, e2 = embed(p5, z), embed(p5, zp)
        assert all(u != v for u, v in zip(e1.images, e2.images))
        rep = evaluate_pairs(p5, [(z, zp)])
        assert rep.samples[0][1] >= 1  # the sum of the per-color distances

    def test_norms(self, p5):
        pairs = list(sample_pairs(p5, small_plan(count=20)))
        l1 = evaluate_pairs(p5, pairs, norm="l1")
        linf = evaluate_pairs(p5, pairs, norm="linf")
        l2 = evaluate_pairs(p5, pairs, norm="l2")
        for a, b, c in zip(linf.samples, l2.samples, l1.samples):
            assert a[1] <= b[1] <= c[1]

    def test_unknown_norm(self, p5):
        pairs = sample_pairs(p5, small_plan(count=3))
        with pytest.raises(ValueError, match="norm"):
            evaluate_pairs(p5, pairs, norm="l3")

    @pytest.mark.parametrize("cap", [0, -1])
    def test_scan_cap_below_one_refused_up_front(self, p5, cap):
        # Every parent hop ends within its digit bound, so no entry point
        # takes a scan cap, whatever its value. Every image sits at its
        # rounded level, so none takes a level override either.
        z = HoroPoint(0.0, (0.3,))
        with pytest.raises(TypeError, match="scan_cap"):
            evaluate_pairs(p5, [(z, z)], scan_cap=cap)
        with pytest.raises(TypeError, match="scan_cap"):
            vertical_bound_check(p5, count=3, seed=0, scan_cap=cap)
        with pytest.raises(TypeError, match="scan_cap"):
            stability_probe(p5, small_plan(count=3), [1.0], scan_cap=cap)
        with pytest.raises(TypeError, match="level"):
            embed(p5, z, level=cap)
        with pytest.raises(TypeError, match="level"):
            evaluate_pairs(p5, [(z, z)], level=cap)
        with pytest.raises(TypeError, match="level"):
            stability_probe(p5, small_plan(count=3), [1.0], level=cap)

    def test_empty(self, p5):
        with pytest.raises(ValueError, match="no pairs to evaluate"):
            evaluate_pairs(p5, [])

    def test_one_shot_generator(self, p5):
        plan = small_plan(count=30, seed=4)
        listed = evaluate_pairs(p5, list(sample_pairs(p5, plan)))
        streamed = evaluate_pairs(p5, (pair for pair in sample_pairs(p5, plan)))
        assert streamed.samples == listed.samples and len(listed.samples) == 30

    def test_memory_per_pair(self, p7):
        # Only (d_hyp, d_tree) stays per pair, about 165 B in all; keeping
        # each pair's two points as well would pass 300.
        count = 20_000
        plan = SamplePlan(default_region(p7), count, "uniform", 1)
        tracemalloc.start()
        try:
            fit_qi_constants(evaluate_pairs(p7, sample_pairs(p7, plan)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / count < 300


def report_from(values, n=1, p=5):
    samples = tuple(map(tuple, values))
    return DistortionReport(n=n, p=p, norm="l1", samples=samples)


def _scan_fit(samples, m_max):
    """The envelope fit by a scan of every m from its floor to m_max: the
    reference the bisection in fit_qi_constants must reproduce bit for bit.
    The floor is ceil(d_hyp) over fitted pairs with d_tree = 0, capped at
    m_max, as only m covers such a pair."""
    fitting = [(h, t) for h, t in samples if h >= MIN_FIT_DHYP]
    operands = [(t, h) for h, t in fitting] + [(h, t) for h, t in fitting if t > 0]
    flat = [h for h, t in fitting if t == 0]
    m_min = min(m_max, math.ceil(max(flat))) if flat else 0
    best = None
    for m in map(float, range(m_min, m_max + 1)):
        l = max(1.0, max([(a - m) / b for a, b in operands]))
        if best is None or (l, m) < best:
            best = (l, m)
    l, m = best
    return l, m, count_violations(samples, l, m)


class TestFit:
    def test_single_sample(self):
        fitted = fit_qi_constants(report_from([(1.0, 1.0)]), m_max=0)
        assert (fitted.l, fitted.m) == (1.0, 0.0)
        assert fitted.violations == 0

    def test_symmetric_ratio(self):
        fitted = fit_qi_constants(report_from([(2.0, 6.0), (6.0, 2.0)]), m_max=0)
        assert fitted.l == 3.0
        assert fitted.violations == 0

    def test_prefers_smaller_l_then_smaller_m(self):
        fitted = fit_qi_constants(report_from([(2.0, 6.0)]), m_max=4)
        # l(0)=3, l(2)=2, l(4)=1: minimal l wins, at the least m reaching it
        assert (fitted.l, fitted.m) == (1.0, 4.0)

    def test_small_pairs_excluded_from_ratios(self):
        fitted = fit_qi_constants(
            report_from([(0.01, 3.0), (1.0, 2.0)]), m_max=0
        )
        # the 0.01 pair would force l=300 if it were fitted
        assert fitted.l == 2.0

    def test_pairs_at_tree_distance_zero_set_m(self):
        # Only m can cover d_hyp <= l*0 + m: the fit must not leave these
        # pairs to count_violations, which checks both sides.
        fitted = fit_qi_constants(report_from([(0.4, 0.0), (0.3, 0.0)]))
        assert (fitted.l, fitted.m, fitted.violations) == (1.0, 1.0, 0)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="every pair is below the fitting floor"):
            fit_qi_constants(report_from([(0.0, 0.0)]), m_max=0)

    @pytest.mark.parametrize(
        "m_max, error",
        [
            (-1, ValueError),
            (1.5, TypeError),
            pytest.param(10**100, ValueError, id="10**100-ValueError"),
            pytest.param(sys.maxsize + 1, ValueError, id="maxsize+1-ValueError"),
        ],
    )
    def test_m_max_must_be_a_non_negative_integer(self, m_max, error):
        with pytest.raises(error):
            fit_qi_constants(report_from([(1.0, 2.0)]), m_max=m_max)

    def test_m_max_up_to_maxsize(self):
        fitted = fit_qi_constants(report_from([(1.0, 2.0)]), m_max=sys.maxsize)
        assert (fitted.l, fitted.m) == (1.0, 1.0)

    @settings(max_examples=400, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(
                    st.floats(0.0, MIN_FIT_DHYP, exclude_max=True),
                    st.floats(MIN_FIT_DHYP, 200.0),
                ),
                st.one_of(
                    st.just(0.0),
                    st.integers(0, 120).map(float),
                    st.floats(0.0, 200.0),
                ),
            ),
            max_size=30,
        ),
        anchor=st.tuples(
            st.floats(MIN_FIT_DHYP, 200.0), st.integers(0, 120).map(float)
        ),
        m_max=st.integers(0, 60),
    )
    def test_bisection_matches_full_scan(self, rows, anchor, m_max):
        # The anchor keeps one pair above the fitting floor.
        report = report_from(rows + [anchor])
        fitted = fit_qi_constants(report, m_max)
        want = _scan_fit(report.samples, m_max)
        assert repr((fitted.l, fitted.m, fitted.violations)) == repr(want)

    def test_envelope_holds_on_fitting_set(self, p5):
        plan = small_plan(count=300, seed=9)
        rep = evaluate_pairs(p5, sample_pairs(p5, plan), plan=plan)
        fitted = fit_qi_constants(rep)
        assert fitted.violations == 0
        assert count_violations(fitted.samples, fitted.l, fitted.m) == 0

    def test_monotone_in_sample_size(self, p5):
        plan = small_plan(count=400, seed=10)
        rep = evaluate_pairs(p5, sample_pairs(p5, plan), plan=plan)
        half = DistortionReport(
            n=rep.n, p=rep.p, norm=rep.norm, samples=rep.samples[:200]
        )
        l_half = fit_qi_constants(half, m_max=5).l
        l_full = fit_qi_constants(rep, m_max=5).l
        assert l_full >= l_half

    def test_refit_on_fresh_sample_is_stable(self, p5):
        plan_a = SamplePlan(Region(-4.0, 4.0, 625.0), 2000, "uniform", 3)
        plan_b = SamplePlan(Region(-4.0, 4.0, 625.0), 2000, "uniform", 4)
        l_a = fit_qi_constants(
            evaluate_pairs(p5, sample_pairs(p5, plan_a), plan=plan_a), m_max=10
        ).l
        l_b = fit_qi_constants(
            evaluate_pairs(p5, sample_pairs(p5, plan_b), plan=plan_b), m_max=10
        ).l
        assert abs(l_a - l_b) / l_a < 0.10


class TestVerticalBoundCheck:
    def test_equal_points_trivially_pass(self, p5):
        z = HoroPoint(2.0, (0.1,))
        rep = evaluate_pairs(p5, [(z, z)])
        assert rep.samples[0][1] == 0.0
        # bound (0+1)/2 - 1 <= 0

    def test_random_pairs_all_pass(self, p5):
        assert vertical_bound_check(p5, count=200, seed=5) == ()

    def test_n2(self, p7):
        assert vertical_bound_check(p7, count=100, seed=6) == ()

    def test_failure_records(self, p5, monkeypatch):
        # Criterion 7's control: every image at level 0 breaks the bound.
        monkeypatch.setattr(treebed.embedding, "embedding_level", lambda z: 0)
        failures = vertical_bound_check(p5, count=200, seed=5)
        assert len(failures) == 16
        for f in failures:
            assert set(f) == {"t", "tp", "x", "bound", "per_color"}
            assert max(f["per_color"]) < f["bound"]


class TestStabilityProbe:
    def test_single_scale(self, p5):
        plan = small_plan(count=200, seed=12)
        ((l, m),) = stability_probe(p5, plan, [1.0])
        assert l >= 1.0 and 0.0 <= m <= 50.0

    def test_scales_must_increase(self, p5):
        with pytest.raises(ValueError):
            stability_probe(p5, small_plan(), [2.0, 1.0])

    @pytest.mark.parametrize(
        "m_max,error",
        [
            (-1, ValueError),
            (1.5, TypeError),
            pytest.param(10**100, ValueError, id="10**100-ValueError"),
        ],
    )
    def test_m_max_checked_before_sampling(self, p5, monkeypatch, m_max, error):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before m_max was checked")

        monkeypatch.setattr(treebed.verifier, "sample_pairs", no_sampling)
        with pytest.raises(error):
            stability_probe(p5, small_plan(count=5000), [1.0, 2.0], m_max=m_max)

    def test_broken_embedding_degrades(self, p5, monkeypatch):
        # forcing level 0 must visibly worsen the fit on a taller region
        plan = SamplePlan(Region(-4.0, 4.0, 625.0), 1500, "uniform", 3)
        ((honest_l, _),) = stability_probe(p5, plan, [4.0], m_max=10)
        monkeypatch.setattr(treebed.embedding, "embedding_level", lambda z: 0)
        ((broken_l, _),) = stability_probe(p5, plan, [4.0], m_max=10)
        assert broken_l > 3 * honest_l


class TestReports:
    def test_json_deterministic(self, p5):
        plan = small_plan(count=40, seed=13)

        def run():
            rep = evaluate_pairs(p5, sample_pairs(p5, plan), plan=plan)
            return fit_qi_constants(rep)

        first, second = run(), run()
        assert first == second and first is not second
        assert json.dumps(first.to_json_dict()) == json.dumps(second.to_json_dict())

    def test_json_shape(self, p5):
        plan = small_plan(count=10, seed=14)
        rep = fit_qi_constants(evaluate_pairs(p5, sample_pairs(p5, plan), plan=plan))
        doc = rep.to_json_dict()
        assert set(doc) == {"params", "plan", "norm", "n_samples", "fit", "violations"}
        assert doc["n_samples"] == 10
        assert doc["fit"]["l"] >= 1.0

    def test_runtime_not_in_json(self, p5):
        plan = small_plan(count=5, seed=15)
        rep = evaluate_pairs(p5, sample_pairs(p5, plan), plan=plan)
        assert not hasattr(rep, "runtime_ms")
        assert "runtime_ms" not in type(rep).__slots__
        assert "runtime" not in json.dumps(fit_qi_constants(rep).to_json_dict())

    def test_csv_roundtrip(self, p5):
        plan = small_plan(count=25, seed=16)
        out = io.StringIO()
        rep = evaluate_pairs(p5, sample_pairs(p5, plan), plan=plan, csv_file=out)
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert rows[0] == ["t", "x0", "tp", "xp0", "d_hyp", "d_tree", "d_c0", "d_c1"]
        assert len(rows) == 26
        pairs = sample_pairs(p5, plan)
        for row, (z, zp), (d_hyp, d_tree) in zip(rows[1:], pairs, rep.samples):
            per = per_color_distances(p5, embed(p5, z), embed(p5, zp))
            assert float(row[0]) == z.t
            assert float(row[4]) == d_hyp
            assert int(row[6]) == per[0]
            assert row == [repr(z.t), repr(z.x[0]), repr(zp.t), repr(zp.x[0]),
                           repr(d_hyp), repr(d_tree), str(per[0]), str(per[1])]
