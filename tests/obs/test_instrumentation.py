"""The pipeline emits the promised spans and counters when traced —
and nothing at all when not."""

from repro import Device, FragDroid, FragDroidConfig, build_apk
from repro.core.htmlreport import render_html_report
from repro.core.report import result_to_dict
from repro.corpus import build_table1_app, demo_tabbed_app
from repro.obs import Tracer


def _traced_result(app_spec, **config_kwargs):
    tracer = Tracer()
    config = FragDroidConfig(tracer=tracer, **config_kwargs)
    result = FragDroid(Device(), config).explore(build_apk(app_spec))
    return result, tracer


def test_explore_emits_phase_spans():
    result, _ = _traced_result(demo_tabbed_app())
    names = {s.name for s in result.spans}
    # Static extraction, per-algorithm spans.
    assert {"static.extract", "static.decode", "static.algorithm1.aftm",
            "static.algorithm2.dependency",
            "static.algorithm3.resource_dep"} <= names
    # Per-test-case and per-case spans.
    assert {"explore", "explorer.test_case", "explorer.case1",
            "explorer.case2", "explorer.case3"} <= names


def test_termination_reason_recorded():
    result, _ = _traced_result(demo_tabbed_app())
    (root,) = [s for s in result.spans if s.name == "explore"]
    assert root.attributes["termination"] == "queue-drained"

    starved, _ = _traced_result(demo_tabbed_app(), max_events=3)
    (root,) = [s for s in starved.spans if s.name == "explore"]
    assert root.attributes["termination"] == "budget-exhausted"


def test_counters_cover_the_event_taxonomy():
    result, tracer = _traced_result(
        build_table1_app("com.advancedprocessmanager")
    )
    counters = tracer.metrics.counters()
    assert counters["clicks"] > 0
    assert counters["events.injected"] == result.stats.events
    assert counters["reflection.switches"] > 0
    assert counters["adb.installs"] >= 1
    assert tracer.metrics.histogram_stats("queue.depth").count > 0
    assert result.metrics["counters"] == counters


def test_spans_nest_static_under_explore():
    result, _ = _traced_result(demo_tabbed_app())
    by_id = {s.span_id: s for s in result.spans}
    (root,) = [s for s in result.spans if s.name == "explore"]
    (static,) = [s for s in result.spans if s.name == "static.extract"]
    assert static.parent_id == root.span_id
    (decode,) = [s for s in result.spans if s.name == "static.decode"]
    assert by_id[decode.parent_id] is static


def test_untraced_run_keeps_reports_byte_identical():
    apk = build_apk(demo_tabbed_app())
    plain = FragDroid(Device()).explore(apk)
    assert plain.spans == [] and plain.metrics == {}
    report = result_to_dict(plain)
    assert "timing" not in report and "metrics" not in report
    assert "Per-phase timing" not in render_html_report(plain)


def test_traced_run_renders_timing_tables():
    result, _ = _traced_result(demo_tabbed_app())
    report = result_to_dict(result)
    assert report["timing"][0]["count"] >= 1
    assert {row["span"] for row in report["timing"]} >= {"explore",
                                                         "static.extract"}
    html = render_html_report(result)
    assert "Per-phase timing" in html
    assert "static.extract" in html


def test_timing_rows_are_the_recorded_phase_stats():
    # The report, the HTML table and the run record rank phases by one
    # definition of cost: self time, from phase_stats.
    from repro.obs import capture_run_record

    tracer = Tracer()
    config = FragDroidConfig(tracer=tracer)
    result = FragDroid(Device(), config).explore(
        build_apk(demo_tabbed_app()))
    timing = result_to_dict(result)["timing"]
    phases = capture_run_record("explore", config=config).phases
    assert {row["span"]: {k: v for k, v in row.items() if k != "span"}
            for row in timing} == phases
    totals = [row["self_total_s"] for row in timing]
    assert totals == sorted(totals, reverse=True)
    html = render_html_report(result)
    assert "Self total (s)" in html
    assert f"<td>{timing[0]['self_total_s']:.4f}</td>" in html


def test_parallel_sweep_produces_disjoint_traces():
    from repro.bench.parallel import explore_many
    from repro.corpus.table1_apps import plan_for

    tracer = Tracer()
    config = FragDroidConfig(tracer=tracer)
    plans = [plan_for("org.rbc.odb"), plan_for("com.happy2.bbmanga")]
    outcomes = explore_many(plans, config=config, max_workers=2)
    for package, outcome in outcomes.items():
        result = outcome.unwrap()
        assert result.spans, package
        # Every span the result carries belongs to this app alone.
        apps = {s.attributes.get("app") for s in result.spans
                if "app" in s.attributes}
        assert apps == {package}
    assert tracer.metrics.counter("sweep.apps") == 2
