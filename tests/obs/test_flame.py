"""Span-tree analytics: trees, self time, critical path, flamegraphs."""

from repro.obs import (
    Span,
    build_trees,
    collapsed_stacks,
    critical_path,
    phase_rows,
    phase_stats,
)


def _span(name, span_id, parent_id, start, duration, trace_id=1, **attrs):
    return Span(name=name, span_id=span_id, trace_id=trace_id,
                parent_id=parent_id, depth=0, start=start,
                duration=duration, attributes=attrs)


def _forest():
    # root(10) -> a(4) -> leaf(1)
    #          -> b(3)
    return [
        _span("root", 1, None, 0.0, 10.0),
        _span("a", 2, 1, 1.0, 4.0),
        _span("leaf", 3, 2, 1.5, 1.0),
        _span("b", 4, 1, 6.0, 3.0),
    ]


def test_build_trees_reconstructs_parent_child_structure():
    roots = build_trees(_forest())
    assert len(roots) == 1
    root = roots[0]
    assert root.span.name == "root"
    assert [c.span.name for c in root.children] == ["a", "b"]
    assert [n.span.name for n in root.walk()] == ["root", "a", "leaf", "b"]


def test_orphan_spans_are_promoted_to_roots():
    spans = [_span("child", 2, 99, 0.0, 1.0)]
    roots = build_trees(spans)
    assert [r.span.name for r in roots] == ["child"]


def test_self_times_subtract_children():
    stats = phase_stats(_forest())
    assert abs(stats["root"]["self_total_s"] - 3.0) < 1e-9   # 10 - (4 + 3)
    assert abs(stats["a"]["self_total_s"] - 3.0) < 1e-9      # 4 - 1
    assert abs(stats["leaf"]["self_total_s"] - 1.0) < 1e-9
    assert abs(stats["b"]["self_total_s"] - 3.0) < 1e-9


def test_phase_stats_counts_and_quantiles():
    stats = phase_stats(_forest())
    assert set(stats) == {"root", "a", "leaf", "b"}
    assert all(entry["count"] == 1 for entry in stats.values())
    # One sample per name: every quantile is that sample, in ms.
    assert stats["a"]["self_p50_ms"] == stats["a"]["self_p99_ms"] == 3000.0
    assert all("mem_peak_kb" not in entry for entry in stats.values())

    # Equal names pool their self times; quantiles are nearest-rank.
    spans = _forest() + [
        _span("b", 5, 1, 9.0, 0.5),
        _span("b", 6, 1, 9.5, 0.25, mem_peak_kb=12.5),
    ]
    b = phase_stats(spans)["b"]
    assert b["count"] == 3
    assert abs(b["self_total_s"] - 3.75) < 1e-9
    assert (b["self_p50_ms"], b["self_p90_ms"], b["self_p99_ms"]) == \
        (500.0, 3000.0, 3000.0)
    assert b["mem_peak_kb"] == 12.5
    assert phase_stats([]) == {}


def test_phase_stats_groups_by_name():
    # Roots alone: self time is the whole duration.
    spans = [_span("a", 1, None, 0.0, 0.2), _span("a", 2, None, 1.0, 0.4),
             _span("b", 3, None, 2.0, 0.1)]
    stats = phase_stats(spans)
    assert stats["a"]["count"] == 2
    assert abs(stats["a"]["self_total_s"] - 0.6) < 1e-9
    assert stats["b"]["count"] == 1
    # The row view orders by total self time, largest first.
    assert [row["span"] for row in phase_rows(spans)] == ["a", "b"]
    assert phase_rows(spans)[0]["count"] == 2


def test_critical_path_descends_slowest_children():
    path = critical_path(_forest())
    assert [s.name for s in path] == ["root", "a", "leaf"]
    assert critical_path([]) == []


def test_collapsed_stacks_telescope_to_root_duration():
    lines = collapsed_stacks(_forest())
    assert "root 3000000.000" in lines
    assert "root;a;leaf 1000000.000" in lines
    total = sum(float(line.rsplit(" ", 1)[1]) for line in lines)
    assert abs(total - 10.0 * 1e6) < 1e-3


def test_collapsed_stacks_aggregate_equal_stacks():
    spans = [
        _span("root", 1, None, 0.0, 5.0),
        _span("x", 2, 1, 0.0, 1.0),
        _span("x", 3, 1, 2.0, 2.0),
    ]
    lines = collapsed_stacks(spans)
    assert lines == ["root 2000000.000", "root;x 3000000.000"]
