"""run_regression as a PASS/BROKEN/CRASH classification of replays."""

import pytest

from repro import Device, FragDroid
from repro.apk import build_apk
from repro.core.regression import BROKEN, CRASH, run_regression
from repro.corpus import demo_tabbed_app
from repro.corpus.mutations import inject_crash, rename_widget


@pytest.fixture(scope="module")
def tabbed_baseline():
    return FragDroid(Device()).explore(build_apk(demo_tabbed_app()))


# The three versions examples/regression_check.py replays the suite on.
@pytest.mark.parametrize("mutate, counts", [
    (lambda spec: rename_widget(spec, "tab_recent", "tab_latest"), (5, 1, 0)),
    (lambda spec: inject_crash(spec, "category_row"), (5, 0, 1)),
    (lambda spec: spec, (6, 0, 0)),
], ids=["renamed-tab", "injected-crash", "unchanged"])
def test_tabbed_app_status_counts(tabbed_baseline, mutate, counts):
    report = run_regression(tabbed_baseline,
                            build_apk(mutate(demo_tabbed_app())))
    assert (report.passed, report.broken, report.crashed) == counts
    assert len(report.outcomes) == len(tabbed_baseline.passing_test_cases)


def test_details_carry_the_replay_divergence(tabbed_baseline):
    renamed = run_regression(tabbed_baseline, build_apk(
        rename_widget(demo_tabbed_app(), "tab_recent", "tab_latest")))
    (broken,) = renamed.of_status(BROKEN)
    assert "tab_recent" in broken.detail
    crashed = run_regression(tabbed_baseline, build_apk(
        inject_crash(demo_tabbed_app(), "category_row")))
    (crash,) = crashed.of_status(CRASH)
    assert "category_row" in crash.detail
    assert all(o.detail == "" for o in crashed.outcomes if o is not crash)
