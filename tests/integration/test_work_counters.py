"""Exact, machine-independent work counters of a Table-I sweep.

Each counter is pinned to its exact value: a change that repeats work
per process start (or drops it) fails here by name, independent of
how fast the machine is.
"""

from repro.apk.package import ApkPackage
from repro.apk.resources import ResourceTable
from repro.bench.parallel import explore_one, sweep_rows
from repro.corpus import TABLE1_PLANS


def _counting_parse(monkeypatch):
    """Count every ``ResourceTable.from_public_xml`` call."""
    calls = []
    parse = ResourceTable.from_public_xml.__func__

    def counted(cls, package, text):
        calls.append(package)
        return parse(cls, package, text)

    monkeypatch.setattr(ResourceTable, "from_public_xml",
                        classmethod(counted))
    return calls


def _serial_rows():
    outcomes = {plan.package: explore_one(plan) for plan in TABLE1_PLANS}
    return [{key: value for key, value in row.items()
             if key != "duration_s"} for row in sweep_rows(outcomes)]


def test_resource_table_is_parsed_once_per_app(monkeypatch):
    calls = _counting_parse(monkeypatch)
    shared = _serial_rows()
    assert len(calls) == len(TABLE1_PLANS) == 15
    assert sorted(calls) == sorted(plan.package for plan in TABLE1_PLANS)

    # The same sweep with a fresh parse on every process start and
    # decode (the table never shared) explores identically.
    calls.clear()
    monkeypatch.setattr(ApkPackage, "resources", property(
        lambda apk: ResourceTable.from_public_xml(apk.package,
                                                  apk.public_xml)))
    monkeypatch.setattr(ApkPackage, "share_resources",
                        lambda apk, source: None)
    fresh = _serial_rows()
    assert len(calls) == 594
    assert fresh == shared
