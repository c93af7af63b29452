"""Resource table: ID assignment, uniqueness, round trips."""

import sys
import threading
from dataclasses import fields

import pytest

from repro.adb import instrument_manifest
from repro.apk.package import ApkPackage
from repro.apk.resources import ResourceTable
from repro.errors import ResourceError
from repro.types import RESOURCE_ID_BASE


def test_define_assigns_app_range_ids():
    table = ResourceTable("com.app")
    rid = table.define("id", "btn_login")
    assert RESOURCE_ID_BASE <= rid.value < 0x80000000
    assert rid.name == "btn_login"


def test_define_is_idempotent():
    table = ResourceTable("com.app")
    first = table.define("id", "btn")
    second = table.define("id", "btn")
    assert first == second
    assert len(table) == 1


def test_ids_unique_across_names():
    table = ResourceTable("com.app")
    values = {table.define("id", f"w{i}").value for i in range(100)}
    assert len(values) == 100


def test_types_use_distinct_namespaces():
    table = ResourceTable("com.app")
    id_rid = table.define("id", "main")
    layout_rid = table.define("layout", "main")
    assert id_rid.value != layout_rid.value
    assert table.lookup("id", "main") == id_rid
    assert table.lookup("layout", "main") == layout_rid


def test_lookup_missing_raises():
    table = ResourceTable("com.app")
    with pytest.raises(ResourceError):
        table.lookup("id", "nope")


def test_get_missing_returns_none():
    assert ResourceTable("com.app").get("id", "nope") is None


def test_unknown_type_rejected():
    with pytest.raises(ResourceError):
        ResourceTable("com.app").define("color", "red")


def test_reverse_lookup():
    table = ResourceTable("com.app")
    rid = table.define("id", "fragment_container")
    assert table.reverse(rid.value) == ("id", "fragment_container")
    assert table.name_of(rid.value) == "fragment_container"


def test_reverse_unknown_raises():
    with pytest.raises(ResourceError):
        ResourceTable("com.app").reverse(0x7F010099)


def test_public_xml_round_trip():
    table = ResourceTable("com.app")
    table.define("id", "btn_a")
    table.define("layout", "activity_main")
    table.define("string", "title")
    xml = table.to_public_xml()
    parsed = ResourceTable.from_public_xml("com.app", xml)
    assert parsed.lookup("id", "btn_a") == table.lookup("id", "btn_a")
    assert parsed.lookup("layout", "activity_main") == table.lookup(
        "layout", "activity_main"
    )
    assert len(parsed) == len(table)


def test_round_trip_preserves_counters():
    table = ResourceTable("com.app")
    for i in range(5):
        table.define("id", f"w{i}")
    parsed = ResourceTable.from_public_xml("com.app", table.to_public_xml())
    # New definitions continue after the restored entries, no collisions.
    fresh = parsed.define("id", "w_new")
    existing = {rid.value for _, _, rid in parsed.entries("id")
                if rid.name != "w_new"}
    assert fresh.value not in existing


def test_entries_filtered_by_type():
    table = ResourceTable("com.app")
    table.define("id", "a")
    table.define("layout", "b")
    ids = list(table.entries("id"))
    assert len(ids) == 1
    assert ids[0][1] == "a"


# ---------------------------------------------------------------------------
# The package's shared, read-only table
# ---------------------------------------------------------------------------

def test_package_table_is_parsed_once_and_read_only(demo_apk):
    table = demo_apk.resources
    assert demo_apk.resources is table
    assert list(table.entries()) == list(ResourceTable.from_public_xml(
        demo_apk.package, demo_apk.public_xml).entries())
    with pytest.raises(ResourceError, match="read-only"):
        table.define("id", "injected")
    with pytest.raises(ResourceError, match="read-only"):
        table.define("id", next(table.entries("id"))[1])
    assert table.get("id", "injected") is None


def test_package_table_is_not_part_of_the_package_identity(demo_apk):
    before = (demo_apk.digest(), repr(demo_apk))
    twin = ApkPackage(
        package=demo_apk.package,
        manifest_xml=demo_apk.manifest_xml,
        smali_files=dict(demo_apk.smali_files),
        layout_files=dict(demo_apk.layout_files),
        public_xml=demo_apk.public_xml,
        _spec=demo_apk.runtime_spec(),
    )
    demo_apk.resources
    assert (demo_apk.digest(), repr(demo_apk)) == before
    assert demo_apk == twin and twin == demo_apk
    assert {f.name for f in fields(ApkPackage)}.isdisjoint(
        {"resources", "_parsed_resources"})


def test_reassigning_public_xml_parses_again(demo_apk):
    first = demo_apk.resources
    grown = ResourceTable.from_public_xml(demo_apk.package,
                                          demo_apk.public_xml)
    grown.define("id", "added_later")
    demo_apk.public_xml = grown.to_public_xml()
    second = demo_apk.resources
    assert second is not first
    assert second.get("id", "added_later") is not None
    assert first.get("id", "added_later") is None
    assert demo_apk.resources is second


def test_instrumented_package_shares_the_source_table(demo_apk):
    instrumented = instrument_manifest(demo_apk)
    assert instrumented.resources is demo_apk.resources


def test_threads_share_one_read_only_view(demo_apk):
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def read():
            for _ in range(50):
                table = demo_apk.resources
                seen.append((list(table.entries()), table._read_only))

        threads = [threading.Thread(target=read, daemon=True)
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 400
    expected = list(ResourceTable.from_public_xml(
        demo_apk.package, demo_apk.public_xml).entries())
    assert all(entries == expected and read_only
               for entries, read_only in seen)
