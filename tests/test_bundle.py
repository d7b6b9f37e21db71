"""Bundle IO: round trips, strict parsing, and the collect-all linter."""

import csv
import dataclasses
import datetime
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshift.bundle import (
    _fail,
    _parse_float,
    _parse_int,
    _read_text,
    lint_bundle,
    load_bundle,
    read_appliances_csv,
    read_history_csv,
    read_pricing_csv,
    save_bundle,
    write_appliances_csv,
    write_history_csv,
    write_pricing_csv,
)
from loadshift.core import DailyRecord, LoadCurve
from loadshift.errors import FormatError, LoadshiftError
from loadshift.synth import SyntheticRecipe, generate_fleet

from conftest import make_fixed, make_pricing, make_shiftable


def tiny_fleet(seed=11, households=2):
    recipe = SyntheticRecipe(
        household_count=households,
        history_days=8,
        simulated_days=2,
        daily_energy_kwh=10.0,
        pv_fraction=1.0,
    )
    return generate_fleet(recipe, seed=seed)


def awkward_curve():
    # values picked to stress float round-tripping
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 5.0, 48)
    values[0] = 0.1 + 0.2  # 0.30000000000000004
    values[1] = 0.0
    values[2] = 1e-17
    return LoadCurve(values)


# -------------------------------------------------------------- single files


def test_history_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    records = tuple(
        DailyRecord(day=datetime.date(2025, 3, 1) + datetime.timedelta(days=d),
                    curve=LoadCurve(rng.uniform(0, 3, 48)))
        for d in range(5)
    )
    path = write_history_csv(records, tmp_path / "history.csv")
    back = read_history_csv(path)
    assert len(back) == 5
    for a, b in zip(records, back):
        assert a.day == b.day
        assert np.array_equal(a.curve.values, b.curve.values)


def test_history_days_must_ascend(tmp_path):
    records = (
        DailyRecord(day=datetime.date(2025, 3, 2), curve=LoadCurve(np.ones(48))),
        DailyRecord(day=datetime.date(2025, 3, 1), curve=LoadCurve(np.ones(48))),
    )
    path = write_history_csv(records, tmp_path / "history.csv")
    with pytest.raises(FormatError, match=r"out of order"):
        read_history_csv(path)


def test_history_short_day_names_the_day(tmp_path):
    records = (
        DailyRecord(day=datetime.date(2025, 3, 1), curve=LoadCurve(np.ones(48))),
        DailyRecord(day=datetime.date(2025, 3, 2), curve=LoadCurve(np.ones(48))),
    )
    path = write_history_csv(records, tmp_path / "history.csv")
    lines = path.read_text().splitlines()
    del lines[20]  # drop one slot of the first day
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=r"2025-03-01"):
        read_history_csv(path)


# The per-row history reader the streaming one replaced: it lists every row
# first and parses each row's date and slot.  Kept as the reference for records
# and for error text.


def reference_open_rows(path, expected_columns):
    reader = csv.reader(_read_text(path).splitlines())
    try:
        rows = list(reader)
    except csv.Error as exc:
        _fail(path, reader.line_num, f"bad CSV: {exc}")
    if not rows:
        _fail(path, 1, "empty file")
    if tuple(rows[0]) != tuple(expected_columns):
        _fail(path, 1, f"expected columns {','.join(expected_columns)}, got {','.join(rows[0])}")
    return rows[1:]


def reference_read_history_csv(path):
    rows = reference_open_rows(path, ("date", "slot", "value_kw"))
    records = []
    current_day = None
    values = []
    day_line = 2

    def flush(line):
        if current_day is None:
            return
        if len(values) != 48:
            _fail(path, line, f"day {current_day} has {len(values)} slots, expected 48")
        try:
            records.append(DailyRecord(day=current_day, curve=LoadCurve(np.array(values))))
        except LoadshiftError as exc:
            raise FormatError(f"{path}: day {current_day}: {exc}") from exc

    for line, row in enumerate(rows, start=2):
        if len(row) != 3:
            _fail(path, line, f"expected 3 fields, got {len(row)}")
        try:
            day = datetime.date.fromisoformat(row[0])
        except ValueError:
            _fail(path, line, f"bad date: {row[0]!r}")
        slot = _parse_int(row[1], path, line, "slot")
        value = _parse_float(row[2], path, line, "value_kw")
        if day != current_day:
            flush(line)
            if current_day is not None and day <= current_day:
                _fail(path, line, f"days out of order: {current_day} then {day}")
            current_day = day
            values = []
            day_line = line
        if slot != len(values) + 1:
            _fail(path, line, f"expected slot {len(values) + 1} for {day}, got {slot}")
        values.append(value)
    flush(day_line + len(values))
    if not records:
        _fail(path, 2, "history holds no days")
    return tuple(records)


def assert_same_records(got, want):
    assert [r.day for r in got] == [r.day for r in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.curve.values, b.curve.values)


def seeded_history(seed, days=6):
    rng = np.random.default_rng(seed)
    start = datetime.date(2024, 12, 28)  # crosses a year boundary
    records = []
    for d in range(days):
        values = rng.uniform(0.0, 5.0, 48)
        values[rng.integers(48)] = 0.0
        values[rng.integers(48)] = rng.uniform(0.0, 1e-300)
        records.append(DailyRecord(day=start + datetime.timedelta(days=d), curve=LoadCurve(values)))
    records.append(DailyRecord(day=start + datetime.timedelta(days=days), curve=awkward_curve()))
    return tuple(records)


@pytest.mark.parametrize("seed", range(4))
def test_history_matches_per_row_reference_on_seeded_files(tmp_path, seed):
    records = seeded_history(seed)
    path = write_history_csv(records, tmp_path / "history.csv")
    got = read_history_csv(path)
    assert_same_records(got, reference_read_history_csv(path))
    assert_same_records(got, records)


def test_history_matches_per_row_reference_on_fleet_files(tmp_path):
    root = save_bundle(tiny_fleet(seed=5), tmp_path / "bundle")
    paths = sorted(root.glob("households/*/*history.csv"))
    assert len(paths) == 4
    for path in paths:
        assert_same_records(read_history_csv(path), reference_read_history_csv(path))


def _history_lines():
    """Header plus three days of rows; days start at indices 1, 49 and 97."""
    records = tuple(
        DailyRecord(day=datetime.date(2025, 3, 1) + datetime.timedelta(days=d),
                    curve=LoadCurve(np.linspace(0.1, 2.0, 48) + d))
        for d in range(3)
    )
    with tempfile.TemporaryDirectory() as scratch:
        return write_history_csv(records, Path(scratch) / "h.csv").read_text().splitlines()


def _set_field(lines, index, field, text):
    row = lines[index].split(",")
    row[field] = text
    lines[index] = ",".join(row)


def _swap_days(lines):
    lines[49:97], lines[97:145] = lines[97:145], lines[49:97]


MALFORMED_HISTORIES = {
    "47-row day": lambda lines: lines.pop(60),
    "47-row last day": lambda lines: lines.pop(),
    "49-row day": lambda lines: lines.insert(49, "2025-03-01,49,1.0"),
    "49-row last day": lambda lines: lines.append("2025-03-03,49,1.0"),
    "bad date inside a day": lambda lines: _set_field(lines, 70, 0, "2025-03-32"),
    "bad date starting a day": lambda lines: _set_field(lines, 97, 0, "March 3"),
    "slot gap": lambda lines: _set_field(lines, 10, 1, "11"),
    "slot zero": lambda lines: _set_field(lines, 49, 1, "0"),
    "non-integer slot": lambda lines: _set_field(lines, 5, 1, "5.0"),
    "non-numeric value": lambda lines: _set_field(lines, 30, 2, "banana"),
    "negative value": lambda lines: _set_field(lines, 100, 2, "-0.5"),
    "NaN value": lambda lines: _set_field(lines, 3, 2, "nan"),
    "infinite value": lambda lines: _set_field(lines, 144, 2, "inf"),
    "two fields": lambda lines: lines.__setitem__(12, "2025-03-01,12"),
    "four fields": lambda lines: lines.__setitem__(50, lines[50] + ",9"),
    "empty row": lambda lines: lines.insert(20, ""),
    "days out of order": _swap_days,
    "repeated day": lambda lines: lines.extend(lines[97:145]),
    "repeated earlier day": lambda lines: lines.extend(lines[1:49]),
    "wrong header": lambda lines: lines.__setitem__(0, "date,slot,kw"),
    "header only": lambda lines: lines.__delitem__(slice(1, None)),
    "empty file": lambda lines: lines.clear(),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HISTORIES))
def test_history_errors_match_per_row_reference(tmp_path, case):
    lines = _history_lines()
    MALFORMED_HISTORIES[case](lines)
    path = tmp_path / "history.csv"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(FormatError) as want:
        reference_read_history_csv(path)
    with pytest.raises(FormatError) as got:
        read_history_csv(path)
    assert str(got.value) == str(want.value)
    assert re.match(rf"{re.escape(str(path))}(:\d+)?: ", str(got.value))


VALID_VARIANTS = {
    "spaced slot": lambda text: text.replace("2025-03-02,7,", "2025-03-02, 7,"),
    "signed slot": lambda text: text.replace("2025-03-02,7,", "2025-03-02,+7,"),
    "zero-padded slot": lambda text: text.replace("2025-03-03,9,", "2025-03-03,09,"),
    "quoted fields": lambda text: text.replace("2025-03-01,5,", '"2025-03-01","5",'),
    "compact date text": lambda text: text.replace("2025-03-02,30,", "20250302,30,"),
    "CRLF line endings": lambda text: text.replace("\n", "\r\n"),
}


@pytest.mark.parametrize("case", sorted(VALID_VARIANTS))
def test_history_valid_variants_load_like_the_reference(tmp_path, case):
    if case == "compact date text" and sys.version_info < (3, 11):
        pytest.skip("date.fromisoformat reads only YYYY-MM-DD before Python 3.11")
    text = "".join(line + "\n" for line in _history_lines())
    changed = VALID_VARIANTS[case](text)
    assert changed != text
    path = tmp_path / "history.csv"
    path.write_bytes(changed.encode())
    got = read_history_csv(path)
    assert len(got) == 3
    assert_same_records(got, reference_read_history_csv(path))


def test_pricing_round_trip_recovers_windows(tmp_path):
    pricing = make_pricing(peak_windows=((10, 14), (35, 44)))
    path = write_pricing_csv(pricing, tmp_path / "pricing.csv")
    back = read_pricing_csv(path)
    assert np.array_equal(back.prices, pricing.prices)
    assert back.peak_windows == ((10, 14), (35, 44))


def test_pricing_flag_must_be_binary(tmp_path):
    path = write_pricing_csv(make_pricing(), tmp_path / "pricing.csv")
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=rf"{path}:4: is_peak must be 0 or 1"):
        read_pricing_csv(path)


def test_appliances_round_trip(tmp_path):
    specs = (
        make_shiftable(id="wash", power=0.731, duration=3, preferred=20, max_shift=6),
        make_fixed(id="fridge", power=0.119, duration=48, start=1),
    )
    path = write_appliances_csv(specs, tmp_path / "appliances.csv")
    back = read_appliances_csv(path)
    assert [s.id for s in back] == ["wash", "fridge"]
    for a, b in zip(specs, back):
        assert a.kind == b.kind
        assert a.duration_slots == b.duration_slots
        assert (a.window_start, a.window_end) == (b.window_start, b.window_end)
        assert a.preferred_start == b.preferred_start
        assert a.max_shift == b.max_shift
        assert a.count == b.count
        assert np.array_equal(a.power_profile, b.power_profile)


def test_appliance_constraint_errors_cite_the_row(tmp_path):
    path = tmp_path / "appliances.csv"
    path.write_text(
        "id,kind,duration_slots,window_start,window_end,preferred_start,"
        "max_shift,power_csv,count\n"
        "oven,shiftable,6,10,12,10,2,1.0;1.0;1.0;1.0;1.0;1.0,1\n"
    )
    with pytest.raises(FormatError, match=rf"{path}:2: .*window shorter than one run"):
        read_appliances_csv(path)


def test_appliance_table_cannot_be_empty(tmp_path):
    path = tmp_path / "appliances.csv"
    path.write_text(
        "id,kind,duration_slots,window_start,window_end,preferred_start,"
        "max_shift,power_csv,count\n"
    )
    with pytest.raises(FormatError, match=r"at least one appliance"):
        read_appliances_csv(path)


# -------------------------------------------------------------- whole bundles


def test_bundle_round_trip_preserves_everything(tmp_path):
    fleet = tiny_fleet()
    root = save_bundle(fleet, tmp_path / "bundle")
    back = load_bundle(root)

    assert back.mode == fleet.mode
    assert back.days == fleet.days
    assert back.recipe == fleet.recipe
    assert np.array_equal(back.pricing.prices, fleet.pricing.prices)
    assert back.pricing.peak_windows == fleet.pricing.peak_windows

    assert [h.id for h in back.households] == [h.id for h in fleet.households]
    for ha, hb in zip(fleet.households, back.households):
        assert [s.id for s in hb.appliances] == [s.id for s in ha.appliances]
        for sa, sb in zip(ha.appliances, hb.appliances):
            assert np.array_equal(sa.power_profile, sb.power_profile)
            assert sa.max_shift == sb.max_shift
        assert len(hb.history) == len(ha.history)
        for ra, rb in zip(ha.history, hb.history):
            assert ra.day == rb.day
            assert np.array_equal(ra.curve.values, rb.curve.values)
        assert (ha.pv is None) == (hb.pv is None)
        if ha.pv is not None:
            assert hb.pv.battery_capacity == ha.pv.battery_capacity
            assert hb.pv.charge_rate == ha.pv.charge_rate
            assert hb.pv.charge_efficiency == ha.pv.charge_efficiency
            assert hb.pv.battery_soc == ha.pv.battery_soc
            for ra, rb in zip(ha.pv.history, hb.pv.history):
                assert ra.day == rb.day
                assert np.array_equal(ra.curve.values, rb.curve.values)


def test_save_is_byte_stable(tmp_path):
    fleet = tiny_fleet()
    a = save_bundle(fleet, tmp_path / "a")
    b = save_bundle(fleet, tmp_path / "b")
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_manifest_missing_key_rejected(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    del doc["pricing"]
    (root / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=r"missing 'pricing'"):
        load_bundle(root)


def test_manifest_version_gate(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    doc["format_version"] = 99
    (root / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=r"format_version 99"):
        load_bundle(root)


def test_manifest_bad_json_cites_line(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    (root / "manifest.json").write_text('{\n  "mode": "offline",,\n}\n')
    with pytest.raises(FormatError, match=r"manifest.json:2: invalid JSON"):
        load_bundle(root)


def _pv(doc):
    return doc["households"][0]["pv"]


# manifest fields of the wrong JSON type: (mutation, expected message)
WRONG_TYPED_FIELDS = {
    "days": (lambda doc: doc.update(days=5), r"days must be a list, got 5"),
    "mode": (
        lambda doc: doc.update(mode=["offline"]),
        r"mode must be one of \('offline', 'online'\), got \['offline'\]",
    ),
    "pricing": (lambda doc: doc.update(pricing=5), r"pricing must be a string, got 5"),
    "household id": (
        lambda doc: doc["households"][0].update(id=["h001"]),
        r"household id must be a string, got \['h001'\]",
    ),
    "appliances": (
        lambda doc: doc["households"][0].update(appliances=7),
        r"household h001: appliances must be a string, got 7",
    ),
    "pv": (
        lambda doc: doc["households"][0].update(pv=3),
        r"household h001: pv must be an object, got 3",
    ),
    "battery_capacity": (
        lambda doc: _pv(doc).update(battery_capacity="abc"),
        r"household h001: pv battery_capacity must be a number, got 'abc'",
    ),
    "battery_soc": (
        lambda doc: _pv(doc).update(battery_soc=True),
        r"household h001: pv battery_soc must be a number, got True",
    ),
    "charge_rate": (
        lambda doc: _pv(doc).update(charge_rate=10**400),
        r"household h001: pv charge_rate must be a number",
    ),
}


@pytest.mark.parametrize("field", sorted(WRONG_TYPED_FIELDS))
def test_manifest_wrong_typed_field_is_a_format_error(tmp_path, field):
    mutate, message = WRONG_TYPED_FIELDS[field]
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    mutate(doc)
    (root / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=message):
        load_bundle(root)
    problems = lint_bundle(root)
    assert any(re.search(message, p) for p in problems), problems


def test_load_wraps_fleet_errors_as_format_errors(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    doc["days"] = doc["days"][::-1]
    (root / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=r"manifest.json: simulation days must be strictly"):
        load_bundle(root)

    doc["days"] = doc["days"][::-1]
    doc["households"].append(doc["households"][0])
    (root / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=r"manifest.json: household ids must be unique"):
        load_bundle(root)


def test_load_raises_first_problem_lint_collects_all(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    # break two different files
    pricing = (root / "pricing.csv").read_text().splitlines()
    pricing[7] = "xx" + pricing[7][1:]
    (root / "pricing.csv").write_text("\n".join(pricing) + "\n")
    history = root / "households" / "h002" / "history.csv"
    lines = history.read_text().splitlines()
    lines[3] = lines[3].replace(",", ",,", 1)
    history.write_text("\n".join(lines) + "\n")

    with pytest.raises(FormatError, match=r"pricing.csv:8"):
        load_bundle(root)

    problems = lint_bundle(root)
    assert len(problems) == 2
    assert any("pricing.csv:8" in p for p in problems)
    assert any("history.csv:4" in p for p in problems)


def test_lint_flags_duplicate_household_ids(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    doc["households"].append(doc["households"][0])
    (root / "manifest.json").write_text(json.dumps(doc))
    problems = lint_bundle(root)
    assert any("duplicate household id 'h001'" in p for p in problems)


def test_lint_on_clean_bundle_is_quiet(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    assert lint_bundle(root) == ()


@pytest.mark.parametrize("days", [["2025-01-09", "2025-01-08"], ["2025-01-08", "2025-01-08"]])
def test_lint_and_load_agree_on_day_order(tmp_path, days):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    doc["days"] = days
    (root / "manifest.json").write_text(json.dumps(doc))
    message = r"manifest.json: simulation days must be strictly increasing: 2025-01-0. then"
    with pytest.raises(FormatError, match=message):
        load_bundle(root)
    problems = lint_bundle(root)
    assert len(problems) == 1 and re.search(message, problems[0]), problems


@pytest.mark.parametrize(
    "name", ["manifest.json", "pricing.csv", "households/h001/appliances.csv"]
)
def test_invalid_utf8_is_a_format_error(tmp_path, name):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    with (root / name).open("ab") as handle:
        handle.write(b"\xff\xfe")
    message = rf"{re.escape(name)}: not UTF-8 text"
    with pytest.raises(FormatError, match=message):
        load_bundle(root)
    problems = lint_bundle(root)
    assert any(re.search(message, p) for p in problems), problems


def test_csv_field_over_the_parser_limit_is_a_format_error(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    path = root / "households" / "h001" / "history.csv"
    lines = path.read_text().splitlines()
    lines[29] = lines[29].rsplit(",", 1)[0] + "," + "1" * 200_000  # line 30, partway through
    path.write_text("\n".join(lines) + "\n")
    message = rf"{re.escape(str(path))}:30: bad CSV: field larger"
    with pytest.raises(FormatError, match=message):
        read_history_csv(path)
    with pytest.raises(FormatError, match=message):
        load_bundle(root)


def test_manifest_integer_over_the_digit_limit_is_a_format_error(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    text = (root / "manifest.json").read_text()
    (root / "manifest.json").write_text(
        text.replace('"format_version": 1', '"format_version": ' + "9" * 5000)
    )
    message = r"manifest.json: invalid JSON: Exceeds the limit"
    with pytest.raises(FormatError, match=message):
        load_bundle(root)
    assert re.search(message, lint_bundle(root)[0])


# each manifest file path: (how to set it, its name in the error, the file it names)
FILE_FIELDS = {
    "pricing": (lambda doc, value: doc.update(pricing=value), "pricing", "pricing.csv"),
    "appliances": (
        lambda doc, value: doc["households"][0].update(appliances=value),
        "household h001: appliances",
        "households/h001/appliances.csv",
    ),
    "history": (
        lambda doc, value: doc["households"][0].update(history=value),
        "household h001: history",
        "households/h001/history.csv",
    ),
    "generation_history": (
        lambda doc, value: _pv(doc).update(generation_history=value),
        "household h001: pv generation_history",
        "households/h001/pv_history.csv",
    ),
}


@pytest.mark.parametrize("where", ["absolute", "parent"])
@pytest.mark.parametrize("field", sorted(FILE_FIELDS))
def test_manifest_paths_must_stay_inside_the_bundle(tmp_path, field, where):
    set_path, what, source = FILE_FIELDS[field]
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    # a valid file outside the bundle, so only the path check can refuse it
    outside = tmp_path / "outside.csv"
    shutil.copy(root / source, outside)
    value = str(outside) if where == "absolute" else "../outside.csv"
    doc = json.loads((root / "manifest.json").read_text())
    set_path(doc, value)
    (root / "manifest.json").write_text(json.dumps(doc))
    message = f"{what} {value!r} is not a path inside the bundle"
    with pytest.raises(FormatError, match=re.escape(message)):
        load_bundle(root)
    problems = lint_bundle(root)
    assert any(message in p for p in problems), problems


def test_manifest_paths_may_wander_inside_the_bundle(tmp_path):
    root = save_bundle(tiny_fleet(), tmp_path / "bundle")
    doc = json.loads((root / "manifest.json").read_text())
    doc["pricing"] = "households/../pricing.csv"
    (root / "manifest.json").write_text(json.dumps(doc))
    assert lint_bundle(root) == ()
    load_bundle(root)


@pytest.mark.parametrize("household_id", ["../x", "ABSOLUTE", "a/b", "a\\b", ".", ".."])
def test_save_refuses_ids_that_are_not_one_path_component(tmp_path, household_id):
    if household_id == "ABSOLUTE":
        household_id = str(tmp_path / "elsewhere")
    fleet = tiny_fleet()
    first = dataclasses.replace(fleet.households[0], id=household_id)
    fleet = dataclasses.replace(fleet, households=(first, *fleet.households[1:]))
    with pytest.raises(FormatError, match="cannot name a bundle directory"):
        save_bundle(fleet, tmp_path / "bundle")
    assert list(tmp_path.iterdir()) == []


# -------------------------------------------------------------- mutated bundles


@pytest.fixture(scope="module")
def clean_bundle(tmp_path_factory):
    return save_bundle(tiny_fleet(), tmp_path_factory.mktemp("clean") / "bundle")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _value_slots(node):
    """(container, key) for every value nested anywhere in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _value_slots(value)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_bundle_loads_or_raises_a_loadshift_error(clean_bundle, data):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(shutil.copytree(clean_bundle, Path(scratch) / "bundle"))
        kind = data.draw(st.sampled_from(["manifest value", "truncate", "append"]))
        if kind == "manifest value":
            doc = json.loads((root / "manifest.json").read_text())
            node, key = data.draw(st.sampled_from(list(_value_slots(doc))))
            old = node[key]
            node[key] = data.draw(json_values.filter(lambda v: type(v) is not type(old)))
            (root / "manifest.json").write_text(json.dumps(doc))
        else:
            files = sorted(p for p in root.rglob("*") if p.is_file())
            path = data.draw(st.sampled_from(files))
            content = path.read_bytes()
            if kind == "truncate":
                content = content[: data.draw(st.integers(0, len(content) - 1))]
            else:
                content += data.draw(st.binary(min_size=1, max_size=64))
            path.write_bytes(content)

        try:
            load_bundle(root)
            loaded = True
        except LoadshiftError:
            loaded = False
        problems = lint_bundle(root)
        assert all(isinstance(p, str) for p in problems)
        assert loaded == (problems == ()), problems
