"""Fleet bundle IO: a manifest JSON plus per-household CSV files.

Layout under a bundle directory::

    manifest.json                      roles, days, mode, household index
    pricing.csv                        slot,price,is_peak (48 rows)
    households/<id>/appliances.csv     one appliance per row
    households/<id>/history.csv        date,slot,value_kw (48 rows per date)
    households/<id>/pv_history.csv     same layout, PV generation (optional)

Floats are written with ``repr`` so a save/load round trip is bit-exact.
Every parse failure raises a :class:`FormatError` citing the file and line.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
from pathlib import Path

import numpy as np

from .core import (
    SLOT_COUNT,
    ApplianceSpec,
    DailyRecord,
    Household,
    LoadCurve,
    PricingSignal,
    PvSystem,
)
from .errors import FormatError, LoadshiftError
from .scheduler import candidate_starts
from .simulate import MODES, FleetConfig

BUNDLE_FORMAT_VERSION = 1

HISTORY_COLUMNS = ("date", "slot", "value_kw")
PRICING_COLUMNS = ("slot", "price", "is_peak")
APPLIANCE_COLUMNS = (
    "id",
    "kind",
    "duration_slots",
    "window_start",
    "window_end",
    "preferred_start",
    "max_shift",
    "power_csv",
    "count",
)


def _fail(path, line: int | None, message: str):
    place = f"{path}:{line}" if line is not None else str(path)
    raise FormatError(f"{place}: {message}")


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _read_json(path):
    """Parse a UTF-8 JSON file; any unreadable or malformed input is a ``FormatError``."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # int digit limit, or nesting deeper than the parser's recursion limit
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc


def _open_rows(path, expected_columns):
    """Yield the data rows of a CSV file, lazily and once, after checking its header.

    Lines split as ``str.splitlines`` splits them; callers number the rows
    from line 2.  An empty file, a header other than ``expected_columns`` or a
    CSV syntax error met partway through the stream raises a
    :class:`FormatError` naming ``file:line``.
    """
    reader = csv.reader(_read_text(path).splitlines())
    try:
        header = next(reader, None)
        if header is None:
            _fail(path, 1, "empty file")
        if tuple(header) != tuple(expected_columns):
            _fail(path, 1, f"expected columns {','.join(expected_columns)}, got {','.join(header)}")
        yield from reader
    except csv.Error as exc:
        _fail(path, reader.line_num, f"bad CSV: {exc}")


def _parse_float(text, path, line, column) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        _fail(path, line, f"non-numeric {column}: {text!r}")


def _parse_int(text, path, line, column) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        _fail(path, line, f"non-integer {column}: {text!r}")


def _write_csv(path, columns, rows) -> Path:
    """Write a header of ``columns`` and then ``rows``, one CSV line each."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------- history


def write_history_csv(records, path) -> Path:
    return _write_csv(path, HISTORY_COLUMNS, (
        (record.day.isoformat(), slot, repr(float(value)))
        for record in records
        for slot, value in enumerate(record.curve.values, start=1)
    ))


def _day_record(path, line, day, values) -> DailyRecord:
    if len(values) != SLOT_COUNT:
        _fail(path, line, f"day {day} has {len(values)} slots, expected {SLOT_COUNT}")
    try:
        return DailyRecord(day=day, curve=LoadCurve(np.array(values)))
    except LoadshiftError as exc:
        raise FormatError(f"{path}: day {day}: {exc}") from exc


# What ``write_history_csv`` writes, gated so that ``np.loadtxt`` reads it as
# the row walk does: loadtxt would drop "#" tails and blank lines, end lines
# only at "\n", parse "inf" and "nan", and take fields past csv's size limit.
_CANONICAL_HEADER = b"date,slot,value_kw\n"
_CANONICAL_BYTES = b"0123456789+-.eE,\n"
_CANONICAL_LINE_MAX = 64
# the date column is one character wider than an ISO date, so a longer text is seen, not cut
_CANONICAL_ROW = np.dtype([("date", "U11"), ("slot", "U3"), ("value_kw", "f8")])
_CANONICAL_SLOTS = np.array([str(slot) for slot in range(1, SLOT_COUNT + 1)])


def _read_canonical_history(path) -> tuple[DailyRecord, ...] | None:
    """The records of a history file in ``write_history_csv``'s form, or None.

    The file is parsed by one ``np.loadtxt`` call and checked as whole
    arrays.  Records are returned only when the row walk would return the
    same days and bit-equal curves; any other file, valid or not, gives None.
    """
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    body = data[len(_CANONICAL_HEADER):]
    if (
        not data.startswith(_CANONICAL_HEADER)
        or not body.endswith(b"\n")
        or body.translate(None, _CANONICAL_BYTES)
    ):
        return None
    # each line's length plus its "\n": none blank, none near csv's field size limit
    widths = np.diff(np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")))
    if widths.min() < 2 or widths.max() > _CANONICAL_LINE_MAX + 1:
        return None
    try:
        rows = np.loadtxt(
            io.StringIO(body.decode("ascii")),
            dtype=_CANONICAL_ROW, delimiter=",", comments=None, ndmin=1,
        )
    except ValueError:
        return None
    if len(rows) % SLOT_COUNT:
        return None
    dates = rows["date"].reshape(-1, SLOT_COUNT)
    values = rows["value_kw"].reshape(-1, SLOT_COUNT)
    if not (
        (rows["slot"].reshape(-1, SLOT_COUNT) == _CANONICAL_SLOTS).all()
        and (dates == dates[:, :1]).all()
        and values.min() >= 0
        and values.max() < np.inf
    ):
        return None
    days = []
    for text in dates[:, 0].tolist():
        if len(text) != 10:
            return None
        try:
            day = datetime.date.fromisoformat(text)
        except ValueError:
            return None
        if days and day <= days[-1]:
            return None
        days.append(day)
    return tuple(DailyRecord(day=day, curve=LoadCurve(curve)) for day, curve in zip(days, values))


def _walk_history_rows(path) -> tuple[DailyRecord, ...]:
    """Read stacked daily curves, streaming the rows once without holding them all.

    Each row is checked as it arrives.  The first malformed row, day,
    repeated day or CSV syntax error raises a :class:`FormatError` naming
    ``file:line``.
    """
    records = []
    day = None
    values = []
    for line, row in enumerate(_open_rows(path, HISTORY_COLUMNS), start=2):
        if len(row) != 3:
            _fail(path, line, f"expected 3 fields, got {len(row)}")
        try:
            row_day = datetime.date.fromisoformat(row[0])
        except ValueError:
            _fail(path, line, f"bad date: {row[0]!r}")
        slot = _parse_int(row[1], path, line, "slot")
        value = _parse_float(row[2], path, line, "value_kw")
        if row_day != day:
            if day is not None:
                records.append(_day_record(path, line, day, values))
                if row_day < day:
                    _fail(path, line, f"days out of order: {day} then {row_day}")
            day = row_day
            values = []
        if slot != len(values) + 1:
            if slot == 1 and len(values) == SLOT_COUNT:
                _fail(path, line, f"day {day} repeats")
            _fail(path, line, f"expected slot {len(values) + 1} for {day}, got {slot}")
        values.append(value)
    if day is None:
        _fail(path, 2, "history holds no days")
    records.append(_day_record(path, line + 1, day, values))
    return tuple(records)


def read_history_csv(path) -> tuple[DailyRecord, ...]:
    """Read stacked daily curves: ``date,slot,value_kw``, 48 rows per day, days ascending.

    A file in the form ``write_history_csv`` writes is parsed with numpy's C
    parser; any other file goes through the row walk, which returns the same
    records for the canonical form and is the one place that names an error.
    The first malformed row, day, repeated day or CSV syntax error raises a
    :class:`FormatError` naming ``file:line``.
    """
    return _read_canonical_history(path) or _walk_history_rows(path)


# ---------------------------------------------------------------- pricing


def write_pricing_csv(pricing: PricingSignal, path) -> Path:
    return _write_csv(path, PRICING_COLUMNS, (
        (slot, repr(float(price)), int(peak))
        for slot, (price, peak) in enumerate(zip(pricing.prices, pricing.peak_mask()), start=1)
    ))


def read_pricing_csv(path) -> PricingSignal:
    rows = list(_open_rows(path, PRICING_COLUMNS))
    if len(rows) != SLOT_COUNT:
        _fail(path, len(rows) + 1, f"pricing has {len(rows)} rows, expected {SLOT_COUNT}")
    prices = np.empty(SLOT_COUNT)
    peak = np.zeros(SLOT_COUNT, dtype=bool)
    for line, row in enumerate(rows, start=2):
        if len(row) != 3:
            _fail(path, line, f"expected 3 fields, got {len(row)}")
        slot = _parse_int(row[0], path, line, "slot")
        if slot != line - 1:
            _fail(path, line, f"expected slot {line - 1}, got {slot}")
        prices[slot - 1] = _parse_float(row[1], path, line, "price")
        flag = row[2].strip()
        if flag not in ("0", "1"):
            _fail(path, line, f"is_peak must be 0 or 1, got {flag!r}")
        peak[slot - 1] = flag == "1"

    # a window opens after each rising edge of the padded mask and closes at the next falling one
    edges = np.flatnonzero(np.diff([False, *peak, False]))
    windows = tuple(zip((edges[::2] + 1).tolist(), edges[1::2].tolist()))
    try:
        return PricingSignal(prices=prices, peak_windows=windows)
    except LoadshiftError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------- appliances


def write_appliances_csv(appliances, path) -> Path:
    return _write_csv(path, APPLIANCE_COLUMNS, (
        [
            ";".join(repr(float(p)) for p in spec.power_profile) if column == "power_csv"
            else getattr(spec, column)
            for column in APPLIANCE_COLUMNS
        ]
        for spec in appliances
    ))


def read_appliances_csv(path) -> tuple[ApplianceSpec, ...]:
    rows = list(_open_rows(path, APPLIANCE_COLUMNS))
    if not rows:
        _fail(path, 2, "households need at least one appliance")
    specs = []
    for line, row in enumerate(rows, start=2):
        if len(row) != len(APPLIANCE_COLUMNS):
            _fail(path, line, f"expected {len(APPLIANCE_COLUMNS)} fields, got {len(row)}")
        fields = dict(zip(APPLIANCE_COLUMNS, row))
        name = fields.pop("id").strip()
        if not name:
            _fail(path, line, "empty appliance id")
        kind = fields.pop("kind").strip()
        profile = np.array([
            _parse_float(piece, path, line, "power_csv")
            for piece in fields.pop("power_csv").split(";") if piece
        ])
        # every other column is a whole number
        numbers = {column: _parse_int(text, path, line, column) for column, text in fields.items()}
        try:
            specs.append(ApplianceSpec(id=name, kind=kind, power_profile=profile, **numbers))
        except LoadshiftError as exc:
            _fail(path, line, str(exc))
    return tuple(specs)


# ---------------------------------------------------------------- manifest


# a PV entry's number keys, which name the PvSystem fields they hold
_PV_NUMBERS = ("battery_capacity", "battery_soc", "charge_rate", "charge_efficiency")


def _manifest_entry(household: Household) -> dict:
    base = f"households/{household.id}"
    entry = {
        "id": household.id,
        "appliances": f"{base}/appliances.csv",
        "history": f"{base}/history.csv",
        "pv": None,
    }
    if household.pv is not None:
        entry["pv"] = {"generation_history": f"{base}/pv_history.csv"}
        entry["pv"].update((key, float(getattr(household.pv, key))) for key in _PV_NUMBERS)
    return entry


def save_bundle(config: FleetConfig, path) -> Path:
    """Write the fleet as a bundle directory; returns its root."""
    for household in config.households:
        if household.id in (".", "..") or any(c in household.id for c in "/\\\0"):
            raise FormatError(
                f"household id {household.id!r} cannot name a bundle directory"
            )
        # load_bundle refuses a history file that holds no day
        if not household.history:
            raise FormatError(f"household {household.id}: history holds no days")
        if household.pv is not None and not household.pv.history:
            raise FormatError(f"household {household.id}: pv history holds no days")
    entries = [_manifest_entry(h) for h in config.households]
    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "mode": config.mode,
        "days": [day.isoformat() for day in config.days],
        "pricing": "pricing.csv",
        "recipe": config.recipe,
        "households": entries,
    }
    # serialised before any file is written, so a refused manifest leaves nothing behind
    try:
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    except (TypeError, ValueError) as exc:
        raise FormatError(f"manifest cannot be written as JSON: {exc}") from exc
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    write_pricing_csv(config.pricing, root / manifest["pricing"])
    for household, entry in zip(config.households, entries):
        (root / entry["history"]).parent.mkdir(parents=True, exist_ok=True)
        write_appliances_csv(household.appliances, root / entry["appliances"])
        write_history_csv(household.history, root / entry["history"])
        if household.pv is not None:
            write_history_csv(household.pv.history, root / entry["pv"]["generation_history"])
    (root / "manifest.json").write_text(text, encoding="utf-8")
    return root


_JSON_NAMES = {str: "a string", list: "a list", dict: "an object"}


def _expect(value, kind: type, path, what: str):
    """A manifest field of the JSON type ``kind``; anything else fails."""
    if not isinstance(value, kind):
        _fail(path, None, f"{what} must be {_JSON_NAMES[kind]}, got {value!r}")
    return value


def _expect_number(value, path, what: str) -> float:
    """A manifest field that must be a JSON number, as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    _fail(path, None, f"{what} must be a number, got {value!r}")


def _bundle_path(root: Path, value, manifest_path, what: str) -> Path:
    """A manifest file path, which must be a string naming a file inside the bundle."""
    _expect(value, str, manifest_path, what)
    try:
        inside = not Path(value).is_absolute() and (
            (root / value).resolve().is_relative_to(root.resolve())
        )
    except (OSError, ValueError):
        inside = False
    if not inside:
        _fail(manifest_path, None, f"{what} {value!r} is not a path inside the bundle")
    return root / value


def _parse_days(doc: dict, manifest_path) -> tuple[datetime.date, ...]:
    """The manifest's simulation days, which must be ISO dates in strictly increasing order."""
    days = []
    for raw in _expect(doc["days"], list, manifest_path, "days"):
        try:
            day = datetime.date.fromisoformat(raw)
        except (TypeError, ValueError):
            _fail(manifest_path, None, f"bad day: {raw!r}")
        if days and day <= days[-1]:
            message = f"simulation days must be strictly increasing: {days[-1]} then {day}"
            _fail(manifest_path, None, message)
        days.append(day)
    if not days:
        _fail(manifest_path, None, "no simulation days")
    return tuple(days)


def _load_manifest(root: Path) -> dict:
    path = root / "manifest.json"
    doc = _read_json(path)
    if not isinstance(doc, dict):
        _fail(path, None, "manifest must be a JSON object")
    for key in ("format_version", "mode", "days", "pricing", "households"):
        if key not in doc:
            _fail(path, None, f"manifest is missing {key!r}")
    # bool is an int and 1.0 == 1, so compare the JSON type too
    if type(doc["format_version"]) is not int or doc["format_version"] != BUNDLE_FORMAT_VERSION:
        _fail(path, None, f"unsupported format_version {doc['format_version']!r}")
    if not isinstance(doc["households"], list) or not doc["households"]:
        _fail(path, None, "manifest lists no households")
    if doc["mode"] not in MODES:
        _fail(path, None, f"mode must be one of {MODES}, got {doc['mode']!r}")
    return doc


def _load_household(root: Path, entry, manifest_path) -> Household:
    if not isinstance(entry, dict) or "id" not in entry:
        _fail(manifest_path, None, f"bad household entry: {entry!r}")
    hid = _expect(entry["id"], str, manifest_path, "household id")
    files = {}
    for key in ("appliances", "history"):
        if key not in entry:
            _fail(manifest_path, None, f"household {hid}: missing {key!r}")
        files[key] = _bundle_path(root, entry[key], manifest_path, f"household {hid}: {key}")
    appliances = read_appliances_csv(files["appliances"])
    history = read_history_csv(files["history"])

    pv = None
    pv_entry = entry.get("pv")
    if pv_entry is not None:
        _expect(pv_entry, dict, manifest_path, f"household {hid}: pv")
        for key in ("generation_history", *_PV_NUMBERS):
            if key not in pv_entry:
                _fail(manifest_path, None, f"household {hid}: pv missing {key!r}")
        generation_path = _bundle_path(root, pv_entry["generation_history"], manifest_path,
                                       f"household {hid}: pv generation_history")
        numbers = {
            key: _expect_number(pv_entry[key], manifest_path, f"household {hid}: pv {key}")
            for key in _PV_NUMBERS
        }
        pv_history = read_history_csv(generation_path)
        try:
            pv = PvSystem(history=pv_history, **numbers)
        except LoadshiftError as exc:
            raise FormatError(f"{manifest_path}: household {hid}: {exc}") from exc

    try:
        household = Household(id=hid, appliances=appliances, pv=pv, history=history)
        # a solve from slot 1 scores the most starts; a later re-solve scores some of them
        candidate_starts([i for i in household.instances() if i.kind == "shiftable"])
    except LoadshiftError as exc:
        raise FormatError(f"{manifest_path}: household {hid}: {exc}") from exc
    return household


def _read_bundle(root: Path, problems: list[str] | None = None) -> FleetConfig | None:
    """Walk a bundle: manifest, days, pricing, then each household in order.

    With no ``problems`` list the first problem raises its :class:`FormatError`.
    With a list, each problem's message is appended and the walk goes on,
    unless the manifest itself is unusable; the fleet is returned only when
    no problem was found.
    """

    def step(read, *args):
        try:
            return read(*args)
        except LoadshiftError as exc:
            if problems is None:
                raise
            problems.append(str(exc))

    manifest_path = root / "manifest.json"
    doc = step(_load_manifest, root)
    if doc is None:
        return None
    days = step(_parse_days, doc, manifest_path)
    pricing = step(
        lambda: read_pricing_csv(_bundle_path(root, doc["pricing"], manifest_path, "pricing"))
    )
    households = []
    seen = set()
    for entry in doc["households"]:
        hid = entry.get("id") if isinstance(entry, dict) else None
        if isinstance(hid, str):  # a missing or non-string id is reported by _load_household
            if hid in seen:
                step(_fail, manifest_path, None, f"duplicate household id {hid!r}")
            seen.add(hid)
        households.append(step(_load_household, root, entry, manifest_path))
    if problems:
        return None
    return FleetConfig(households=tuple(households), pricing=pricing, days=days,
                       mode=doc["mode"], recipe=doc.get("recipe"))


def load_bundle(path) -> FleetConfig:
    """Read a bundle directory back into a validated fleet.

    Raises:
        FormatError: on the first problem ``lint_bundle`` lists, citing file and line.
    """
    return _read_bundle(Path(path))


def lint_bundle(path) -> tuple[str, ...]:
    """Collect every problem found in a bundle instead of stopping at one."""
    problems = []
    _read_bundle(Path(path), problems)
    return tuple(problems)
