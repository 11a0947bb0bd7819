"""Test helper: damage one result-cache entry in each way a read must catch."""

from __future__ import annotations

import json
import os
import shutil


def entry_path(cache, key):
    return os.path.join(cache.root, key[:2], key[2:] + ".json")


def _load(cache, key):
    with open(entry_path(cache, key), encoding="utf-8") as handle:
        return json.load(handle)


def _write(cache, key, text):
    with open(entry_path(cache, key), "w", encoding="utf-8") as handle:
        handle.write(text)


def _first_float_scaled(value):
    """``value`` with its first float (in sorted key order) times 1.5."""
    if isinstance(value, float):
        return value * 1.5, True
    if isinstance(value, dict):
        out = dict(value)
        for name in sorted(value):
            out[name], done = _first_float_scaled(value[name])
            if done:
                return out, True
    return value, False


def wrong_shape(cache, key, donor):
    cache.put(key, {"bogus": 1})  # an intact envelope around the wrong value


def altered_float(cache, key, donor):
    entry = _load(cache, key)
    entry["value"], done = _first_float_scaled(entry["value"])
    assert done
    _write(cache, key, json.dumps(entry))


def copied_from_another_key(cache, key, donor):
    shutil.copyfile(entry_path(cache, donor), entry_path(cache, key))


def bare_scalar(cache, key, donor):
    _write(cache, key, "3.5")


def pre_envelope(cache, key, donor):
    """The value alone, as every entry was stored before the envelope."""
    _write(cache, key, json.dumps(_load(cache, key)["value"]))


#: ``name -> fault(cache, key, donor_key)``; ``donor_key`` names another
#: intact entry of the same cache.
FAULTS = {
    fault.__name__: fault
    for fault in (
        wrong_shape,
        altered_float,
        copied_from_another_key,
        bare_scalar,
        pre_envelope,
    )
}
