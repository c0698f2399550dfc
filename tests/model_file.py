"""Model files as their raw entries, for tests that edit them."""

import json

import numpy as np


def read_model(path):
    """(arrays, header) of the model file at `path`: its array entries by
    name, and its JSON header as a dict."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    return arrays, json.loads(arrays.pop("header").tobytes())


def write_model(path, arrays, header):
    """Write `arrays` and `header` as `save_model` lays out a model file."""
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                 **arrays)


def first(arrays, kind):
    """The id of the first node of `kind` (a `forest` node kind)."""
    return int(np.flatnonzero(arrays["kind"] == kind)[0])


def with_code_past_labels(table, index):
    """`table` (a model's `sides` or `cat_coef`) with one more code column,
    set at `index` (True, or 0.5 for coefficients) and unset elsewhere."""
    unset, value = (False, True) if table.dtype == bool else (np.nan, 0.5)
    out = np.concatenate([table, np.full(table.shape[:-1] + (1,), unset)], axis=-1)
    out[index + (-1,)] = value
    return out
