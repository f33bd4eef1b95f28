"""JSON-ready views of datasets and models.

One serializer per concept, shared by every surface that talks about it:
``dpcopula inspect --json`` and the service's ``GET /datasets/<id>``
return the same :func:`dataset_summary` document, so scripts written
against one work against the other.  Sampled records have two: the
:func:`dataset_to_rows` document for library callers, and
:func:`sample_json`, its byte-identical JSON encoding built straight
from the record matrix, for the HTTP sample route.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

import numpy as np

from repro.data.dataset import Dataset, Schema


def schema_spec(schema: Schema) -> list:
    """Schema as a JSON-ready ``[[name, domain_size], ...]`` list."""
    return [[a.name, a.domain_size] for a in schema]


def dataset_summary(dataset: Dataset, name: Optional[str] = None) -> Dict[str, Any]:
    """The machine-readable counterpart of ``dpcopula inspect``.

    Mirrors the human-readable output field for field: schema with
    per-attribute domain classification, the total domain space, and
    whether the hybrid method is recommended (any small-domain
    attribute present).
    """
    schema = dataset.schema
    small = set(schema.small_domain_indices())
    summary: Dict[str, Any] = {
        "n_records": dataset.n_records,
        "dimensions": schema.dimensions,
        "domain_space": schema.domain_space(),
        "attributes": [
            {
                "name": attribute.name,
                "domain_size": attribute.domain_size,
                "kind": "small-domain" if j in small else "large-domain",
            }
            for j, attribute in enumerate(schema)
        ],
        "small_domain_attributes": [schema[j].name for j in sorted(small)],
        "hybrid_recommended": bool(small),
    }
    if name is not None:
        summary["dataset_id"] = name
    return summary


def dataset_to_rows(dataset: Dataset) -> Dict[str, Any]:
    """A dataset's records as a JSON-ready columns-plus-rows document."""
    return {
        "columns": dataset.schema.names,
        "records": dataset.values.tolist(),
        "n_records": dataset.n_records,
    }


def _chunk_words() -> np.ndarray:
    """Every base-1000 chunk as a little-endian word: three digits, then ``,``.

    Entry ``c`` spells a number's leading chunk, its leading zeros as NUL
    (so ``0`` stays ``"\\0\\00"``); entry ``1000 + c`` spells a chunk below
    the leading one, zero-filled; entry ``2000`` is a chunk above the
    leading one, all NUL.  The comma is the separator after a value's
    last chunk; after any other chunk, the next chunk overwrites it.
    """
    texts = [f"{c:>3}".replace(" ", "\0") for c in range(1000)]
    texts += [f"{c:03}" for c in range(1000)]
    texts.append("\0\0\0")
    return np.frombuffer("".join(t + "," for t in texts).encode("ascii"), "<u4")


_CHUNK_WORDS = _chunk_words()


def _padded_body(head: bytes, values: np.ndarray, tail: bytes) -> np.ndarray:
    """``head``, the rows of ``values`` as JSON text, then ``tail``: NUL-padded.

    Each value takes a fixed-width cell: ``3 * chunks`` digit bytes
    gathered from ``_CHUNK_WORDS``, then its separator — ``", "``, or
    ``"],"`` in a row's last cell.  Each row ends with ``" ["`` opening
    the next, and ``tail`` overwrites the last row's ``", ["``.  Without
    the NULs, the rows of ``[[1, 20], [300, 4]]`` read ``1, 20], [300, 4]``.
    """
    n, m = values.shape
    chunks = -(-len(str(int(values.max()))) // 3)
    width = 3 * chunks + 2
    row = m * width + 2
    buffer = np.empty(len(head) + n * row - 3 + len(tail), dtype=np.uint8)
    rows = buffer[len(head) : len(head) + n * row].reshape(n, row)
    template = np.zeros(row, dtype=np.uint8)
    template[width - 1 : m * width : width] = ord(" ")
    template[m * width - 1 :] = np.frombuffer(b", [", np.uint8)
    rows[...] = template
    cells = rows[:, : m * width].reshape(n, m, width)
    # Most significant chunk first, so each word's comma lands under
    # the next chunk or, after the last one, on the separator.
    for k in reversed(range(chunks)):
        scaled = values // 1000**k if k else values
        index = scaled
        if k < chunks - 1:
            index = scaled % 1000 + 1000 * (scaled >= 1000)
        if k:
            index = np.where(scaled == 0, 2000, index)
        offset = 3 * (chunks - 1 - k)
        words = cells[:, :, offset : offset + 4].view("<u4")[..., 0]
        words[...] = np.take(_CHUNK_WORDS, index)
    cells[:, -1, width - 2] = ord("]")
    buffer[: len(head)] = np.frombuffer(head, np.uint8)
    buffer[buffer.size - len(tail) :] = np.frombuffer(tail, np.uint8)
    return buffer


def sample_json(dataset: Dataset, extra: Dict[str, Any]) -> bytes:
    """``json.dumps(dataset_to_rows(dataset) | extra).encode()``, byte for byte.

    Builds the records straight from the ``int64`` value matrix instead
    of a list of Python ints: :func:`_padded_body` lays every value out
    in a fixed-width cell between the ``json.dumps`` of the scalar
    fields, and one boolean-mask compaction drops the NUL padding (text
    from ``json.dumps`` never holds a raw NUL).  Memory scales with the
    response, never with a domain size.  ``extra`` may not replace
    ``columns`` or ``records``.
    """
    if "columns" in extra or "records" in extra:
        raise ValueError("extra fields may not replace columns or records")
    head = json.dumps({"columns": dataset.schema.names})[:-1] + ', "records": ['
    tail = ", " + json.dumps({"n_records": dataset.n_records, **extra})[1:]
    if not dataset.n_records:
        return (head + "]" + tail).encode("utf-8")
    body = _padded_body(
        (head + "[").encode("utf-8"), dataset.values, ("]" + tail).encode("utf-8")
    )
    return body[body != 0].tobytes()
