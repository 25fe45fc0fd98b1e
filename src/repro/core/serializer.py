"""Serialization of named tensor collections and the FedSZ bitstream layout.

The reference implementation pickles the compressed dictionary before the
final lossless pass; pickle is unsafe to load from untrusted peers, so this
reproduction uses an explicit, self-describing binary framing built on the
same section format as the compressor payloads:

``FedSZ payload``
    ├── ``header``   — pipeline configuration + format version
    ├── ``lossy``    — one section per lossy tensor, each holding the raw
    │                  EBLC payload for that tensor
    └── ``lossless`` — the lossless-compressed serialization of every
                       remaining tensor (metadata, biases, running stats)

Both directions are pure functions of the byte string — no code execution on
load, unlike pickle.
"""

from __future__ import annotations

import functools
import json
import struct
from types import MappingProxyType
from typing import Dict, Mapping, NamedTuple, Tuple

import numpy as np

from repro.compression.base import (
    append_array,
    append_section,
    append_section_header,
    begin_sections,
    pack_sections,
    sections_nbytes,
    unpack_array,
    unpack_sections,
)
from repro.compression.errors import CorruptPayloadError
from repro.compression.inflate import crc32

_FORMAT_VERSION = 1
_HEADER_KEY = "header"
_LOSSY_KEY = "lossy"
_LOSSLESS_KEY = "lossless"


def frame_checksummed(magic: bytes, payload: bytes) -> bytes:
    """Wrap ``payload`` in a 4-byte magic + CRC32 frame.

    Durable on-disk artefacts (run checkpoints) use this so that torn writes
    and bit rot are detected deterministically on load instead of surfacing as
    arbitrary parse errors deeper in the section framing.
    """
    if len(magic) != 4:
        raise ValueError(f"magic must be exactly 4 bytes, got {len(magic)}")
    return magic + struct.pack("<I", crc32(payload)) + payload


def unframe_checksummed(magic: bytes, blob: bytes) -> bytes:
    """Inverse of :func:`frame_checksummed`; raises :class:`CorruptPayloadError`
    on a foreign magic, a truncated frame, or a checksum mismatch."""
    if len(magic) != 4:
        raise ValueError(f"magic must be exactly 4 bytes, got {len(magic)}")
    if len(blob) < 8:
        raise CorruptPayloadError("frame too short to hold magic and checksum")
    if blob[:4] != magic:
        raise CorruptPayloadError(
            f"bad frame magic {blob[:4]!r} (expected {magic!r})"
        )
    (expected,) = struct.unpack_from("<I", blob, 4)
    payload = blob[8:]
    actual = crc32(payload)
    if actual != expected:
        raise CorruptPayloadError(
            f"frame checksum mismatch (stored {expected:#010x}, computed "
            f"{actual:#010x}); the file is truncated or corrupt"
        )
    return payload


def serialize_named_arrays(arrays: Mapping[str, np.ndarray]) -> bytes:
    """Serialize a name→array mapping preserving order, dtypes and shapes.

    One section per array (:func:`~repro.compression.base.pack_array`'s
    layout), each written straight into the one output buffer.
    """
    return pack_sections(arrays, append_array)


class _ArrayLayout(NamedTuple):
    """Where a named-array blob's framing sits, what it holds, and what it says.

    The framing is every byte the walk of :func:`deserialize_named_arrays`
    reads (section headers, names, dtypes and shapes); everything else is
    array data, which is copied and never parsed.  A blob of the same length
    whose framing bytes are the same walks to the same names, dtypes, shapes
    and offsets, and passes the same checks, so it is read from here.
    """

    framing_at: np.ndarray
    framing: bytes
    #: ``(name, shape, dtype, data offset)`` of each array, in order.
    arrays: Tuple[Tuple[str, Tuple[int, ...], np.dtype, int], ...]


#: Layouts by blob length: a round's uploads of one model share one.
_LAYOUTS: Dict[int, _ArrayLayout] = {}
_LAYOUTS_KEPT = 16


def _layout_of(payload: bytes, arrays: Dict[str, np.ndarray], spans: list) -> _ArrayLayout:
    """The layout of a blob the walk read as ``arrays``, their data at ``spans``."""
    runs, end = [], 0
    for start, stop in [*spans, (len(payload), len(payload))]:
        runs.append(np.arange(end, start))  # the framing between two arrays' data
        end = stop
    framing_at = np.concatenate(runs)
    framing_at.flags.writeable = False
    return _ArrayLayout(
        framing_at,
        np.frombuffer(payload, dtype=np.uint8)[framing_at].tobytes(),
        tuple(
            (name, array.shape, array.dtype, start)
            for (name, array), (start, _) in zip(arrays.items(), spans, strict=True)
        ),
    )


def deserialize_named_arrays(payload: bytes) -> Dict[str, np.ndarray]:
    """Inverse of :func:`serialize_named_arrays`.

    The framing is parsed once per distinct layout: the first blob of a
    layout is walked once, through a ``memoryview``, with every check of
    :func:`~repro.compression.base.unpack_sections` and
    :func:`~repro.compression.base.unpack_array`; a later blob of the same
    length whose framing bytes equal it (one gather and compare) skips the
    walk.  Either way each array is copied once, out of the payload into an
    array of its own.
    """
    layout = _LAYOUTS.get(len(payload))
    if layout is not None and (
        np.frombuffer(payload, dtype=np.uint8)[layout.framing_at].tobytes() == layout.framing
    ):
        return {
            name: np.ndarray(shape, dtype, payload, offset).copy()
            for name, shape, dtype, offset in layout.arrays
        }
    view = memoryview(payload)
    spans = []

    def read(_, start: int, end: int) -> np.ndarray:
        array = unpack_array(view[start:end])
        spans.append((end - array.nbytes, end))
        return array

    arrays = unpack_sections(view, read)
    if len(_LAYOUTS) >= _LAYOUTS_KEPT:
        _LAYOUTS.clear()  # one call, so lanes filling it at once cannot trip over each other
    _LAYOUTS[len(payload)] = _layout_of(payload, arrays, spans)
    return arrays


def _frozen(value):
    """``value`` with every JSON object a read-only mapping and every array a tuple."""
    if isinstance(value, dict):
        return MappingProxyType({key: _frozen(item) for key, item in value.items()})
    if isinstance(value, list):
        return tuple(_frozen(item) for item in value)
    return value


def _thawed(value):
    """JSON encoder fallback: a header that :func:`parse_fedsz_payload` froze."""
    if isinstance(value, MappingProxyType):
        return dict(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


_HEADER_JSON = json.JSONEncoder(sort_keys=True, default=_thawed)


@functools.lru_cache(maxsize=16)
def _parse_header(blob: bytes) -> Mapping[str, object]:
    """A FedSZ header, parsed once per distinct bytes and frozen.

    Every upload of a round under one config carries the same header (codecs,
    bound, each lossy tensor's shape and dtype), so a round parses it once.
    The cached header is read-only all the way down, so no caller can change
    what the next payload with these bytes decodes to.
    """
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CorruptPayloadError(f"FedSZ header is not valid JSON: {error}") from error
    if not isinstance(header, dict):
        raise CorruptPayloadError("FedSZ header is not a JSON object")
    if header.get("format_version") != _FORMAT_VERSION:
        raise CorruptPayloadError(
            f"unsupported FedSZ payload version {header.get('format_version')!r}"
        )
    return _frozen(header)


def build_fedsz_payload(
    header: Mapping[str, object],
    lossy_payloads: Mapping[str, bytes],
    lossless_blob: bytes,
) -> bytes:
    """Assemble the final FedSZ bitstream.

    Per-tensor lossy payloads stream straight into the output buffer: the
    nested ``lossy`` section's framed size is computed up front so its entry
    header can be written first, instead of materialising the whole lossy
    partition as an intermediate blob and copying it a second time into the
    outer framing (for a large model that intermediate is most of the
    bitstream).  The byte layout is unchanged — :func:`parse_fedsz_payload`
    and generic :func:`unpack_sections` read it as before.  ``header`` may be
    one :func:`parse_fedsz_payload` returned.
    """
    header = dict(header)
    header["format_version"] = _FORMAT_VERSION
    header_blob = _HEADER_JSON.encode(header).encode("utf-8")
    lossy_nbytes = sections_nbytes({name: len(blob) for name, blob in lossy_payloads.items()})

    buffer = bytearray()
    begin_sections(buffer, 3)
    append_section(buffer, _HEADER_KEY, struct.pack("<I", len(header_blob)) + header_blob)
    append_section_header(buffer, _LOSSY_KEY, lossy_nbytes)
    begin_sections(buffer, len(lossy_payloads))
    for name, blob in lossy_payloads.items():
        append_section(buffer, name, blob)
    append_section(buffer, _LOSSLESS_KEY, lossless_blob)
    return bytes(buffer)


def _copied(data: memoryview, start: int, end: int) -> bytes:
    return bytes(data[start:end])


def parse_fedsz_payload(
    payload: bytes,
) -> Tuple[Mapping[str, object], Dict[str, bytes], bytes]:
    """Split a FedSZ bitstream back into header, lossy payloads and lossless blob.

    The header is read-only (see :func:`_parse_header`).  The sections are
    walked through a ``memoryview``, so each lossy payload and the lossless
    blob is copied once, out of ``payload``.
    """
    sections = unpack_sections(memoryview(payload))
    for key in (_HEADER_KEY, _LOSSY_KEY, _LOSSLESS_KEY):
        if key not in sections:
            raise CorruptPayloadError(f"FedSZ payload missing section {key!r}")
    header_section = sections[_HEADER_KEY]
    if len(header_section) < 4:
        raise CorruptPayloadError("FedSZ header section truncated")
    (header_length,) = struct.unpack_from("<I", header_section, 0)
    header_blob = bytes(header_section[4 : 4 + header_length])
    if len(header_blob) != header_length:
        raise CorruptPayloadError("FedSZ header length mismatch")
    header = _parse_header(header_blob)
    lossy_payloads = unpack_sections(sections[_LOSSY_KEY], _copied)
    return header, lossy_payloads, bytes(sections[_LOSSLESS_KEY])
