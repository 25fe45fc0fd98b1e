"""Forgeries of one valid payload, in five families.

Every payload the repo writes is framed by
:func:`repro.compression.base.pack_sections`: a magic and a section count,
then per section a (name length, data length) entry, the name and the data.
A section's data may itself be such a stream (the FedSZ container's lossy
partition, a codec payload in it).  :func:`mutants` walks that framing and
derives, deterministically, every forgery of a family:

- ``truncate``: every proper prefix;
- ``flip``: every byte XOR 0xFF;
- ``bit``: every byte with its lowest bit flipped, which keeps ASCII text
  ASCII, so a JSON header or a section name still parses but says something
  else (``"sz2"`` becomes ``"sz3"``, ``"clients"`` becomes ``"bclients"``...);
- ``lengths``: every count and length field of every stream, nested ones
  too, set one lower, one higher, to zero and to its maximum;
- ``splice``: every stream with each section dropped, doubled, swapped with
  the next or trading data with it, and with a byte after its last section;
  enclosing lengths are rewritten to fit, so only the stream itself is wrong.

``lengths`` and ``splice`` yield nothing for bytes that are not a section
stream, such as a lossless codec's output.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Iterator, List, Tuple, Union

MAGIC = b"RPRS"
HEADER = struct.Struct("<4sI")  # magic, section count
ENTRY = struct.Struct("<HQ")  # name length, data length

#: A stream is its ``(name, child)`` sections; anything else is a leaf.
Node = Union[bytes, List[Tuple[bytes, "Node"]]]
Mutant = Tuple[str, bytes]


def parse(payload: bytes) -> Node:
    """``payload`` as a tree of section streams, down to the leaves."""
    if len(payload) < HEADER.size or payload[:4] != MAGIC:
        return payload
    (_, count), offset, sections = HEADER.unpack_from(payload), HEADER.size, []
    for _ in range(count):
        if offset + ENTRY.size > len(payload):
            return payload
        name_len, data_len = ENTRY.unpack_from(payload, offset)
        start = offset + ENTRY.size + name_len
        offset = start + data_len
        if offset > len(payload):
            return payload
        sections.append((payload[start - name_len : start], parse(payload[start:offset])))
    return sections if offset == len(payload) else payload


def serialize(node: Node) -> bytes:
    """Inverse of :func:`parse`, with every length computed afresh."""
    if isinstance(node, bytes):
        return node
    parts = [HEADER.pack(MAGIC, len(node))]
    for name, child in node:
        data = serialize(child)
        parts += [ENTRY.pack(len(name), len(data)), name, data]
    return b"".join(parts)


def _streams(node: Node, path: Tuple[int, ...] = ()) -> Iterator[Tuple[Tuple[int, ...], list]]:
    if isinstance(node, list):
        yield path, node
        for index, (_, child) in enumerate(node):
            yield from _streams(child, path + (index,))


def _replaced(node: Node, path: Tuple[int, ...], new: Node) -> Node:
    if not path:
        return new
    sections = list(node)
    name, child = sections[path[0]]
    sections[path[0]] = (name, _replaced(child, path[1:], new))
    return sections


def _patched(payload: bytes, offset: int, fmt: str, value: int) -> bytes:
    patched = bytearray(payload)
    struct.pack_into(fmt, patched, offset, value)
    return bytes(patched)


def _xor(payload: bytes, mask: int) -> Iterator[Mutant]:
    for index in range(len(payload)):
        mutated = bytearray(payload)
        mutated[index] ^= mask
        yield f"byte {index} ^ {mask:#04x}", bytes(mutated)


def truncations(payload: bytes) -> Iterator[Mutant]:
    for size in range(len(payload)):
        yield f"first {size} bytes", payload[:size]


def byte_flips(payload: bytes) -> Iterator[Mutant]:
    return _xor(payload, 0xFF)


def bit_flips(payload: bytes) -> Iterator[Mutant]:
    return _xor(payload, 0x01)


def _field_values(value: int, largest: int) -> List[int]:
    return sorted({value - 1, value + 1, 0, largest} - {value, -1})


def length_fields(payload: bytes) -> Iterator[Mutant]:
    if isinstance(parse(payload), list):
        yield from _length_fields(payload, 0, ())


def _length_fields(payload: bytes, start: int, path: Tuple[int, ...]) -> Iterator[Mutant]:
    (_, count), offset = HEADER.unpack_from(payload, start), start + HEADER.size
    for value in _field_values(count, 0xFFFFFFFF):
        yield f"stream {path} count {value}", _patched(payload, start + 4, "<I", value)
    for index in range(count):
        name_len, data_len = ENTRY.unpack_from(payload, offset)
        for value in _field_values(name_len, 0xFFFF):
            yield f"stream {path} section {index} name length {value}", _patched(
                payload, offset, "<H", value
            )
        for value in _field_values(data_len, 2**64 - 1):
            yield f"stream {path} section {index} data length {value}", _patched(
                payload, offset + 2, "<Q", value
            )
        data = offset + ENTRY.size + name_len
        offset = data + data_len
        if isinstance(parse(payload[data:offset]), list):
            yield from _length_fields(payload, data, path + (index,))


def splices(payload: bytes) -> Iterator[Mutant]:
    tree = parse(payload)
    for path, stream in _streams(tree):
        for index, (name, data) in enumerate(stream):
            rest = stream[index + 1 :]
            yield f"stream {path} without section {index}", _spliced(
                tree, path, stream[:index] + rest
            )
            yield f"stream {path} with section {index} twice", _spliced(
                tree, path, stream[: index + 1] + stream[index:]
            )
            if rest:
                (next_name, next_data), after = rest[0], rest[1:]
                yield f"stream {path} sections {index} and {index + 1} swapped", _spliced(
                    tree, path, stream[:index] + [rest[0], (name, data)] + after
                )
                yield f"stream {path} sections {index} and {index + 1} trade data", _spliced(
                    tree, path, stream[:index] + [(name, next_data), (next_name, data)] + after
                )
        trailing = serialize(stream) + b"\x00"
        yield f"stream {path} with a trailing byte", _spliced(tree, path, trailing)


def _spliced(tree: Node, path: Tuple[int, ...], stream: Node) -> bytes:
    """``tree`` with the stream at ``path`` replaced, every enclosing length refitted."""
    return serialize(_replaced(tree, path, stream))


FAMILIES: Dict[str, Callable[[bytes], Iterator[Mutant]]] = {
    "truncate": truncations,
    "flip": byte_flips,
    "bit": bit_flips,
    "lengths": length_fields,
    "splice": splices,
}


def mutants(payload: bytes, family: str) -> List[Mutant]:
    """Every forgery of ``payload`` in ``family``, labelled by what was done."""
    return list(FAMILIES[family](payload))
