"""Full decoding of JSONB bytes back into Python values.

Round-trip property (Section 5): apart from key order and whitespace,
the decoded value equals the encoded input; numeric strings decode back
to their exact original text.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.errors import JsonbDecodeError
from repro.jsonb import format as fmt


def decode(buf: bytes) -> object:
    """Decode a complete JSONB document."""
    value, end = decode_value(buf, 0)
    if end != len(buf):
        raise JsonbDecodeError(f"trailing garbage after document (at byte {end})")
    return value


def decode_value(buf: bytes, pos: int) -> Tuple[object, int]:
    """Decode the value starting at *pos*; return ``(value, next_pos)``."""
    if pos >= len(buf):
        raise JsonbDecodeError("truncated value header")
    type_id, info = fmt.split_header(buf[pos])
    pos += 1
    if type_id == fmt.TYPE_LITERAL:
        if info == fmt.LITERAL_NULL:
            return None, pos
        if info == fmt.LITERAL_FALSE:
            return False, pos
        if info == fmt.LITERAL_TRUE:
            return True, pos
        raise JsonbDecodeError(f"invalid literal info {info}")
    if type_id == fmt.TYPE_INT:
        if info <= fmt.MAX_INLINE_INT:
            return info, pos
        nbytes = info - 7
        if pos + nbytes > len(buf):
            raise JsonbDecodeError("truncated integer payload")
        return fmt.read_int_payload(buf, pos, nbytes), pos + nbytes
    if type_id == fmt.TYPE_FLOAT:
        if info not in (2, 4, 8):
            raise JsonbDecodeError(f"invalid float width {info}")
        if pos + info > len(buf):
            raise JsonbDecodeError("truncated float payload")
        code = {2: "<e", 4: "<f", 8: "<d"}[info]
        return struct.unpack_from(code, buf, pos)[0], pos + info
    if type_id in (fmt.TYPE_STRING, fmt.TYPE_NUMSTR):
        text, end = _read_string(buf, pos, info)
        return text, end
    if type_id == fmt.TYPE_OBJECT:
        return _decode_object(buf, pos, info)
    if type_id == fmt.TYPE_ARRAY:
        return _decode_array(buf, pos, info)
    raise JsonbDecodeError(f"invalid type id {type_id}")


def _read_string(buf: bytes, pos: int, info: int) -> Tuple[str, int]:
    if info <= fmt.MAX_INLINE_STRLEN:
        length = info
    else:
        width = fmt.OFFSET_WIDTHS[info - 28]
        if pos + width > len(buf):
            raise JsonbDecodeError("truncated string length")
        length = int.from_bytes(buf[pos : pos + width], "little")
        pos += width
    end = pos + length
    if end > len(buf):
        raise JsonbDecodeError("truncated string payload")
    try:
        return buf[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise JsonbDecodeError(f"invalid UTF-8 string payload: {exc}") from exc


def read_key(buf: bytes, pos: int) -> Tuple[str, int]:
    """Decode the length-prefixed object key at *pos*; returns the key
    and the position after it."""
    key_len, pos = fmt.read_compact_uint(buf, pos)
    end = pos + key_len
    if end > len(buf):
        raise JsonbDecodeError("truncated object key")
    try:
        return buf[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise JsonbDecodeError(f"invalid UTF-8 object key: {exc}") from exc


def _decode_object(buf: bytes, pos: int, info: int) -> Tuple[dict, int]:
    width = fmt.OFFSET_WIDTHS[info & 0x3]
    count, pos = fmt.read_compact_uint(buf, pos)
    pos += count * width  # the offset table is only needed for lookups
    result = {}
    for _ in range(count):
        key, pos = read_key(buf, pos)
        value, pos = decode_value(buf, pos)
        result[key] = value
    return result, pos


def _decode_array(buf: bytes, pos: int, info: int) -> Tuple[list, int]:
    width = fmt.OFFSET_WIDTHS[info & 0x3]
    count, pos = fmt.read_compact_uint(buf, pos)
    pos += count * width
    result = []
    for _ in range(count):
        value, pos = decode_value(buf, pos)
        result.append(value)
    return result, pos


def skip_value(buf: bytes, pos: int) -> int:
    """Return the end position of the value starting at *pos* without
    materializing it.  Used by the access layer to slice sub-documents."""
    type_id, info = fmt.split_header(buf[pos])
    pos += 1
    if type_id == fmt.TYPE_LITERAL:
        return pos
    if type_id == fmt.TYPE_INT:
        return pos if info <= fmt.MAX_INLINE_INT else pos + (info - 7)
    if type_id == fmt.TYPE_FLOAT:
        return pos + info
    if type_id in (fmt.TYPE_STRING, fmt.TYPE_NUMSTR):
        if info <= fmt.MAX_INLINE_STRLEN:
            return pos + info
        width = fmt.OFFSET_WIDTHS[info - 28]
        length = int.from_bytes(buf[pos : pos + width], "little")
        return pos + width + length
    if type_id in (fmt.TYPE_OBJECT, fmt.TYPE_ARRAY):
        # The offset table lets us jump straight past the last slot:
        # seek to the final slot and skip only that one.
        width = fmt.OFFSET_WIDTHS[info & 0x3]
        count, pos = fmt.read_compact_uint(buf, pos)
        if count == 0:
            return pos
        last_offset = fmt.read_offset(buf, pos + (count - 1) * width, width)
        slot_area = pos + count * width
        pos = slot_area + last_offset
        if type_id == fmt.TYPE_OBJECT:
            key_len, pos = fmt.read_compact_uint(buf, pos)
            pos += key_len
        return skip_value(buf, pos)
    raise JsonbDecodeError(f"invalid type id {type_id}")
