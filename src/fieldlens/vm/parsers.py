"""Bundled toy-protocol parsers: scripts, message generators, ground truth.

Two protocol families ship with the package:

* ``binary-frame``: start bytes 0x05 0x64, a payload length, a command
  selector, destination/source station words, a table checksum over the
  stations, and a per-command payload (checksummed data chunk, or a record
  id plus file name).
* ``text-command``: one command character ('G', 'P', or 'D'), a four-digit
  sequence number, a file path whose length is fixed per command, and CRLF.

Each generator returns messages together with their ground truth, one
``(message id, true fields)`` pair per message, derived from the same
construction that built the bytes.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from ..detectors import FieldAnnotation, SemanticFunction, SemanticType
from ..model import Field, Message
from .machine import table_mix
from .ops import ParserScript, parse_script

_T = SemanticType
_F = SemanticFunction
#: a message id and its true fields, as ``traceio.serialize_ground_truth`` writes them
Truth = tuple[str, tuple[FieldAnnotation, ...]]


@dataclass(frozen=True)
class BundledParser:
    name: str
    script: ParserScript
    generate: Callable[[int, int], tuple[list[Message], list[Truth]]]


def _load_script(filename: str) -> ParserScript:
    text = (
        resources.files("fieldlens.vm").joinpath("scripts").joinpath(filename)
    ).read_text(encoding="utf-8")
    return parse_script(text, default_name=filename)


def checksum16(data: bytes) -> int:
    """The table checksum both bundled binary payload checks use."""
    acc = 0
    for b in data:
        acc = table_mix(acc, b)
    return acc


_SRC_POOL = (0x0010, 0x0020, 0x0030, 0x0040)
_CHUNK_LEN = {0x01: 8, 0x03: 12}


def _gt_field(start: int, end: int, sem_type: _T, *funcs: _F) -> FieldAnnotation:
    return FieldAnnotation(Field(start, end), sem_type, frozenset(funcs), ())


def generate_binary(count: int, seed: int = 0) -> tuple[list[Message], list[Truth]]:
    rng = random.Random(seed)
    messages: list[Message] = []
    truths: list[Truth] = []
    for i in range(count):
        command = rng.choice((0x01, 0x02, 0x03))
        if command in _CHUNK_LEN:
            payload = bytes(
                rng.randrange(256) for _ in range(_CHUNK_LEN[command])
            )
        else:
            record_id = rng.randrange(0x10000)
            name = "".join(rng.choice(string.ascii_lowercase) for _ in range(2))
            payload = record_id.to_bytes(2, "big") + (name + ".txt").encode()
        src = rng.choice(_SRC_POOL)
        head = bytes([0x05, 0x64, len(payload), command])
        stations = (0x0001).to_bytes(2, "big") + src.to_bytes(2, "big")
        hdr_sum = checksum16(stations).to_bytes(2, "big")
        body = head + stations + hdr_sum + payload
        if command in _CHUNK_LEN:
            body += checksum16(payload).to_bytes(2, "big")
        mid = f"bin{i:03d}"
        messages.append(Message(mid, body))

        fields = [
            _gt_field(0, 1, _T.STATIC),
            _gt_field(2, 2, _T.INTEGER, _F.LENGTH),
            _gt_field(3, 3, _T.GROUP, _F.COMMAND),
            _gt_field(4, 5, _T.INTEGER),
            _gt_field(6, 7, _T.INTEGER),
            _gt_field(8, 9, _T.INTEGER, _F.CHECKSUM),
        ]
        if command in _CHUNK_LEN:
            chunk_end = 9 + _CHUNK_LEN[command]
            fields.append(_gt_field(10, chunk_end, _T.BYTES))
            fields.append(
                _gt_field(chunk_end + 1, chunk_end + 2, _T.INTEGER, _F.CHECKSUM)
            )
        else:
            fields.append(_gt_field(10, 11, _T.INTEGER))
            fields.append(_gt_field(12, 17, _T.STRING, _F.FILENAME))
        truths.append((mid, tuple(fields)))
    return messages, truths


_PATH_NAME_LEN = {0x47: 2, 0x50: 4, 0x44: 6}  # G, P, D


def generate_text(count: int, seed: int = 0) -> tuple[list[Message], list[Truth]]:
    rng = random.Random(seed)
    messages: list[Message] = []
    truths: list[Truth] = []
    for i in range(count):
        command = rng.choice((0x47, 0x50, 0x44))
        seq = "".join(rng.choice(string.digits) for _ in range(4))
        name = "".join(
            rng.choice(string.ascii_lowercase) for _ in range(_PATH_NAME_LEN[command])
        )
        path = f"/{name}.txt"
        body = bytes([command]) + seq.encode() + path.encode() + b"\r\n"
        mid = f"txt{i:03d}"
        messages.append(Message(mid, body))
        path_end = 4 + len(path)
        truths.append(
            (
                mid,
                (
                    _gt_field(0, 0, _T.GROUP, _F.COMMAND),
                    _gt_field(1, 4, _T.INTEGER),
                    _gt_field(5, path_end, _T.STRING, _F.FILENAME),
                    _gt_field(path_end + 1, path_end + 2, _T.STATIC, _F.DELIM),
                ),
            )
        )
    return messages, truths


def bundled_parsers() -> list[BundledParser]:
    return [
        BundledParser("binary-frame", _load_script("binary_frame.pvm"), generate_binary),
        BundledParser("text-command", _load_script("text_command.pvm"), generate_text),
    ]
