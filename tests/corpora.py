"""Test-only corpora, kept out of ``fieldlens.vm.bundled_parsers()`` so that
``generate-traces --parser all`` and the benchmark workloads stay as they are.

``text_names`` is the bundled text-command protocol with file names whose
length varies from message to message, so that one field range holds the
CRLF delimiter in one message and part of a file name in the next.

``shapes_of`` groups hand-built traces into the shapes that
``pipeline.infer_corpus`` takes, by value, as the reader groups a file's.
"""

import random
import string

from fieldlens.detectors import FieldAnnotation, SemanticFunction as F, SemanticType as T
from fieldlens.model import Field, Message, Shape
from fieldlens.vm import bundled_parsers
from fieldlens.vm.machine import run

TEXT_COMMAND = next(p.script for p in bundled_parsers() if p.name == "text-command")


def _true_field(start, end, sem_type, *funcs):
    return FieldAnnotation(Field(start, end), sem_type, frozenset(funcs), ())


def text_names(count, seed, lo, hi):
    """``count`` text-command messages, their traces from the bundled script
    and their ground truth as ``(message id, true fields)`` pairs.

    Each message is a command byte, 4 digits, ``/name.txt`` with a name of
    ``randint(lo, hi)`` lowercase letters, then CRLF; its true fields come
    from that same construction."""
    rng = random.Random(seed)
    messages, truths = [], []
    for i in range(count):
        command = rng.choice(b"GPD")
        seq = "".join(rng.choice(string.digits) for _ in range(4))
        name = "".join(
            rng.choice(string.ascii_lowercase) for _ in range(rng.randint(lo, hi))
        )
        path = f"/{name}.txt"
        mid = f"txt{i:03d}"
        messages.append(Message(mid, bytes([command]) + f"{seq}{path}\r\n".encode()))
        path_end = 4 + len(path)
        truths.append(
            (
                mid,
                (
                    _true_field(0, 0, T.GROUP, F.COMMAND),
                    _true_field(1, 4, T.INTEGER),
                    _true_field(5, path_end, T.STRING, F.FILENAME),
                    _true_field(path_end + 1, path_end + 2, T.STATIC, F.DELIM),
                ),
            )
        )
    traces = [run(TEXT_COMMAND, m).trace for m in messages]
    return messages, traces, truths


def shapes_of(messages, traces):
    """The shapes of ``messages``, whose traces ``traces`` holds by message
    id: one per distinct (message length, trace) value, in the order of its
    first message, each with the trace of that message."""
    groups = {}
    for m in messages:
        groups.setdefault((len(m), traces[m.id]), []).append(m)
    return [Shape(trace, tuple(held)) for (_, trace), held in groups.items()]
