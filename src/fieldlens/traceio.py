"""Line-delimited interchange format for messages, traces, and ground truth.

One record per line, as ``kind`` followed by space-separated ``key=value``
pairs.  Byte strings are hex-encoded with a ``0x`` prefix; offset sets are
comma-separated integers or inclusive runs ``a-b``, read as ``model.Offsets``
without expanding a run, and ``-`` is the empty set.  Integers (``seq``,
offsets, ``field`` ends) are ASCII decimal digits, leading zeros allowed.
Three record kinds exist, and a key that a line's kind does not define
below is a ParseError:

``msg <id> bytes=0x...``
    Header line binding a message id to its raw bytes.

``rec <msg-id> seq=N op=MNEMONIC class=OPCLASS off=OFFSETS [...]``
    One executed instruction, after the ``msg`` line of its message; every
    offset must lie inside that message.  Optional keys: ``reads`` (offsets
    loaded directly from the buffer; defaults to ``off`` for MOV_SERIES
    records and to the empty set otherwise), ``const`` (comparison
    constant), ``result`` (comparison outcome), ``jump`` (a control transfer
    immediately followed a true comparison), ``loop``/``role`` (enclosing
    loop id and BODY or TERMINATION), ``api`` (``name:ROLE``), ``ptr``
    (POINTER_INCREMENT or COUNTER_DECREMENT), and ``lineage`` (per-operand
    offset provenance of a comparison, two offset sets separated by ``/``).
    ``value`` (a hex value snapshot, written by older versions) is accepted
    and checked as a byte string, but no stage reads it, so it is dropped.

``gt <msg-id> field=S-E type=TYPE funcs=F|F|... [accessed=true|false]``
    One true field of a message: an inclusive byte range, its semantic type
    and its functions (``-`` alone for none).  It is read as a
    ``FieldAnnotation`` without evidence; ``accessed`` defaults to true.

``read_interchange`` is the one reader and this module the one codec: a
single pass over a stream gives the messages, their shapes and the true
field of every ``gt`` line, so a file that holds traces and ground truth
is read once, and every command that reads a file checks its ``gt`` lines.
The reader takes the stream's whole text with one ``read()``, so a file
that does not decode fails before any line is parsed.  A line ends at
each LF in that text: newline translation is the stream's job, and
``load_corpus`` opens files in universal-newlines mode, so CRLF and
lone-CR files read as LF ones.  (A caller's own stream opened with
``newline=""`` keeps a lone CR inside its line.)  Within one read:

- The consecutive lines after a ``msg`` line that each start with its own
  ``rec <id> `` form a block.  The block last read at each (message
  length, first line after the prefix) is remembered: a block that spells
  its lines again, each after the current prefix, with no such line after
  them, is taken uncut.  Parsing a line reads only its text after the
  prefix and the length, and any error ends the read, so that block parsed
  without error then and would parse to the same records now.  Any other
  block is carved a line at a time and remembered in place of the last,
  so a failed comparison costs at most a block that is then dropped, and
  a read stays linear in its text.  A carved block's ``ExecutionTrace`` is
  built, its seq order checked, and the trace interned by value with the
  message's length: equal blocks, repeated or not, make one shape.  Any
  other line (a comment, a blank line, a ``gt`` line, another message's
  ``rec`` line, or a ``rec`` line that does not begin with exactly
  ``rec <id> ``) ends the block and is read on its own.  So every error
  names the line that a line-at-a-time reader would name: a seq that does
  not increase names the line of its record, counted from the first line
  of the block or single line the record was read in.
- A ``rec`` line that misses is interned by its text after the message id
  alone, so each distinct text is tokenized and parsed once, whatever its
  message's length, and equal lines share one record.  Records that
  differ share the runs of each offset text they spell alike, interned by
  that text the same way.  Each entry keeps the highest offset it names
  (over ``off`` and both ``lineage`` sides); a hit at or past the current
  message's length is parsed again with that length, which raises the
  IntegrityError an uncached parse would, on the same line.
- A message read as one block whose seqs increase joins that block's
  shape, unhashed.  Any other message's records (several parts, a single
  line, none, or a block out of seq order) are kept as the blocks and
  single lines they were read in, then joined, checked and interned once,
  at the end of the read, so a parse error anywhere in the text is raised
  before a seq error, and the seq error names the message:
  ``trace '<id>': ...``.  Each shape is handed on once, in the order of
  its first message, with its messages in file order.
- ``gt`` lines with one text after the message id share one true field,
  parsed once.

Records, offset sets, true fields, traces and tuples are immutable, so
sharing is safe; the caches live only as long as the call.  The writers
likewise format each distinct record, or true field, once per call, keyed
by its value, and write that text after each line's own ``rec <id> `` or
``gt <id> `` prefix.

The JSON documents the later stages exchange live in ``reports``; this
module knows only the line format.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, pairwise, repeat
from typing import Iterable, NamedTuple, Optional, Sequence, TextIO, TypeVar

from .detectors import FieldAnnotation, SemanticFunction, SemanticType
from .model import (
    ApiCall,
    ArgRole,
    ExecutionTrace,
    Field,
    InstructionRecord,
    LoopRole,
    Message,
    ModelError,
    OpClass,
    PointerArith,
    Offsets,
    Shape,
    runs,
    traces_by_id,
)

E = TypeVar("E", bound=Enum)


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class IntegrityError(ValueError):
    def __init__(self, line_no: Optional[int], message: str):
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)
        self.line_no = line_no


def format_offsets(offsets: Offsets) -> str:
    return ",".join(str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in offsets) or "-"


def _decimal(text: str) -> int:
    """``text`` as ASCII decimal digits, leading zeros allowed; else ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


def parse_offsets(text: str, line_no: int, length: int) -> Offsets:
    """The canonical runs of an offset text of a message of ``length`` bytes,
    each part checked against ``length``.  No run is expanded, so a text
    costs memory by its parts, however wide its runs."""
    if text == "-":
        return ()
    out: list[tuple[int, int]] = []
    for part in text.split(","):
        try:
            if "-" in part:
                lo_s, hi_s = part.split("-", 1)
                lo, hi = _decimal(lo_s), _decimal(hi_s)
                if hi < lo:
                    raise ValueError
            else:
                lo = hi = _decimal(part)
        except ValueError:
            raise ParseError(line_no, f"bad offset set {text!r}") from None
        if hi >= length:
            raise IntegrityError(
                line_no, f"offsets {part!r} outside message of length {length}"
            )
        out.append((lo, hi))
    return runs(out)


def _parse_hex(text: str, line_no: int) -> bytes:
    if not text.startswith("0x"):
        raise ParseError(line_no, f"byte string {text!r} must start with 0x")
    try:
        return bytes.fromhex(text[2:])
    except ValueError:
        raise ParseError(line_no, f"bad hex byte string {text!r}") from None


def parse_bool(text: str, line_no: int) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ParseError(line_no, f"expected true/false, got {text!r}")


#: The keys each line kind defines (see the module docstring)
_LINE_KEYS = {
    "msg": frozenset({"bytes"}),
    "rec": frozenset("seq op class off reads const result jump loop role api ptr "
                     "value lineage".split()),
    "gt": frozenset({"field", "type", "funcs", "accessed"}),
}


def _split_fields(kind: str, rest: str, line_no: int) -> dict[str, str]:
    """The key/value pairs of a ``kind`` line.  A key that the kind does not
    define is a ParseError, so a misspelt optional key is never dropped."""
    keys = _LINE_KEYS.get(kind)
    if keys is None:
        raise ParseError(line_no, f"unknown record kind {kind!r}")
    tokens = rest.split()
    try:  # each token split at its first "=" in one C loop
        kv = dict(map(str.split, tokens, repeat("="), repeat(1)))
    except ValueError:  # a token without "="
        kv = {}
    if len(kv) == len(tokens) and kv.keys() <= keys:
        return kv
    # some token is bad: find the first, in line order
    kv = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(line_no, f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if key not in keys:
            raise ParseError(line_no, f"unknown key {key!r} on a {kind} line")
        if key in kv:
            raise ParseError(line_no, f"duplicate key {key!r}")
        kv[key] = value
    return kv


def _require(kv: dict[str, str], key: str, line_no: int) -> str:
    if key not in kv:
        raise ParseError(line_no, f"missing required key {key!r}")
    return kv[key]


def _member(enum: type[E], name: str, what: str, line_no: int) -> E:
    """The member of ``enum`` called ``name``; any other name is a
    ParseError that calls it an unknown ``what``."""
    try:
        return enum[name]
    except KeyError:
        raise ParseError(line_no, f"unknown {what} {name!r}") from None


#: offset-set text -> (its runs, their highest offset or -1), for one read
OffsetCache = dict[str, tuple[Offsets, int]]


def _offsets(
    cache: OffsetCache, text: str, line_no: int, length: int
) -> tuple[Offsets, int]:
    """``parse_offsets`` and the runs' highest offset, interned in ``cache``
    by the text alone.  Only a valid set is cached, so an invalid text fails
    on every line that spells it, and a hit that names an offset past this
    message is parsed again, so it fails as an uncached parse would."""
    hit = cache.get(text)
    if hit is None or hit[1] >= length:
        offsets = parse_offsets(text, line_no, length)
        hit = cache[text] = (offsets, offsets[-1][1] if offsets else -1)
    return hit


def _record_from_kv(
    kv: dict[str, str], line_no: int, length: int, cache: OffsetCache
) -> tuple[InstructionRecord, int]:
    """The record a ``rec`` line's key/value pairs spell for a message of
    ``length`` bytes, and the highest offset its ``off`` and ``lineage``
    name (``reads`` lies inside ``off``)."""
    seq_text = _require(kv, "seq", line_no)
    try:
        seq = _decimal(seq_text)
    except ValueError:
        raise ParseError(line_no, f"bad seq {seq_text!r}") from None
    op = _require(kv, "op", line_no)
    op_class = _member(OpClass, _require(kv, "class", line_no), "op class", line_no)
    accessed, top = _offsets(cache, _require(kv, "off", line_no), line_no, length)
    if "reads" in kv:
        reads = _offsets(cache, kv["reads"], line_no, length)[0]
    else:
        reads = accessed if op_class is OpClass.MOV_SERIES else ()

    compared_const = _parse_hex(kv["const"], line_no) if "const" in kv else None
    cmp_result = parse_bool(kv["result"], line_no) if "result" in kv else None
    triggered = parse_bool(kv["jump"], line_no) if "jump" in kv else False
    loop_id = kv.get("loop")
    loop_role = _member(LoopRole, kv["role"], "loop role", line_no) if "role" in kv else None
    api_call = None
    if "api" in kv:
        if ":" not in kv["api"]:
            raise ParseError(line_no, f"api must be name:ROLE, got {kv['api']!r}")
        name, role_s = kv["api"].split(":", 1)
        api_call = ApiCall(name, _member(ArgRole, role_s, "api role", line_no))
    pointer = _member(PointerArith, kv["ptr"], "ptr kind", line_no) if "ptr" in kv else None
    if "value" in kv:  # older files carry it; checked, then dropped
        _parse_hex(kv["value"], line_no)
    lineage = None
    if "lineage" in kv:
        if "/" not in kv["lineage"]:
            raise ParseError(line_no, "lineage must hold two offset sets: a/b")
        lhs_s, rhs_s = kv["lineage"].split("/", 1)
        lhs, lhs_top = _offsets(cache, lhs_s, line_no, length)
        rhs, rhs_top = _offsets(cache, rhs_s, line_no, length)
        lineage = (lhs, rhs)
        top = max(top, lhs_top, rhs_top)
    try:
        rec = InstructionRecord(
            seq, op, op_class, accessed, reads, compared_const, cmp_result,
            triggered, loop_id, loop_role, api_call, pointer, lineage,
        )
    except ModelError as exc:
        raise IntegrityError(line_no, str(exc)) from None
    return rec, top


def _true_field(kv: dict[str, str], line_no: int) -> FieldAnnotation:
    """The true field that a ``gt`` line's key/value pairs spell."""
    if "field" not in kv or "type" not in kv:
        raise ParseError(line_no, "gt line needs field= and type=")
    try:
        start, end = map(_decimal, kv["field"].split("-", 1))
        if end < start:
            raise ValueError
    except ValueError:
        raise ParseError(line_no, f"bad field range {kv['field']!r}") from None
    sem_type = _member(SemanticType, kv["type"], "type", line_no)
    funcs = kv.get("funcs", "-")
    functions = frozenset(
        _member(SemanticFunction, name, "function", line_no)
        for name in (() if funcs == "-" else funcs.split("|"))
    )
    accessed = parse_bool(kv.get("accessed", "true"), line_no)
    return FieldAnnotation(Field(start, end, accessed), sem_type, functions, ())


class Corpus(NamedTuple):
    """What one read of an interchange stream holds."""

    messages: list[Message]  # in file order
    shapes: list[Shape]  # each distinct (length, trace), in order of its first message
    truth: list[tuple[str, FieldAnnotation]]  # (message id, true field), in file order


#: a shape as the read gathers it: its trace and the messages that carry it
Gathering = tuple[ExecutionTrace, list[Message]]
#: a block's records and their shape, or None if their seq order is broken
Block = tuple[tuple[InstructionRecord, ...], Optional[Gathering]]


class _Records:
    """The record caches of one read (see the module docstring)."""

    def __init__(self) -> None:
        self.offsets: OffsetCache = {}
        # text after the message id -> (its record, the highest offset it names)
        self.lines: dict[str, tuple[InstructionRecord, int]] = {}
        # (message length, trace) -> the shape of that value, interned
        self.shapes: dict[tuple[int, ExecutionTrace], Gathering] = {}

    def line(self, rest: str, line_no: int, length: int) -> InstructionRecord:
        """The record that ``rest``, the text after a ``rec`` line's message
        id, spells for a message of ``length`` bytes.  Only a text that
        parsed without error is cached, and a hit that names an offset at or
        past ``length`` is parsed again, so a line fails exactly when an
        uncached parse would, with the same error."""
        hit = self.lines.get(rest)
        if hit is None or hit[1] >= length:
            hit = self.lines[rest] = _record_from_kv(
                _split_fields("rec", rest, line_no), line_no, length, self.offsets
            )
        return hit[0]

    def block(self, rests: list[str], first: int, length: int) -> Block:
        """The records of a block of a message of ``length`` bytes, from
        line ``first`` on, and their shape; ``rests`` are its lines' texts
        after their ``rec <id> `` prefix.  Records out of seq order get no
        shape: their message's records are joined and checked at the end
        of the read, so a parse error later in the text comes first."""
        recs = tuple(
            self.line(rest.strip(), line_no, length)
            for line_no, rest in enumerate(rests, start=first)
        )
        try:
            trace = ExecutionTrace(recs)
        except ModelError:
            return recs, None
        return recs, self.shapes.setdefault((length, trace), (trace, []))


def _carve(text: str, pos: int, prefix: str) -> tuple[list[str], int]:
    """The texts after ``prefix``, newline kept, of the consecutive lines of
    ``text`` from ``pos`` on that start with it, and the end of the last."""
    n = len(prefix)
    rests = []
    while text.startswith(prefix, pos):
        end = text.find("\n", pos) + 1 or len(text)
        rests.append(text[pos + n:end])
        pos = end
    return rests, pos


def _repeat_end(text: str, pos: int, prefix: str, rests: list[str]) -> int:
    """The end of the block at ``pos`` if it is the lines ``rests``, each
    after ``prefix``, and the line after them does not start with
    ``prefix``; else 0."""
    expected = prefix + prefix.join(rests)
    end = pos + len(expected)
    if text.startswith(expected, pos) and not text.startswith(prefix, end):
        return end
    return 0


def read_interchange(stream: TextIO) -> Corpus:
    """Messages, shapes and true fields of ``stream``, in one pass over its
    whole text."""
    text = stream.read()
    size = len(text)
    messages: list[Message] = []
    by_id: dict[str, Message] = {}
    # each message's records, as the blocks and single lines they were read
    # in, each with the number of its first line
    records: dict[str, list[tuple[int, Block]]] = {}
    truth: list[tuple[str, FieldAnnotation]] = []
    cache = _Records()
    # (message length, a block's first line after its prefix) -> the lines
    # after the prefix of the block last read there, and the block
    last: dict[tuple[int, str], tuple[list[str], Block]] = {}
    # text after the message id -> the true field of that ``gt`` line
    true_fields: dict[str, FieldAnnotation] = {}
    # The lines after a ``msg`` line that start with its ``rec <id> `` form a
    # block.  ``str.startswith(())`` is false, so no block precedes the
    # first ``msg`` line.
    prefix: str | tuple[()] = ()
    msg: Optional[Message] = None
    length = 0
    pos = line_no = 0
    while pos < size:
        line_no += 1
        if text.startswith(prefix, pos):
            key = (length, text[pos + len(prefix):text.find("\n", pos) + 1 or size])
            seen = last.get(key)
            end = seen and _repeat_end(text, pos, prefix, seen[0])
            if end:
                rests, block = seen
            else:
                rests, end = _carve(text, pos, prefix)
                block = cache.block(rests, line_no, length)
                last[key] = rests, block
            records[msg.id].append((line_no, block))
            line_no += len(rests) - 1
            pos = end
            continue
        end = text.find("\n", pos) + 1 or size
        line = text[pos:end].strip()
        pos = end
        if not line or line.startswith(("#", ";")):
            continue
        parts = line.split(None, 2)
        if len(parts) < 2:
            raise ParseError(line_no, f"truncated line {line!r}")
        kind, subject = parts[0], parts[1]
        rest = parts[2] if len(parts) == 3 else ""
        if kind == "rec":
            owner = by_id.get(subject)
            if owner is None:
                _split_fields(kind, rest, line_no)
                raise IntegrityError(line_no, f"record for undeclared message id {subject!r}")
            records[subject].append((line_no, ((cache.line(rest, line_no, len(owner)),), None)))
        elif kind == "gt":
            ann = true_fields.get(rest)
            if ann is None:
                ann = true_fields[rest] = _true_field(_split_fields(kind, rest, line_no), line_no)
            truth.append((subject, ann))
        else:
            kv = _split_fields(kind, rest, line_no)  # a msg line, or a ParseError
            if subject in by_id:
                raise IntegrityError(line_no, f"duplicate message id {subject!r}")
            data = _parse_hex(_require(kv, "bytes", line_no), line_no)
            try:
                msg = Message(subject, data)
            except ModelError as exc:
                raise IntegrityError(line_no, str(exc)) from None
            by_id[subject] = msg
            messages.append(msg)
            records[subject] = []
            prefix, length = f"rec {subject} ", len(data)

    shapes: list[Gathering] = []
    for msg in messages:
        parts = records[msg.id]
        shape = parts[0][1][1] if len(parts) == 1 else None
        if shape is None:  # several parts, a single line, none, or out of order
            try:
                trace = ExecutionTrace(tuple(chain.from_iterable(p[1][0] for p in parts)))
            except ModelError as exc:
                raise IntegrityError(
                    _unordered_line(parts), f"trace {msg.id!r}: {exc}"
                ) from None
            shape = cache.shapes.setdefault((len(msg), trace), (trace, []))
        if not shape[1]:
            shapes.append(shape)
        shape[1].append(msg)
    return Corpus(messages, [Shape(trace, tuple(held)) for trace, held in shapes], truth)


def _unordered_line(parts: list[tuple[int, Block]]) -> int:
    """The line of the first record whose seq does not increase.  A part's
    records stand on consecutive lines from its first line on."""
    seqs = [(first + i, r.seq) for first, (part, _) in parts for i, r in enumerate(part)]
    return next(line for (_, prev), (line, seq) in pairwise(seqs) if seq <= prev)


def load_corpus_stream(stream: TextIO) -> tuple[list[Message], list[ExecutionTrace]]:
    """The messages of ``stream`` and each one's trace; its true fields are checked, then dropped."""
    messages, shapes, _ = read_interchange(stream)
    traces = traces_by_id(shapes)
    return messages, [traces[m.id] for m in messages]


def load_corpus(path) -> Corpus:
    """``read_interchange`` of the file ``path``, opened in universal-newlines
    mode; a file that is not UTF-8 is a ParseError on its first line that
    does not decode, before any line is parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read_interchange(fh)
    except UnicodeDecodeError:
        # The decoder works a chunk at a time, so the failing byte is found
        # again, and its line counted as universal newlines count it.
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[:exc.start]
            line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise ParseError(line_no, f"not UTF-8 text ({exc.reason})") from None
        raise


def _record_text(rec: InstructionRecord) -> str:
    """A ``rec`` line after its ``rec <msg-id> `` prefix, newline included."""
    parts = [
        f"seq={rec.seq}",
        f"op={rec.operator}",
        f"class={rec.op_class.name}",
        f"off={format_offsets(rec.accessed_offsets)}",
        f"reads={format_offsets(rec.reads)}",
    ]
    if rec.compared_const is not None:
        parts.append(f"const=0x{rec.compared_const.hex()}")
    if rec.cmp_result is not None:
        parts.append(f"result={'true' if rec.cmp_result else 'false'}")
    if rec.triggered_jump:
        parts.append("jump=true")
    if rec.loop_id is not None:
        parts.append(f"loop={rec.loop_id}")
        parts.append(f"role={rec.loop_role.name}")
    if rec.api_call is not None:
        parts.append(f"api={rec.api_call.name}:{rec.api_call.tainted_arg_role.name}")
    if rec.pointer_arith is not None:
        parts.append(f"ptr={rec.pointer_arith.name}")
    if rec.operand_lineage is not None:
        lhs, rhs = rec.operand_lineage
        parts.append(f"lineage={format_offsets(lhs)}/{format_offsets(rhs)}")
    return " ".join(parts) + "\n"


def serialize_corpus(
    messages: list[Message], traces: list[ExecutionTrace]
) -> str:
    """The ``msg`` and ``rec`` lines of ``messages`` and their traces, the
    trace at each message's position; lists of two lengths are a ValueError."""
    texts: dict[InstructionRecord, str] = {}
    out: list[str] = []
    for msg, trace in zip(messages, traces, strict=True):
        out.append(f"msg {msg.id} bytes=0x{msg.data.hex()}\n")
        prefix = f"rec {msg.id} "
        for rec in trace.records:
            text = texts.get(rec)
            if text is None:
                text = texts[rec] = _record_text(rec)
            out.append(prefix + text)
    return "".join(out)


def serialize_ground_truth(
    truths: Iterable[tuple[str, Sequence[FieldAnnotation]]]
) -> str:
    """The ``gt`` lines of ``(message id, true fields)`` pairs."""
    texts: dict[FieldAnnotation, str] = {}
    out: list[str] = []
    for mid, anns in truths:
        for a in anns:
            f = a.field
            text = texts.get(a)
            if text is None:
                funcs = "|".join(sorted(fn.name for fn in a.inferred_functions)) or "-"
                text = texts[a] = (
                    f"field={f.start}-{f.end} type={a.inferred_type.name} "
                    f"funcs={funcs} accessed={'true' if f.accessed else 'false'}\n"
                )
            out.append(f"gt {mid} {text}")
    return "".join(out)
