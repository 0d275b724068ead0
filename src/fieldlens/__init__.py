"""fieldlens: protocol field format and semantics inference from taint traces."""

from .alignment import nw_format_score, nw_score, semantic_similar
from .extraction import extract_format, extract_format_baseline
from .model import (
    ApiCall,
    ArgRole,
    ExecutionTrace,
    Field,
    FormatResult,
    InstructionRecord,
    LoopRole,
    Message,
    OpClass,
    PointerArith,
    instructions_for,
)
from .traceio import load_corpus, serialize_corpus

__version__ = "0.1.0"

__all__ = [
    "ApiCall",
    "ArgRole",
    "ExecutionTrace",
    "Field",
    "FormatResult",
    "InstructionRecord",
    "LoopRole",
    "Message",
    "OpClass",
    "PointerArith",
    "extract_format",
    "extract_format_baseline",
    "instructions_for",
    "load_corpus",
    "nw_format_score",
    "nw_score",
    "semantic_similar",
    "serialize_corpus",
    "__version__",
]
