import dataclasses
from pathlib import Path

import pytest

from fieldlens.model import traces_by_id
from fieldlens.refinement import CONSTRAINT_TABLE
from fieldlens.traceio import load_corpus

DATA = Path(__file__).parent / "data"


def _one(name):
    """The one message of a data file and its trace."""
    (message,), ((trace, _),), _ = load_corpus(DATA / name)
    return message, trace


@pytest.fixture(scope="session")
def example1():
    return _one("example1.trace")


@pytest.fixture(scope="session")
def example2():
    return _one("example2.trace")


@pytest.fixture(scope="session")
def example3():
    return _one("example3.trace")


@pytest.fixture(scope="session")
def refine_corpus():
    messages, shapes, _ = load_corpus(DATA / "refine_corpus.trace")
    return messages, traces_by_id(shapes)


@pytest.fixture(scope="session")
def count_violations():
    """Counts the (field, function) pairs whose type the constraint table
    forbids."""

    def count(annotations):
        return sum(
            1
            for anns in annotations.values()
            for ann in anns
            for fn in ann.inferred_functions
            if ann.inferred_type not in CONSTRAINT_TABLE[fn]
        )

    return count


def evidence_for(ann, rule_prefix):
    """The evidence of ``ann`` from rules whose id starts with ``rule_prefix``."""
    return [e for e in ann.evidence if e.rule.startswith(rule_prefix)]


def per_message(events):
    """Each message id -> the refinement events that name it, in order, each
    narrowed to that one message: the audit as the message would log it
    alone."""
    expanded = {}
    for e in events:
        for mid in e.messages:
            expanded.setdefault(mid, []).append(dataclasses.replace(e, messages=(mid,)))
    return expanded
