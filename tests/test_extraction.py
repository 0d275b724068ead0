from fieldlens.extraction import (
    extract_format,
    extract_format_baseline,
    intra_instruction_candidates,
    resolve_overlaps,
)
from fieldlens.model import (
    ExecutionTrace,
    Field,
    InstructionRecord,
    Message,
    OpClass,
)

from reference_vm import as_runs


def rec(seq, op, klass, offsets, reads=None, **kw):
    """A record that accesses, and reads, the sets given, spelt as runs."""
    if reads is None:
        reads = offsets if klass is OpClass.MOV_SERIES else ()
    return InstructionRecord(
        seq=seq, operator=op, op_class=klass,
        accessed_offsets=as_runs(offsets), reads=as_runs(reads), **kw,
    )


def mov(seq, offsets):
    return rec(seq, "movzx", OpClass.MOV_SERIES, offsets)


def test_word_read_becomes_one_candidate():
    msg = Message("m", bytes(8))
    trace = ExecutionTrace((mov(1, {4, 5}),))
    cands = intra_instruction_candidates(msg, trace)
    assert Field(4, 5) in cands


def test_separate_byte_reads_become_separate_candidates():
    msg = Message("m", bytes(4))
    trace = ExecutionTrace((mov(1, {0}), mov(2, {1})))
    cands = intra_instruction_candidates(msg, trace)
    accessed = [c for c in cands if c.accessed]
    assert accessed[:2] == [Field(0, 0), Field(1, 1)]


def test_untraced_message_yields_per_byte_unaccessed_candidates():
    msg = Message("m", bytes(5))
    trace = ExecutionTrace(())
    cands = intra_instruction_candidates(msg, trace)
    assert cands == [Field(i, i, accessed=False) for i in range(5)]


def test_duplicate_candidates_deduplicated():
    msg = Message("m", bytes(2))
    trace = ExecutionTrace((mov(1, {0}), mov(2, {0}), mov(3, {1})))
    cands = intra_instruction_candidates(msg, trace)
    assert len([c for c in cands if c == Field(0, 0)]) == 1


def test_resolve_overlaps_merges_intersecting_ranges():
    merged = resolve_overlaps(
        [Field(0, 0), Field(2, 3), Field(3, 4), Field(6, 6)]
    )
    assert merged == [Field(0, 0), Field(2, 4), Field(6, 6)]


def test_overlapping_word_and_byte_reads_collapse():
    msg = Message("m", bytes(4))
    trace = ExecutionTrace((mov(1, {0, 1}), mov(2, {1}), mov(3, {2})))
    fmt = extract_format_baseline(msg, trace)
    assert fmt.fields[0] == Field(0, 1)


def test_example1_merges_start_bytes(example1):
    message, trace = example1
    fmt = extract_format(message, trace)
    assert fmt.fields[0] == Field(0, 1)
    # the rest of the message was never touched and coalesces
    assert fmt.fields[1] == Field(2, 22, accessed=False)


def test_example1_baseline_keeps_bytes_split(example1):
    message, trace = example1
    fmt = extract_format_baseline(message, trace)
    assert fmt.fields[0] == Field(0, 0)
    assert fmt.fields[1] == Field(1, 1)


def test_example2_merges_chunk_but_not_checksum(example2):
    message, trace = example2
    fmt = extract_format(message, trace)
    accessed = [f for f in fmt.fields if f.accessed]
    assert accessed == [Field(10, 20), Field(21, 22)]


def test_single_byte_message():
    msg = Message("m", b"\x41")
    trace = ExecutionTrace((mov(1, {0}),))
    fmt = extract_format(msg, trace)
    assert fmt.fields == (Field(0, 0),)


def test_unaccessed_never_merges_with_accessed():
    msg = Message("m", bytes(3))
    trace = ExecutionTrace((mov(1, {0}),))
    fmt = extract_format(msg, trace)
    assert fmt.fields == (Field(0, 0), Field(1, 2, accessed=False))


def test_compare_operand_unions_do_not_create_candidates():
    # a checksum-style compare touches two unrelated ranges; it must not
    # produce a candidate spanning both
    msg = Message("m", bytes(8))
    trace = ExecutionTrace(
        (
            mov(1, {0}),
            mov(2, {1}),
            mov(3, {4, 5}),
            rec(
                4, "cmp", OpClass.COMPARE, set(range(0, 6)),
                cmp_result=True,
                operand_lineage=(((0, 1),), ((4, 5),)),
            ),
        ),
    )
    cands = intra_instruction_candidates(msg, trace)
    assert Field(0, 5) not in cands
    fmt = extract_format(msg, trace)
    assert Field(0, 5) not in fmt.fields


def test_output_partitions_message_for_fixtures(example1, example2, example3):
    for message, trace in (example1, example2, example3):
        for fmt in (
            extract_format(message, trace),
            extract_format_baseline(message, trace),
        ):
            assert fmt.fields[0].start == 0
            assert fmt.fields[-1].end == len(message) - 1
            for left, right in zip(fmt.fields, fmt.fields[1:]):
                assert right.start == left.end + 1


def test_merged_boundaries_subset_of_baseline(example1, example2, example3):
    for message, trace in (example1, example2, example3):
        merged = set(extract_format(message, trace).boundaries)
        baseline = set(extract_format_baseline(message, trace).boundaries)
        assert merged <= baseline


def test_extraction_is_deterministic(example2):
    message, trace = example2
    first = extract_format(message, trace)
    second = extract_format(message, trace)
    assert first == second

