import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fieldlens
from fieldlens.cli import main
from fieldlens.detectors import RULE_IDS

DATA = Path(__file__).parent / "data"
SRC = Path(fieldlens.__file__).resolve().parents[1]


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def corpus(tmp_path):
    out = tmp_path / "bin.fl"
    code = run_cli(
        "generate-traces", "--parser", "binary-frame",
        "--count", "12", "--seed", "3", "--with-ground-truth", "--out", out,
    )
    assert code == 0
    return out


def test_generate_and_full_run(tmp_path, corpus, capsys):
    out_dir = tmp_path / "reports"
    code = run_cli(
        "run", "--traces", corpus, "--ground-truth", corpus, "--out-dir", out_dir
    )
    assert code == 0
    for name in (
        "formats.json",
        "annotations.json",
        "clustering.json",
        "refinement_audit.json",
        "metrics.json",
        "template.json",
    ):
        assert (out_dir / name).exists()
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["format"]["perfection"] == 1.0


def test_run_reports_are_deterministic(tmp_path, corpus):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for out_dir in (dir_a, dir_b):
        assert run_cli(
            "run", "--traces", corpus, "--ground-truth", corpus,
            "--out-dir", out_dir,
        ) == 0
    for name in ("formats.json", "annotations.json", "metrics.json", "template.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_stage_chain_matches_run(tmp_path, corpus):
    """extract, infer -> refine -> score -> export-template write run's six reports."""
    run_dir = tmp_path / "run"
    assert run_cli(
        "run", "--traces", corpus, "--ground-truth", corpus, "--out-dir", run_dir
    ) == 0
    chain = {
        name: tmp_path / f"chain-{name}"
        for name in (
            "formats.json", "annotations.json", "clustering.json",
            "refinement_audit.json", "metrics.json", "template.json",
        )
    }
    pre = tmp_path / "pre.json"
    assert run_cli("extract", "--traces", corpus, "--out", chain["formats.json"]) == 0
    assert run_cli("infer", "--traces", corpus, "--out", pre) == 0
    assert run_cli(
        "refine", "--traces", corpus, "--annotations", pre, "--out", chain["annotations.json"],
        "--audit", chain["refinement_audit.json"],
        "--clusters", chain["clustering.json"],
    ) == 0
    assert run_cli(
        "score", "--annotations", chain["annotations.json"],
        "--ground-truth", corpus, "--out", chain["metrics.json"],
    ) == 0
    assert run_cli(
        "export-template", "--traces", corpus,
        "--annotations", chain["annotations.json"],
        "--out", chain["template.json"],
    ) == 0
    for name, path in chain.items():
        assert path.read_bytes() == (run_dir / name).read_bytes(), name
    doc = json.loads(chain["metrics.json"].read_text())
    assert doc["semantics"]["type"]["f1"] == 1.0
    clusters_doc = json.loads(chain["clustering.json"].read_text())
    assert clusters_doc["command_pos"] == [3, 3]


def test_extract_baseline_flag(tmp_path, corpus, capsys):
    merged = tmp_path / "merged.json"
    split = tmp_path / "split.json"
    capsys.readouterr()
    assert run_cli("extract", "--traces", corpus, "--out", merged) == 0
    assert run_cli("extract", "--traces", corpus, "--baseline", "--out", split) == 0
    merged_doc = json.loads(merged.read_text())
    split_doc = json.loads(split.read_text())
    assert merged_doc["format"] == "fieldlens-formats" and merged_doc["version"] == 2
    assert len(split_doc["formats"][0]["fields"]) > len(merged_doc["formats"][0]["fields"])
    distinct = len(merged_doc["formats"])
    assert 1 < distinct < 12
    assert capsys.readouterr().out.splitlines() == [
        f"extracted the formats of 12 messages ({len(doc['formats'])} distinct) -> {path}"
        for doc, path in ((merged_doc, merged), (split_doc, split))
    ]


def test_ablation_flags_run(tmp_path, corpus):
    for flag in ("--no-clustering", "--no-entropy", "--no-constraints"):
        out_dir = tmp_path / flag.strip("-")
        assert run_cli(
            "run", "--traces", corpus, "--ground-truth", corpus,
            "--out-dir", out_dir, flag,
        ) == 0


def test_export_template(tmp_path, corpus):
    anns = tmp_path / "annotations.json"
    template = tmp_path / "template.json"
    assert run_cli("infer", "--traces", corpus, "--out", anns) == 0
    assert run_cli(
        "export-template", "--traces", corpus, "--annotations", anns,
        "--out", template,
    ) == 0
    doc = json.loads(template.read_text())
    assert (doc["format"], doc["version"]) == ("fieldlens-fuzz-template", 2)
    ids = [mid for fmt in doc["formats"] for mid in fmt["messages"]]
    assert len(ids) == len(set(ids)) == 12
    # the traces reach the template, so each checksum names what it covers
    checksums = [e for fmt in doc["formats"] for e in fmt["fields"] if e["kind"] == "checksum"]
    assert checksums and all("of" in e for e in checksums)


def test_generate_with_custom_script(tmp_path, corpus):
    script = tmp_path / "probe.pvm"
    script.write_text("movzx r0, buf[0]\ncmp r0, 0x05\njne bad\naccept\nbad:\nreject\n")
    out = tmp_path / "probe.fl"
    assert run_cli(
        "generate-traces", "--script", script, "--corpus", corpus, "--out", out
    ) == 0
    text = out.read_text()
    assert "op=cmp" in text


def test_a_script_run_keeps_the_corpus_ground_truth(tmp_path, corpus):
    script = tmp_path / "probe.pvm"
    script.write_text("movzx r0, buf[0]\naccept\n")
    out = tmp_path / "probe.fl"
    assert run_cli(
        "generate-traces", "--script", script, "--corpus", corpus,
        "--with-ground-truth", "--out", out,
    ) == 0

    def gt_lines(path):
        return [ln for ln in path.read_text().splitlines() if ln.startswith("gt ")]

    assert gt_lines(out) and gt_lines(out) == gt_lines(corpus)
    assert run_cli(
        "run", "--traces", out, "--ground-truth", out, "--out-dir", tmp_path / "reports"
    ) == 0


def test_a_script_run_asked_for_missing_ground_truth_exits_2(tmp_path, corpus, capsys):
    bare = tmp_path / "bare.fl"
    bare.write_text("".join(
        ln for ln in corpus.read_text().splitlines(keepends=True) if not ln.startswith("gt ")
    ))
    script = tmp_path / "probe.pvm"
    script.write_text("accept\n")
    out = tmp_path / "probe.fl"
    assert run_cli(
        "generate-traces", "--script", script, "--corpus", bare,
        "--with-ground-truth", "--out", out,
    ) == 2
    assert str(bare) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "content, message",
    [
        pytest.param(b"accept\n# caf\xff\n", "line 2: not UTF-8 text", id="not-utf8"),
        pytest.param(b"bogus r0\naccept\n", "line 1: unknown mnemonic 'bogus'",
                     id="bad-mnemonic"),
        *(
            pytest.param(f"{line}\naccept\n".encode(), "line 1: ", id=f"wrong-kind-{i}")
            for i, line in enumerate(("movzx r0, 5", "mov 5, r0", "add 3, r1", "cmp r0, buf[0]",
                                      "api f, buf[0], length", "mov r0, nolabel"))
        ),
        # loop ids, api names and jump targets are names, spelled as labels are
        *(
            pytest.param(script.encode(), f"line 1: {error}", id=f"bad-name-{i}")
            for i, (script, error) in enumerate((
                ("loop x y\nendloop x y\naccept\n", "loop operand 1 must be a name, got 'x y'"),
                ("loop r0\nendloop r0\naccept\n", "loop operand 1 must be a name, got 'r0'"),
                ("api 7, r1, length\naccept\n", "api operand 1 must be a name, got '7'"),
                ("jmp r0\naccept\n", "jmp operand 1 must be a name, got 'r0'"),
            ))
        ),
        # registers are r0..r15 in ASCII without a leading zero, immediates
        # ASCII decimal or 0x hex in 0..2**64-1; these once crashed the run
        *(
            pytest.param(script.encode(), f"line 2: {error}", id=f"bad-value-{i}")
            for i, (script, error) in enumerate((
                ("movzx r0, buf[0]\nadd r2, r01\naccept\n",
                 "add operand 2 must be a register or immediate, got 'r01'"),
                ("movzx r0, buf[0]\ncmp r0, -1\naccept\n",
                 "cmp operand 2 must be a register or immediate, got '-1'"),
                ("accept\nmov r01, 5\n", "mov operand 1 must be a register, got 'r01'"),
                ("accept\ncmp r0, 0x10000000000000000\n",
                 "immediate 0x10000000000000000 is outside 0..2**64-1"),
            ))
        ),
    ],
)
def test_a_bad_script_exits_2_naming_the_script(tmp_path, corpus, content, message):
    script = tmp_path / "bad.pvm"
    script.write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "fieldlens.cli", "generate-traces", "--script", str(script),
         "--corpus", str(corpus), "--out", "g.fl"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {script}: {message}")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "g.fl").exists()


def test_malformed_input_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.fl"
    bad.write_text("rec ghost seq=1 op=mov class=MOV_SERIES off=0\n")
    assert run_cli("extract", "--traces", bad, "--out", tmp_path / "x.json") == 2
    err = capsys.readouterr().err
    assert "error" in err



def test_a_seq_out_of_order_is_named_on_its_own_line(tmp_path, capsys):
    bad = tmp_path / "seq.fl"
    bad.write_text(
        "msg a bytes=0x0102\n"
        "rec a seq=1 op=mov class=MOV_SERIES off=0\n"
        "rec a seq=2 op=mov class=MOV_SERIES off=1\n"
        "rec a seq=2 op=mov class=MOV_SERIES off=1\n"
    )
    assert run_cli("run", "--traces", bad, "--out-dir", tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line 4: trace 'a': record seq values must be strictly "
        "increasing (2 after 2)\n"
    )


def test_an_integer_that_is_not_ascii_decimal_exits_2_on_its_line(tmp_path, capsys):
    bad = tmp_path / "int.fl"
    for line, message in [
        ("rec a seq=2 op=mov class=MOV_SERIES off=1_0", "bad offset set '1_0'"),
        ("rec a seq=2 op=mov class=MOV_SERIES off=+2", "bad offset set '+2'"),
        ("rec a seq=\u0661 op=mov class=MOV_SERIES off=1", "bad seq '\u0661'"),
        ("gt a field=0-\u0663 type=STATIC funcs=-", "bad field range '0-\u0663'"),
        ("gt a field=+0-3 type=STATIC funcs=-", "bad field range '+0-3'"),
    ]:
        bad.write_text(
            f"msg a bytes=0x0102\nrec a seq=1 op=mov class=MOV_SERIES off=0\n{line}\n",
            encoding="utf-8",
        )
        assert run_cli("run", "--traces", bad, "--out-dir", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {bad}: line 3: {message}\n"
        assert not (tmp_path / "out").exists()


def test_metric_values_do_not_affect_exit_status(tmp_path, corpus):
    # baseline mode scores poorly but still exits zero
    out_dir = tmp_path / "baseline"
    assert run_cli(
        "run", "--traces", corpus, "--ground-truth", corpus,
        "--out-dir", out_dir, "--baseline",
    ) == 0
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["format"]["f1"] < 1.0
    assert metrics["segmentation_errors"]["total"] > 0


def test_list_rules(capsys):
    assert run_cli("list-rules") == 0
    out = capsys.readouterr().out
    assert "type.bytes" in out and "func.checksum" in out
    assert len(out.strip().splitlines()) == 11
    assert tuple(line.split()[0] for line in out.splitlines()) == RULE_IDS


@pytest.mark.parametrize(
    "command,outputs",
    [
        ("infer", ("--out", "pre.json")),
        ("run", ("--out-dir", "reports")),
    ],
)
def test_unknown_rule_id_exits_2(tmp_path, corpus, capsys, command, outputs):
    args = [a if a.startswith("--") else tmp_path / a for a in outputs]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--traces", corpus, *args, "--disable-rule", "type.strng")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'type.strng'" in err and "'type.string'" in err
    assert not any(isinstance(a, Path) and a.exists() for a in args)


@pytest.fixture()
def anns(tmp_path, corpus):
    anns = tmp_path / "annotations.json"
    assert run_cli("infer", "--traces", corpus, "--out", anns) == 0
    return anns


def _drop_first_message(path, tmp_path):
    doc = json.loads(path.read_text())
    dropped = sorted(doc)[0]
    del doc[dropped]
    out = tmp_path / "dropped.json"
    out.write_text(json.dumps(doc))
    return out, dropped


def _refine(corpus, anns, tmp_path):
    return run_cli(
        "refine", "--traces", corpus,
        "--annotations", anns, "--out", tmp_path / "refined.json",
        "--audit", tmp_path / "audit.json", "--clusters", tmp_path / "clusters.json",
    )


def test_refine_prints_its_decisions_and_the_events_they_cover(tmp_path, corpus, anns, capsys):
    capsys.readouterr()
    assert _refine(corpus, anns, tmp_path) == 0
    doc = json.loads((tmp_path / "audit.json").read_text())
    assert (doc["format"], doc["version"]) == ("fieldlens-refinement-audit", 2)
    covered = sum(len(d["messages"]) for d in doc["decisions"])
    assert (len(doc["decisions"]), covered) == (3, 28)
    assert capsys.readouterr().out == (
        f"refined 12 messages -> {tmp_path / 'refined.json'} "
        "(3 audit decisions covering 28 per-message events)\n"
    )


def test_refine_rejects_annotations_missing_a_message(tmp_path, corpus, anns, capsys):
    partial, dropped = _drop_first_message(anns, tmp_path)
    assert _refine(corpus, partial, tmp_path) == 2
    err = capsys.readouterr().err
    assert "error:" in err and dropped in err
    assert not (tmp_path / "refined.json").exists()


def test_refine_rejects_annotations_of_another_length(tmp_path, corpus, anns, capsys):
    doc = json.loads(anns.read_text())
    first = sorted(doc)[0]
    last = doc[first][-1]
    last["end"] += 1
    anns.write_text(json.dumps(doc))
    assert _refine(corpus, anns, tmp_path) == 2
    assert first in capsys.readouterr().err


def test_score_rejects_annotations_missing_a_message(tmp_path, corpus, anns, capsys):
    partial, dropped = _drop_first_message(anns, tmp_path)
    assert run_cli(
        "score", "--annotations", partial,
        "--ground-truth", corpus, "--out", tmp_path / "metrics.json",
    ) == 2
    err = capsys.readouterr().err
    assert "error:" in err and dropped in err
    assert not (tmp_path / "metrics.json").exists()



def _run_stage_and_expect_exit_2(tmp_path, corpus, command, anns, named):
    """Run ``command`` in a fresh interpreter; it must exit 2 naming
    ``named``.  Returns its standard error."""
    extra = {
        "refine": ["--traces", corpus],
        "score": ["--ground-truth", corpus],
        "export-template": ["--traces", corpus],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "fieldlens.cli", command, *map(str, extra),
         "--annotations", str(anns), "--out", "out.json"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr and str(named) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.json").exists()
    return proc.stderr


@pytest.mark.parametrize(
    "command, content",
    [
        pytest.param("refine", '{"bin000": [{"start": 0}]}', id="missing-key"),
        pytest.param("refine", "{not json", id="not-json"),
        pytest.param("score", None, id="score-unknown-type"),
        pytest.param("export-template", None, id="template-unknown-type"),
        pytest.param("export-template", "[" * 200_000, id="too-deep"),
    ],
)
def test_malformed_json_document_exits_2(tmp_path, corpus, anns, command, content):
    if content is None:
        doc = json.loads(anns.read_text())
        doc[sorted(doc)[0]][0]["type"] = "FOO"
        content = json.dumps(doc)
    anns.write_text(content)
    _run_stage_and_expect_exit_2(tmp_path, corpus, command, anns, anns)


def _float_offsets(fields):
    fields[0]["end"] = float(fields[0]["end"])
    fields[1]["start"] = float(fields[1]["start"])


@pytest.mark.parametrize(
    "command",
    [
        pytest.param("refine", id="refine-annotations"),
        pytest.param("score", id="score-annotations"),
        pytest.param("export-template", id="export-template-annotations"),
    ],
)
def test_non_integer_offsets_exit_2(tmp_path, corpus, anns, command):
    # 1.0 == 1, so this document passes the id, length and partition checks
    doc = json.loads(anns.read_text())
    _float_offsets(doc[sorted(doc)[0]])
    anns.write_text(json.dumps(doc))
    _run_stage_and_expect_exit_2(tmp_path, corpus, command, anns, anns)


def _extra_message(doc):
    doc["zzz"] = doc[sorted(doc)[0]]


def _last_field_past_the_end(doc):
    doc[sorted(doc)[0]][-1]["end"] += 5


def _second_field_overlaps_first(doc):
    first, second = doc[sorted(doc)[0]][:2]
    second["start"] = first["end"]


@pytest.mark.parametrize(
    "command, edit",
    [
        pytest.param("export-template", _extra_message, id="template-extra-id"),
        pytest.param("export-template", _last_field_past_the_end, id="template-past-end"),
        pytest.param("refine", _second_field_overlaps_first, id="refine-overlap"),
        pytest.param("score", _second_field_overlaps_first, id="score-overlap"),
    ],
)
def test_annotations_must_partition_each_message(tmp_path, corpus, anns, command, edit):
    doc = json.loads(anns.read_text())
    edit(doc)
    anns.write_text(json.dumps(doc))
    _run_stage_and_expect_exit_2(tmp_path, corpus, command, anns, anns)


@pytest.mark.parametrize("command", ["refine", "score"])
def test_a_gap_in_one_message_exits_2_naming_the_file_and_the_message(
    tmp_path, corpus, anns, command
):
    """A format names no message, so the stage that checks a message's
    annotated fields names it."""
    doc = json.loads(anns.read_text())
    mid = sorted(doc)[-1]
    del doc[mid][1]
    assert len(doc[mid]) > 1  # the gap is inside the message
    anns.write_text(json.dumps(doc))
    err = _run_stage_and_expect_exit_2(tmp_path, corpus, command, anns, anns)
    assert err == (
        f"error: {anns}: message '{mid}': format does not partition the message: "
        f"field starts at {doc[mid][1]['start']}, expected {doc[mid][0]['end'] + 1}\n"
    )


def test_score_names_a_ground_truth_file_of_another_length(tmp_path, corpus, anns):
    doc = json.loads(anns.read_text())
    first = sorted(doc)[0]
    end = doc[first][-1]["end"] + 1
    truth = tmp_path / "truth.fl"
    truth.write_text(corpus.read_text() + f"gt {first} field={end}-{end} type=BYTES funcs=-\n")
    _run_stage_and_expect_exit_2(tmp_path, truth, "score", anns, truth)


def test_score_reads_a_ground_truth_only_file(tmp_path, corpus, anns):
    truth = tmp_path / "truth.fl"
    truth.write_text("".join(
        line for line in corpus.read_text().splitlines(keepends=True)
        if line.startswith("gt ")
    ))
    for ground_truth, out in ((corpus, "joint.json"), (truth, "split.json")):
        assert run_cli(
            "score", "--annotations", anns,
            "--ground-truth", ground_truth, "--out", tmp_path / out,
        ) == 0
    assert (tmp_path / "split.json").read_bytes() == (tmp_path / "joint.json").read_bytes()


@pytest.mark.parametrize(
    "bad_line",
    [
        pytest.param("fld bin000 field=0-1", id="unknown-kind"),
        pytest.param("rec bin000 seq=1 op=mov class=NOPE off=0", id="malformed-rec"),
    ],
)
def test_score_rejects_a_malformed_ground_truth_file(tmp_path, corpus, anns, bad_line):
    truth = tmp_path / "truth.fl"
    truth.write_text(corpus.read_text() + bad_line + "\n")
    _run_stage_and_expect_exit_2(tmp_path, truth, "score", anns, truth)


@pytest.mark.parametrize(
    "bad_line",
    [
        pytest.param("rec bin000 seq=1 op=mov class=NOPE off=0", id="malformed-rec"),
        pytest.param("gt bin000 field=0-1 type=NOPE funcs=-", id="malformed-gt"),
    ],
)
def test_run_names_the_ground_truth_file_once(tmp_path, corpus, bad_line):
    truth = tmp_path / "truth.fl"
    truth.write_text(corpus.read_text() + bad_line + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "fieldlens.cli", "run", "--traces", str(corpus),
         "--ground-truth", str(truth), "--out-dir", "reports"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count(str(truth)) == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize(
    "values, message",
    [
        pytest.param("field=0-1 type=NOPE funcs=-", "unknown type 'NOPE'", id="type"),
        pytest.param("field=4-2 type=STATIC funcs=-", "bad field range '4-2'", id="range"),
    ],
)
def test_extract_rejects_a_malformed_gt_line_on_its_line(tmp_path, corpus, capsys,
                                                         values, message):
    bad = tmp_path / "bad.fl"
    bad.write_text(corpus.read_text() + f"gt bin000 {values}\n")
    line = len(corpus.read_text().splitlines()) + 1
    assert run_cli("extract", "--traces", bad, "--out", tmp_path / "f.json") == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: line {line}: {message}\n"
    assert not (tmp_path / "f.json").exists()


def test_run_names_ground_truth_that_misses_messages_and_lists_five(tmp_path, corpus):
    truth = tmp_path / "gt1.fl"
    truth.write_text("".join(
        line for line in corpus.read_text().splitlines(keepends=True)
        if line.startswith("gt bin000 ")
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "fieldlens.cli", "run", "--traces", str(corpus),
         "--ground-truth", str(truth), "--out-dir", "reports"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and str(truth) in proc.stderr
    # 11 of the 12 messages lack ground truth; five are named
    assert proc.stderr.count("bin0") == 5 and "and 6 more" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "reports").exists()


def test_run_rejects_ground_truth_for_an_unknown_message(tmp_path, corpus, capsys):
    truth = tmp_path / "truth.fl"
    truth.write_text(corpus.read_text() + "gt zz9 field=0-1 type=STATIC funcs=-\n")
    out_dir = tmp_path / "reports"
    assert run_cli(
        "run", "--traces", corpus, "--ground-truth", truth, "--out-dir", out_dir
    ) == 2
    assert "zz9" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        # the alignment constants are fixed: their former flags are unknown
        pytest.param(["extract", "--out", "f.json", "--similarity-threshold", "0.8"],
                     "unrecognized arguments: --similarity-threshold",
                     id="extract-threshold"),
        pytest.param(["infer", "--out", "a.json", "--gap-score", "-2"],
                     "unrecognized arguments: --gap-score", id="infer-gap"),
        pytest.param(["refine", "--annotations", "a.json",
                      "--out", "r.json", "--match-score", "1"],
                     "unrecognized arguments: --match-score", id="refine-match"),
        pytest.param(["run", "--out-dir", "reports", "--gap-score", "-2",
                      "--mismatch-score", "-1"],
                     "unrecognized arguments: --gap-score -2 --mismatch-score",
                     id="run-match"),
        pytest.param(["generate-traces", "--count", "-3", "--out", "g.fl"],
                     "--count", id="generate-negative-count"),
        pytest.param(["generate-traces", "--count", "0", "--out", "g.fl"],
                     "--count", id="generate-zero-count"),
        pytest.param(["generate-traces", "--step-budget", "0", "--out", "g.fl"],
                     "--step-budget", id="generate-zero-step-budget"),
        pytest.param(["generate-traces", "--step-budget", "-5", "--out", "g.fl"],
                     "--step-budget", id="generate-negative-step-budget"),
        pytest.param(["generate-traces", "--parser", "nope", "--out", "g.fl"],
                     "'nope'", id="generate-unknown-parser"),
        pytest.param(["generate-traces", "--script", "p.pvm", "--out", "g.fl"],
                     "--corpus", id="generate-script-without-corpus"),
        pytest.param(["run", "--traces", ".", "--out-dir", "reports"],
                     "Is a directory: '.'", id="run-traces-directory"),
        pytest.param(["extract", "--out", "."], "Is a directory: '.'", id="extract-out-directory"),
    ],
)
def test_bad_flags_exit_2_before_reading_input(tmp_path, corpus, argv, named):
    if argv[0] != "generate-traces" and "--traces" not in argv:
        argv = [*argv, "--traces", str(corpus)]
    proc = subprocess.run(
        [sys.executable, "-m", "fieldlens.cli", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr and named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [corpus.name]


def test_generate_names_the_step_budget_that_ran_out(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fieldlens.cli", "generate-traces", "--parser",
         "binary-frame", "--count", "1", "--step-budget", "5", "--out", "g.fl"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 2
    assert "step budget" in proc.stderr and "--step-budget 5" in proc.stderr
    assert "generator bug" not in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "g.fl").exists()


def test_a_script_run_names_the_step_budget_that_ran_out(tmp_path, capsys):
    text = tmp_path / "txt.fl"
    assert run_cli(
        "generate-traces", "--parser", "text-command", "--count", "3",
        "--with-ground-truth", "--out", text,
    ) == 0
    capsys.readouterr()
    out = tmp_path / "g.fl"
    script = SRC / "fieldlens" / "vm" / "scripts" / "text_command.pvm"
    assert run_cli(
        "generate-traces", "--script", script, "--corpus", text,
        "--with-ground-truth", "--step-budget", "5", "--out", out,
    ) == 2
    err = capsys.readouterr().err
    assert "error: txt000 ran out of its step budget (--step-budget 5)" in err
    assert not out.exists()


def test_a_script_run_keeps_going_past_a_rejected_message(tmp_path, corpus, capsys):
    script = tmp_path / "reject.pvm"
    script.write_text("reject\n")
    out = tmp_path / "g.fl"
    assert run_cli("generate-traces", "--script", script, "--corpus", corpus, "--out", out) == 0
    assert "bin000: REJECT" in capsys.readouterr().err
    assert out.exists()


@pytest.mark.parametrize(
    "content",
    [
        pytest.param("", id="empty"),
        pytest.param("gt bin000 field=0-1 type=STATIC funcs=-\n", id="ground-truth-only"),
    ],
)
@pytest.mark.parametrize("command", ["run", "generate-traces"])
def test_a_traces_file_without_messages_exits_2(tmp_path, capsys, content, command):
    traces = tmp_path / "empty.fl"
    traces.write_text(content)
    script = tmp_path / "p.pvm"
    script.write_text("accept\n")
    argv = {
        "run": ["--traces", traces, "--ground-truth", traces, "--out-dir", tmp_path / "out"],
        "generate-traces": ["--script", script, "--corpus", traces, "--out", tmp_path / "out"],
    }[command]
    assert run_cli(command, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(traces) in err and "msg line" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "score"])
def test_an_interchange_file_that_is_not_utf8_exits_2(tmp_path, corpus, anns, command):
    bad = tmp_path / "bad.fl"
    bad.write_bytes(corpus.read_bytes() + b"# caf\xff\n")
    line = len(corpus.read_bytes().splitlines()) + 1
    argv = {
        "run": ["--traces", bad, "--out-dir", "reports"],
        "score": ["--annotations", anns, "--ground-truth", bad, "--out", "metrics.json"],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "fieldlens.cli", command, *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {bad}: line {line}: not UTF-8")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "reports").exists() and not (tmp_path / "metrics.json").exists()


def test_generate_over_a_longer_file_leaves_the_bytes_of_a_fresh_one(tmp_path, corpus):
    out = tmp_path / "over.fl"
    out.write_bytes(b"# older and longer\n" * corpus.stat().st_size)
    assert run_cli(
        "generate-traces", "--parser", "binary-frame",
        "--count", "12", "--seed", "3", "--with-ground-truth", "--out", out,
    ) == 0
    assert out.read_bytes() == corpus.read_bytes()


#: A child process that imports the package, re-importing it (and keeping
#: the earlier copies alive, so no address is reused) until a frozenset of
#: every ``SemanticFunction`` iterates in another order than ``argv[1]``.
#: It prints that order on stderr, then runs ``fieldlens run`` with the
#: default configuration into ``default`` and with ``--baseline`` into
#: ``baseline``, on the traces and ground truth in ``argv[2]``.
_ANY_LAYOUT = """
import sys
{prelude}
kept = []
for _ in range(50):
    import fieldlens.cli
    from fieldlens.detectors import SemanticFunction
    order = ",".join(fn.name for fn in frozenset(SemanticFunction))
    if order != sys.argv[1]:
        break
    kept.append([sys.modules.pop(k) for k in list(sys.modules) if k.startswith("fieldlens")])
    kept.append([object() for _ in range(len(kept))])
else:
    sys.exit("no other layout in 50 imports")
print(order, file=sys.stderr)
corpus = sys.argv[2]
args = ["run", "--traces", corpus, "--ground-truth", corpus]
sys.exit(fieldlens.cli.main([*args, "--out-dir", "default"])
         or fieldlens.cli.main([*args, "--baseline", "--out-dir", "baseline"]))
"""


def test_reports_keep_their_bytes_whatever_the_label_addresses(tmp_path):
    """The label enums hash by identity, so a set of labels iterates in an
    order that follows the members' addresses.  Two fresh processes with
    different hash seeds and import orders, the second made to iterate the
    function set in another order than the first, write the same six
    reports under the default and the baseline configuration."""
    corpus = tmp_path / "all.fl"
    assert run_cli(
        "generate-traces", "--parser", "all", "--count", "6", "--seed", "5",
        "--with-ground-truth", "--out", corpus,
    ) == 0
    orders, reports = [], []
    for hash_seed, prelude in (("0", ""), ("4242", "import decimal, email.message")):
        work = tmp_path / f"seed{hash_seed}"
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _ANY_LAYOUT.format(prelude=prelude),
             orders[-1] if orders else "", str(corpus)],
            capture_output=True,
            text=True,
            cwd=work,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        orders.append(proc.stderr.strip())
        reports.append({
            p.relative_to(work).as_posix(): p.read_bytes()
            for p in sorted(work.rglob("*.json"))
        })
    assert orders[0] != orders[1]
    assert len(reports[0]) == 12 and reports[0] == reports[1]
