import csv
import importlib
import io
import json
import shlex
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cslkit import evaluation, targets
from cslkit.cli import build_parser, main
from cslkit.evaluation import DetectionRecord, GroundTruthRecord
from cslkit.rotgeom import OrientedBox180, canonicalize180, to_quad
from oracles import dict_eval_payload, dict_nms_payload, loop_evaluate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


def _readme_cli_examples():
    """The cslkit lines of the README's "CLI examples" block, as argument lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("cslkit ")]


def test_readme_cli_examples_run(capsys):
    # the lines that read a --dets file need fixtures and are skipped
    runnable = [argv for argv in _readme_cli_examples() if "--dets" not in argv]
    assert len(runnable) == 7
    for argv in runnable:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


class TestWindow:
    def test_gaussian_curve(self, capsys):
        payload = run_json(capsys, "window", "--kind", "gaussian", "--r", "6", "--omega", "1", "--range", "180")
        assert payload["schema_version"] == 1
        assert len(payload["curve"]) == 180
        values = [v for _, v in payload["curve"]]
        assert max(values) == 1.0

    def test_csv_format(self, capsys):
        code, out = run(capsys, "--format", "csv", "window", "--kind", "triangle", "--r", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bin,value"
        assert len(lines) == 181


class TestEncodeDecode:
    def test_round_trip(self, capsys):
        payload = run_json(capsys, "encode", "--theta", "37.2", "--kind", "gaussian", "--r", "6")
        scores = ",".join(str(v) for v in payload["values"])
        decoded = run_json(capsys, "decode", "--scores", scores)
        assert decoded["theta"] == pytest.approx(37.5)

    def test_scores_file_with_byte_order_mark(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("0.1,0.9,0.2\n", encoding="utf-8-sig")
        argv = ("decode", "--omega", "30", "--range", "90", "--r", "1", "--scores")
        assert run_json(capsys, *argv, f"@{scores}") == run_json(capsys, *argv, "0.1,0.9,0.2")

    def test_out_of_range_theta_is_data_error(self, capsys):
        code, _ = run(capsys, "encode", "--theta", "170")
        assert code == 2


class TestIou:
    def test_paper_sensitivity_value(self, capsys):
        payload = run_json(capsys, "iou", "--a", "0 0 9 1 0", "--b", "0 0 9 1 0.5")
        assert payload["iou"] == pytest.approx(0.9611, abs=0.01)

    def test_bad_literal(self, capsys):
        code, _ = run(capsys, "iou", "--a", "0 0 9 1", "--b", "0 0 9 1 0.5")
        assert code == 2
        code, _ = run(capsys, "iou", "--a", "0 nan 9 1 0", "--b", "0 0 9 1 0.5")
        assert code == 2

    @pytest.mark.parametrize("box", ["5 -3 1 1e-10 0", "5 -3 1 1e-10 17.3", "0 0 2e160 1e160 10", "0 0 2e-200 1e-200 10"])
    def test_box_the_kernel_cannot_compute_is_data_error(self, capsys, box):
        # these gave 0.0, 0.333 and nan with the box itself
        for a, b in ((box, box), (box, "0 0 4 2 0"), ("0 0 4 2 0", box)):
            assert main(["iou", "--a", a, "--b", b]) == 2
            assert "the IoU kernel needs" in capsys.readouterr().err


class TestQuantError:
    def test_default_omega(self, capsys):
        payload = run_json(capsys, "--seed", "3", "quant-error", "--omega", "1", "--samples", "100000")
        assert payload["max"] == 0.5
        assert payload["expected"] == 0.25
        assert payload["mc_mean"] == pytest.approx(0.25, abs=0.01)

    def test_seed_determinism(self, capsys):
        a = run_json(capsys, "--seed", "5", "quant-error", "--samples", "50000")
        b = run_json(capsys, "--seed", "5", "quant-error", "--samples", "50000")
        assert a == b


class TestBoundaryReport:
    def test_sweep(self, capsys):
        payload = run_json(capsys, "boundary-report", "--scenario", "deg180", "--eps", "0.5", "0.1")
        assert [r["epsilon_deg"] for r in payload["reports"]] == [0.5, 0.1]
        assert payload["reports"][1]["ratio"] > payload["reports"][0]["ratio"]


class TestTargets:
    def test_dump(self, capsys):
        payload = run_json(
            capsys, "targets", "--image-size", "32", "--strides", "32", "--gt", "16 16 20 10 0 0"
        )
        assert payload["num_anchors"] == 7
        assert len(payload["foreground"]) >= 1

    def test_one_forced_anchor_per_gt(self, capsys):
        """Every anchor of the 64 px grid covers all three small gts, so
        each gt's tied best anchors are the whole grid: the largest gt
        takes anchor 0 and the others the next free ones, where the loop
        before forced all three onto anchor 0 and kept only gt 1."""
        payload = run_json(capsys, "targets", "--image-size", "64", "--strides", "32", "--mode", "rotated",
                           "--gt", "20 20 4 2 0 0", "--gt", "40 24 5 2 30 1", "--gt", "30 44 3 2 -45 2")
        assert payload["foreground"] == [0, 1, 2]
        assert [payload["matched_gt"][i] for i in range(3)] == [1, 0, 2]
        assert [payload["max_iou"][i] * 128**2 for i in range(3)] == pytest.approx([10, 8, 6], rel=1e-12)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("mode", ["horizontal", "rotated"])
    def test_output_equals_record_list(self, capsys, monkeypatch, mode, fmt):
        """The AnchorSet of generate_anchors gives the same bytes as its
        records passed as a plain list, which assign_targets converts
        itself: on the cases above and 20 seeded ones."""
        rng = np.random.default_rng(41 if mode == "horizontal" else 42)
        argvs = [("--image-size", "32", "--strides", "32", "--gt", "16 16 20 10 0 0"), ("--image-size", "32", "--strides", "32")]
        for _ in range(20):
            size, strides = [(32, ("16",)), (64, ("8", "16")), (64, ("32",)), (64, ("16", "32"))][rng.integers(4)]
            gts = [f"{rng.uniform(0, size):.3f} {rng.uniform(0, size):.3f} {rng.uniform(1, 30):.3f} {rng.uniform(1, 30):.3f} "
                   f"{rng.uniform(-90, 90):.2f} {k}" for k in range(rng.integers(1, 4))]
            argvs.append(("--image-size", str(size), "--strides", *strides, *(t for g in gts for t in ("--gt", g))))
        outputs = [run(capsys, "--format", fmt, "targets", "--mode", mode, *argv) for argv in argvs]
        generate = targets.generate_anchors
        monkeypatch.setattr(targets, "generate_anchors", lambda spec, mode: list(generate(spec, mode)))
        assert [run(capsys, "--format", fmt, "targets", "--mode", mode, *argv) for argv in argvs] == outputs
        assert all(code == 0 for code, _ in outputs)
        assert sum('"foreground": [\n' in out or ",1," in out for _, out in outputs) >= 20


# detections of four (image, class) groups, interleaved in the file
INTERLEAVED_DETS = (
    "im2 plane 0.6 5 5 4 2 30\nim1 ship 0.9 0 0 4 2 0\nim1 plane 0.85 0.5 0 4 2 0\n"
    "im2 plane 0.95 5.2 5 4 2 31\nim1 ship 0.8 0.3 0.1 4 2 2\nim1 ship 0.7 100 0 4 2 0\n"
    "im1 plane 0.5 40 40 6 3 -45\nim2 ship 0.4 5 5 2 4 -60\nim1 plane 0.45 41 40 6 3 -44\n"
)


class TestTargetsGtLiteral:
    @pytest.mark.parametrize("literal", ["16 16 20 10 0", "16 16 20 10 0 0 7"])
    def test_wrong_token_count_is_data_error(self, capsys, literal):
        code = main(["targets", "--image-size", "32", "--strides", "32", "--gt", literal])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "6 tokens" in captured.err


class TestSharedParser:
    """main reuses one parser; successive calls share no state."""

    def test_append_default_not_carried_over(self, capsys):
        argv = ("targets", "--image-size", "32", "--strides", "32")
        assert run_json(capsys, *argv, "--gt", "16 16 20 10 0 0")["foreground"] == [0]
        payload = run_json(capsys, *argv)
        assert payload["foreground"] == []
        assert set(payload["matched_gt"]) == {-1}

    def test_list_default_not_carried_over(self, capsys):
        run_json(capsys, "boundary-report", "--scenario", "deg180", "--eps", "0.1")
        payload = run_json(capsys, "boundary-report", "--scenario", "deg180")
        assert [r["epsilon_deg"] for r in payload["reports"]] == [0.5, 0.25, 0.1, 0.05, 0.01]

    def test_usage_error_then_valid_call(self, capsys):
        assert main(["iou", "--a", "0 0 9 1 0"]) == 1
        assert main(["iou", "--a", "0 0 9 1 0", "--b", "0 0 9 1 0"]) == 0

    def test_build_parser_is_fresh(self):
        assert build_parser() is not build_parser()


class TestNmsAndEval(object):
    def test_nms_file(self, tmp_path, capsys):
        dets = tmp_path / "dets.txt"
        dets.write_text("im1 ship 0.9 0 0 4 2 0\nim1 ship 0.8 0 0 4 2 0\nim1 ship 0.7 100 0 4 2 0\n")
        payload = run_json(capsys, "nms", "--dets", str(dets), "--classes", "ship", "--iou-thresh", "0.5")
        assert [d["score"] for d in payload["kept"]] == [0.9, 0.7]

    def test_nms_writes_canonical_box_as_parsed(self, tmp_path, capsys):
        dets = tmp_path / "dets.txt"
        dets.write_text("im1 ship 0.9 10 10 20 5 0.1\nim1 ship 0.8 50 50 3 3 -1e-20\n")
        argv = ("nms", "--dets", str(dets), "--classes", "ship")
        assert [d["box"] for d in run_json(capsys, *argv)["kept"]] == [[10, 10, 20, 5, 0.1], [50, 50, 3, 3, -1e-20]]
        assert run(capsys, "--format", "csv", *argv)[1].splitlines()[1] == "im1,0,0.9,10.0,10.0,20.0,5.0,0.1"

    def test_csv_quotes_an_image_id_with_a_comma(self, tmp_path, capsys):
        dets = tmp_path / "dets.txt"
        dets.write_text("P,1 ship 0.9 10 10 20 5 0.1\n")
        code, out = run(capsys, "--format", "csv", "nms", "--dets", str(dets), "--classes", "ship")
        assert (code, out) == (0, 'image_id,class_id,score,cx,cy,h,w,theta\n"P,1",0,0.9,10.0,10.0,20.0,5.0,0.1\n')

    def test_unknown_category_warning_names_its_file(self, tmp_path, capsys, caplog):
        dets = tmp_path / "dets.txt"
        dets.write_text("a ship 0.9 2 1 4 2 0\n")
        ann = tmp_path / "ann"
        ann.mkdir()
        for name in ("a.txt", "b.txt"):
            (ann / name).write_text("0 0 4 0 4 2 0 2 ship 0\n0 0 4 0 4 2 0 2 tank 0\n")
        argv = ("eval", "--dets", str(dets), "--ann-dir", str(ann), "--classes", "ship")
        with caplog.at_level("WARNING", logger="cslkit.evaluation"):
            code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out)["ap12"] == {"ship": 0.5}
        assert [r.getMessage() for r in caplog.records] == [
            "a: line 2: skipping unknown category 'tank'", "b: line 2: skipping unknown category 'tank'"]

    @pytest.mark.parametrize("bom_in", [("ann",), ("dets",), ("ann", "dets")])
    def test_byte_order_mark_is_not_read_as_data(self, tmp_path, capsys, bom_in):
        # a UTF-8 byte-order mark, as some editors write one, before a file's first line
        encoding = {name: "utf-8-sig" if name in bom_in else "utf-8" for name in ("ann", "dets")}
        ann = tmp_path / "ann"
        ann.mkdir()
        (ann / "P1.txt").write_text("0 0 4 0 4 2 0 2 ship 0\n20 0 24 0 24 2 20 2 ship 0\n", encoding=encoding["ann"])
        dets = tmp_path / "dets.txt"
        dets.write_text("P1 ship 0.9 2 1 4 2 0\nP1 ship 0.8 22 1 4 2 0\n", encoding=encoding["dets"])
        report = run_json(capsys, "eval", "--dets", str(dets), "--ann-dir", str(ann), "--classes", "ship")
        assert (report["ap07"], report["ap12"]) == ({"ship": 1.0}, {"ship": 1.0})
        kept = run_json(capsys, "nms", "--dets", str(dets), "--classes", "ship")["kept"]
        assert [d["image_id"] for d in kept] == ["P1", "P1"]

    def test_eval_pipeline(self, tmp_path, capsys):
        ann = tmp_path / "ann"
        ann.mkdir()
        box = canonicalize180(10, 20, 8, 3, 35)
        coords = " ".join(f"{v:.10f}" for v in to_quad(box).as_array().ravel())
        (ann / "im1.txt").write_text(f"imagesource:x\n{coords} ship 0\n")
        dets = tmp_path / "dets.txt"
        dets.write_text("im1 ship 0.9 10 20 8 3 35\n")
        payload = run_json(
            capsys, "eval", "--dets", str(dets), "--ann-dir", str(ann), "--classes", "ship", "--subset", "ship"
        )
        assert payload["ap12"]["ship"] == pytest.approx(1.0)
        assert payload["subset_map12"] == pytest.approx(1.0)

    def test_nms_groups_output(self, tmp_path, capsys):
        # groups interleaved in the file; kept detections come out grouped
        # by (image, class id) in sorted order, each group in input order
        dets = tmp_path / "dets.txt"
        dets.write_text(INTERLEAVED_DETS)
        argv = ("nms", "--dets", str(dets), "--classes", "ship", "plane", "--iou-thresh", "0.3")
        code, out = run(capsys, "--format", "csv", *argv)
        assert code == 0
        assert out == (
            "image_id,class_id,score,cx,cy,h,w,theta\n"
            "im1,0,0.9,0.0,0.0,4.0,2.0,0.0\n"
            "im1,0,0.7,100.0,0.0,4.0,2.0,0.0\n"
            "im1,1,0.85,0.5,0.0,4.0,2.0,0.0\n"
            "im1,1,0.5,40.0,40.0,6.0,3.0,-45.0\n"
            "im2,0,0.4,5.0,5.0,4.0,2.0,30.0\n"
            "im2,1,0.95,5.2,5.0,4.0,2.0,31.0\n"
        )
        payload = run_json(capsys, *argv)
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [[d["image_id"], str(d["class_id"]), str(d["score"]), *map(str, d["box"])] for d in payload["kept"]] == rows

    @pytest.mark.parametrize("line", ["im1 ship 0.9 nan 0 4 2 0", "im1 ship 0.9 0 0 inf 2 0", "im1 ship 0.9 0 -inf 4 2 0"])
    def test_non_finite_detection_is_data_error(self, tmp_path, capsys, line):
        dets = tmp_path / "dets.txt"
        dets.write_text(f"im1 ship 0.8 0 0 4 2 0\n{line}\n")
        ann = tmp_path / "ann"
        ann.mkdir()
        (ann / "im1.txt").write_text("0 0 4 0 4 2 0 2 ship 0\n")
        code, out = run(capsys, "nms", "--dets", str(dets), "--classes", "ship")
        assert (code, out) == (2, "")
        code, out = run(capsys, "eval", "--dets", str(dets), "--ann-dir", str(ann), "--classes", "ship")
        assert (code, out) == (2, "")

    def test_non_finite_annotation_is_data_error(self, tmp_path, capsys):
        dets = tmp_path / "dets.txt"
        dets.write_text("im1 ship 0.8 0 0 4 2 0\n")
        ann = tmp_path / "ann"
        ann.mkdir()
        (ann / "im1.txt").write_text("0 0 4 0 4 2 nan 2 ship 0\n")
        code, out = run(capsys, "eval", "--dets", str(dets), "--ann-dir", str(ann), "--classes", "ship")
        assert (code, out) == (2, "")

    def test_degenerate_annotation_names_its_line(self, tmp_path, capsys):
        dets = tmp_path / "dets.txt"
        dets.write_text("im1 ship 0.8 0 0 4 2 0\n")
        ann = tmp_path / "ann"
        ann.mkdir()
        (ann / "im1.txt").write_text("imagesource:x\n0 0 4 0 4 2 0 2 ship 0\n0 0 4 0 4 0 0 2 ship 0\n")
        code = main(["eval", "--dets", str(dets), "--ann-dir", str(ann), "--classes", "ship"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: im1.txt: line 3: duplicate vertices\n"

    def test_nms_one_kernel_call_for_free_heads(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = evaluation._iou_pairs
        monkeypatch.setattr(evaluation, "_iou_pairs", lambda *args: calls.append(len(args[2])) or real(*args))
        dets = tmp_path / "dets.txt"
        dets.write_text(INTERLEAVED_DETS)
        payload = run_json(capsys, "nms", "--dets", str(dets), "--classes", "ship", "plane", "--iou-thresh", "0.3")
        # (im1, plane) keeps two boxes that share no candidate pair, so
        # both are free at once: one call takes the three candidate pairs
        # of all groups, each later box against a kept one
        kept = Counter((d["image_id"], d["class_id"]) for d in payload["kept"])
        assert max(kept.values()) == 2
        assert calls == [3]

    @pytest.mark.parametrize("thresh", ["nan", "-0.5", "1.5", "inf"])
    def test_bad_iou_thresh_is_data_error(self, tmp_path, capsys, thresh):
        dets = tmp_path / "dets.txt"
        dets.write_text("im1 ship 0.9 0 0 4 2 0\nim1 ship 0.8 100 0 4 2 0\n")
        ann = tmp_path / "ann"
        ann.mkdir()
        (ann / "im1.txt").write_text("0 0 4 0 4 2 0 2 ship 0\n")
        code = main(["nms", "--dets", str(dets), "--classes", "ship", "--iou-thresh", thresh])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "IoU threshold" in captured.err
        argv = ("eval", "--dets", str(dets), "--ann-dir", str(ann), "--classes", "ship", "--iou-thresh", thresh)
        code, out = run(capsys, *argv)
        assert (code, out) == (2, "")

    def test_missing_file_is_data_error(self, capsys):
        code, _ = run(capsys, "nms", "--dets", "/nonexistent.txt")
        assert code == 2

    def test_nms_builds_no_records(self, tmp_path, capsys, monkeypatch):
        built = Counter()
        for cls in (OrientedBox180, DetectionRecord, GroundTruthRecord):
            real = cls.__init__
            monkeypatch.setattr(cls, "__init__", lambda self, *args, real=real, **kwargs:
                                built.update([type(self)]) or real(self, *args, **kwargs))
        dets = tmp_path / "dets.txt"
        dets.write_text(INTERLEAVED_DETS)
        argv = ("nms", "--dets", str(dets), "--classes", "ship", "plane", "--iou-thresh", "0.3")
        assert len(run_json(capsys, *argv)["kept"]) == 6
        assert run(capsys, "--format", "csv", *argv)[0] == 0
        assert built == Counter()
        # eval on two annotation files builds none either, in JSON and CSV
        ann = tmp_path / "ann"
        ann.mkdir()
        (ann / "im1.txt").write_text("-2 -1 2 -1 2 1 -2 1 ship 0\n38 38 44 38 44 41 38 41 plane 1\n")
        (ann / "im2.txt").write_text("imagesource:x\n3 4 7 4 7 6 3 6 plane 0\n")
        argv = ("eval", "--dets", str(dets), "--ann-dir", str(ann), "--classes", "ship", "plane")
        assert run_json(capsys, *argv)["map12"] > 0
        assert run(capsys, "--format", "csv", *argv)[0] == 0
        assert built == Counter()
        # the counter does see records: the library's ingest_dota builds them
        evaluation.ingest_dota((ann / "im1.txt").read_text(), "im1", {"ship": 0, "plane": 1})
        assert built == Counter({OrientedBox180: 2, GroundTruthRecord: 2})

    @pytest.mark.parametrize("argv, option, name", [
        (("nms", "--dets", "/nonexistent.txt", "--classes", "ship", "plane", "ship"), "--classes", "ship"),
        (("eval", "--dets", "/nonexistent.txt", "--ann-dir", "/nonexistent", "--classes", "a", "b", "b", "a"), "--classes", "b"),
        (("eval", "--dets", "/nonexistent.txt", "--ann-dir", "/nonexistent", "--classes", "ship", "plane",
          "--subset", "plane", "plane"), "--subset", "plane"),
    ])
    def test_class_named_twice_is_data_error(self, capsys, argv, option, name):
        # checked before any file is read, so the missing files are not reported
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {option} lists {name!r} twice\n"

    def test_ann_dir_skips_hidden_files(self, tmp_path, capsys):
        dets = tmp_path / "dets.txt"
        dets.write_text("im1 ship 0.9 2 1 4 2 0\n")
        ann = tmp_path / "ann"
        ann.mkdir()
        (ann / "im1.txt").write_text("0 0 4 0 4 2 0 2 ship 0\n")
        argv = ("eval", "--dets", str(dets), "--ann-dir", str(ann), "--classes", "ship")
        want = run(capsys, *argv)
        (ann / ".DS_Store").write_bytes(b"\x00\x87Bud1\xff")
        (ann / ".extra.txt").write_text("0 0 4 0 4 2 0 2 ship 0\n")  # read, its missed gt would halve the AP
        (ann / ".notes").mkdir()
        assert run(capsys, *argv) == want
        assert json.loads(want[1])["ap12"] == {"ship": 1.0}

    @pytest.mark.parametrize("name, content, error", [
        ("README", b"1 2 3\n", "README: line 1: expected 8 coordinates, category and difficult flag, got 3 tokens"),
        ("notes.bin", b"\x00\x87Bud1\xff", "notes.bin: 'utf-8' codec can't decode byte 0x87 in position 1: invalid start byte"),
        ("im2.txt", b"imagesource:x\n0 0 4 0 4 2 0 2 car 0\n", "im2.txt: line 2: unknown category 'car'"),
        ("im2.txt", b"imagesource:x\n0 0 1 0 1 5e-9 0 5e-9 ship 0\n", "im2.txt: line 2: box has sides 1.0 and 5e-09; the "
         "IoU kernel needs a short side of at least 1e-8 of the long side and sides within [1e-150, 1e150]"),
    ])
    def test_annotation_error_names_its_file(self, tmp_path, capsys, name, content, error):
        dets = tmp_path / "dets.txt"
        dets.write_text("im1 ship 0.9 2 1 4 2 0\n")
        ann = tmp_path / "ann"
        ann.mkdir()
        (ann / "im1.txt").write_text("0 0 4 0 4 2 0 2 ship 0\n")
        (ann / name).write_bytes(content)
        code = main(["eval", "--dets", str(dets), "--ann-dir", str(ann), "--classes", "ship", "--strict"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {error}\n"

    @pytest.mark.parametrize("files, error", [
        # a geometry fault in the first file, a parse fault in the second
        ({"a.txt": "0 0 4 0 4 2 0 2 ship 0\n0 0 0 0 1 1 0 1 ship 0\n", "b.txt": "0 0 1 0 1 1 0 ship 0\n"},
         "a.txt: line 2: duplicate vertices"),
        # a parse fault in the first file, a geometry fault in the second
        ({"a.txt": "imagesource:x\n0 0 4 0 4 2 0 2 ship 2\n", "b.txt": "0 0 0 0 1 1 0 1 ship 0\n"},
         "a.txt: line 2: difficult flag must be 0 or 1, got '2'"),
        # in one file, a geometry fault on a line before a parse fault
        ({"a.txt": "0 0 4 0 4 2 0 2 ship 0\n", "b.txt": "0 0 1 0 2 0 3 0 plane 0\n0 0 1 0 1 1 0 ship 0\n"},
         "b.txt: line 1: degenerate quadrilateral (zero area)"),
        # and a parse fault on a line before a geometry fault
        ({"a.txt": "0 0 4 0 4 2 0 2 boat 0\n0 0 0 0 1 1 0 1 ship 0\n"}, "a.txt: line 1: unknown category 'boat'"),
        # an undecodable later file pre-empts no fault of an earlier one
        ({"a.txt": "0 0 0 0 1 1 0 1 ship 0\n", "b.bin": b"\x00\x87Bud1\xff"}, "a.txt: line 1: duplicate vertices"),
        ({"a.txt": "0 0 1 0 1 1 0 ship 0\n", "b.bin": b"\x00\x87Bud1\xff"},
         "a.txt: line 1: expected 8 coordinates, category and difficult flag, got 9 tokens"),
        # but an undecodable earlier file pre-empts the faults of later ones
        ({"a.bin": b"\x00\x87Bud1\xff", "b.txt": "0 0 0 0 1 1 0 1 ship 0\n"},
         "a.bin: 'utf-8' codec can't decode byte 0x87 in position 1: invalid start byte"),
    ])
    def test_first_annotation_fault_wins(self, tmp_path, capsys, files, error):
        # files in sorted order; within the first with a fault, its first bad line
        dets = tmp_path / "dets.txt"
        dets.write_text("a ship 0.9 2 1 4 2 0\n")
        ann = tmp_path / "ann"
        ann.mkdir()
        for name, content in files.items():
            (ann / name).write_bytes(content.encode() if isinstance(content, str) else content)
        code = main(["eval", "--dets", str(dets), "--ann-dir", str(ann), "--classes", "ship", "plane", "--strict"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {error}\n")

    def test_subset_outside_classes_is_data_error(self, capsys):
        # checked before any file is read, so the missing files are not reported
        code = main(["eval", "--dets", "/nonexistent.txt", "--ann-dir", "/nonexistent", "--classes", "ship",
                     "--subset", "ship", "plane"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: --subset class 'plane' is not one of --classes\n"


# DOTA fixture of the golden test: header lines, vertex orders starting at
# different corners and running either way, a non-convex quad (line 5 of
# im1), difficult flags, an unknown category (line 7 of im1, skipped in
# lenient mode), and a ship and a plane ground truth that overlap in im1
GOLDEN_ANN = {
    "im1.txt": (
        "imagesource:GoogleEarth\n"
        "gsd:0.146343590398\n"
        "30.49 31.83 4.51 16.83 9.51 8.17 35.49 23.17 ship 0\n"
        "22.66 36.31 41.05 20.88 33.34 11.69 14.95 27.12 plane 0\n"
        "60 60 100 60 80 65 80 90 ship 0\n"
        "133.55 31.38 138.72 50.69 146.45 48.62 141.28 29.31 plane 1\n"
        "33.51 110.73 49.27 113.51 46.49 129.27 30.73 126.49 car 0\n"
        "114.95 107.16 114.04 133.15 105.05 132.84 105.96 106.85 ship 0\n"
    ),
    "im2.txt": (
        "imagesource:GoogleEarth\n"
        "33.94 36.18 46.06 29.18 66.06 63.82 53.94 70.82 plane 0\n"
        "67.24 59.30 46.59 29.81 36.76 36.70 57.41 66.19 plane 0\n"
        "159.33 142.32 161.92 151.98 140.67 157.68 138.08 148.02 ship 1\n"
    ),
}
GOLDEN_DETS = """im1 ship 0.95 20.5 20.2 30 10 31
im1 plane 0.9 21 21 30 10 30
im1 plane 0.85 28.3 24.1 24 12 -41
im1 ship 0.8 27 24 24 12 -40
im1 ship 0.75 80 68 40 30 0
im1 plane 0.7 140 40 20 8 76
im1 ship 0.6 110 121 26 9 -87
im1 ship 0.55 110 118 26 9 -80
im1 plane 0.5 300 300 10 5 0
im2 plane 0.92 51 49 38 13 57
im2 plane 0.65 50 50 40 14 60
im2 ship 0.88 150 150 22 10 -15
im2 ship 0.4 50 50 40 14 60
im3 ship 0.3 10 10 5 5 0
"""
GOLDEN_CSV = """class,ap07,ap12
ship,0.8409090909090909,0.8333333333333333
plane,0.5454545454545455,0.5555555555555556
mAP,0.6931818181818182,0.6944444444444444
"""
GOLDEN_PAYLOAD = {
    "schema_version": 1,
    "ap07": {"ship": 0.8409090909090909, "plane": 0.5454545454545455},
    "ap12": {"ship": 0.8333333333333333, "plane": 0.5555555555555556},
    "map07": 0.6931818181818182,
    "map12": 0.6944444444444444,
    "pr_curves": {
        "ship": {
            "recall": [0.3333333333333333, 0.3333333333333333, 0.3333333333333333, 0.6666666666666666, 1.0, 1.0, 1.0, 1.0],
            "precision": [1.0, 1.0, 0.5, 0.6666666666666666, 0.75, 0.6, 0.5, 0.42857142857142855],
        },
        "plane": {
            "recall": [0.3333333333333333, 0.3333333333333333, 0.6666666666666666, 0.6666666666666666, 0.6666666666666666,
                       0.6666666666666666],
            "precision": [1.0, 0.5, 0.6666666666666666, 0.6666666666666666, 0.5, 0.4],
        },
    },
    "subset_map07": 0.5454545454545455,
    "subset_map12": 0.5555555555555556,
}


class TestEvalGolden:
    def _argv(self, tmp_path):
        ann = tmp_path / "ann"
        ann.mkdir()
        for name, text in GOLDEN_ANN.items():
            (ann / name).write_text(text)
        (tmp_path / "dets.txt").write_text(GOLDEN_DETS)
        return ("eval", "--dets", str(tmp_path / "dets.txt"), "--ann-dir", str(ann), "--classes", "ship", "plane",
                "--subset", "plane")

    def test_csv(self, tmp_path, capsys):
        assert run(capsys, "--format", "csv", *self._argv(tmp_path)) == (0, GOLDEN_CSV)

    def test_json(self, tmp_path, capsys):
        assert run(capsys, *self._argv(tmp_path)) == (0, json.dumps(GOLDEN_PAYLOAD, indent=2) + "\n")


# edge cases of the JSON writers: image ids and class names with a quote, a
# backslash, a comma, a bracket, a space (a --classes name only, as tokens
# split on spaces) and non-ASCII text, which json writes as \\uXXXX; a
# 30-digit and a negative class token; -0.0 and exponent-form floats
EDGE_CLASSES = ('q"a', "b\\s", "c,d", "[e", "f g", "h\u00e9\u4e2d")
EDGE_NMS_DETS = ('im"1 q"a 0.9 2 1 4 2 0\nim"1 c,d 0.5 22 1 4 2 -0.0\nh\u00e9\u4e2d h\u00e9\u4e2d 1e-07 2 1 4 2 0\n'
                 "x\\y 123456789012345678901234567890 0.3 1e+16 2 4 2 0\n[z -7 0.25 -0.0 1 4 2 1e-07\n"
                 "[z -7 0.2 -0.0 1 4 2 1e-07\nP,1 b\\s 1.0 3 4 5 2 -90\n")
EDGE_ANN = {'im"1.txt': "0 0 4 0 4 2 0 2 q\"a 0\n20 0 24 0 24 2 20 2 c,d 0\n",
            "h\u00e9\u4e2d.txt": "imagesource:x\n0 0 4 0 4 2 0 2 h\u00e9\u4e2d 0\n0 9 4 9 4 11 0 11 [e 1\n"}
EDGE_EVAL_DETS = ('im"1 q"a 0.9 2 1 4 2 0\nim"1 c,d 0.5 22 1 4 2 -0.0\nh\u00e9\u4e2d h\u00e9\u4e2d 1e-07 2 1 4 2 0\n'
                  'h\u00e9\u4e2d q"a 0.4 2 1 4 2 0\nh\u00e9\u4e2d [e 0.3 2 10 4 2 0\n')


@pytest.fixture
def bench_fixtures(monkeypatch):
    """The seeded input generators of perfbench/fixtures.py."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("fixtures")


class TestJsonFromColumns:
    """cslkit nms and cslkit eval format their JSON once per result from the
    columns: byte for byte what json.dumps(..., indent=2) writes of the dict
    payloads of tests/oracles.py, to stdout and to --output; the nms CSV
    rows are those read back from the dicts."""

    NMS_HEADER = ("image_id", "class_id", "score", "cx", "cy", "h", "w", "theta")

    @staticmethod
    def _outputs(capsys, tmp_path, fmt, argv):
        """The text of one run to stdout, checked equal to that of the same run with --output."""
        code, out = run(capsys, "--format", fmt, *argv)
        assert code == 0
        path = tmp_path / f"out.{fmt}"
        assert main(["--format", fmt, "--output", str(path), *argv]) == 0
        with open(path, newline="") as f:
            assert f.read() == out
        return out

    @staticmethod
    def _spy(monkeypatch):
        """The last result of each library call the two commands make."""
        seen = {}
        for name in ("parse_detections", "batched_rotated_nms", "evaluate_columns"):
            real = getattr(evaluation, name)
            monkeypatch.setattr(evaluation, name, lambda *args, real=real, name=name, **kwargs:
                                seen.__setitem__(name, real(*args, **kwargs)) or seen[name])
        return seen

    def _check_nms(self, capsys, tmp_path, monkeypatch, dets_text, classes, thresh="0.1"):
        dets = tmp_path / "dets.txt"
        dets.write_text(dets_text, encoding="utf-8")
        argv = ("nms", "--dets", str(dets), "--iou-thresh", thresh, "--classes", *classes)
        seen = self._spy(monkeypatch)
        got = self._outputs(capsys, tmp_path, "json", argv)
        payload = dict_nms_payload(*seen["parse_detections"], seen["batched_rotated_nms"])
        assert got == json.dumps(payload, indent=2) + "\n"
        want_csv = io.StringIO()
        csv.writer(want_csv, lineterminator="\n").writerows(
            [self.NMS_HEADER, *((d["image_id"], d["class_id"], d["score"], *d["box"]) for d in payload["kept"])])
        assert self._outputs(capsys, tmp_path, "csv", argv) == want_csv.getvalue()
        return payload

    def _check_eval(self, capsys, tmp_path, monkeypatch, argv, subset=()):
        seen = self._spy(monkeypatch)
        got = self._outputs(capsys, tmp_path, "json", (*argv, *(("--subset", *subset) if subset else ())))
        report = seen["evaluate_columns"]
        assert got == json.dumps(dict_eval_payload(report, subset), indent=2) + "\n"
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)
        return report

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_nms_files(self, capsys, tmp_path, monkeypatch, bench_fixtures, seed):
        case = bench_fixtures.nms_file(np.random.default_rng(2901 + seed), tmp_path / "case")
        for thresh in ("0.1", "0.7"):
            payload = self._check_nms(capsys, tmp_path, monkeypatch, Path(case["dets"]).read_text(),
                                      bench_fixtures.CLASSES, thresh)
            assert len(payload["kept"]) >= len(case["kept"])

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_eval_shards(self, capsys, tmp_path, monkeypatch, bench_fixtures, seed):
        case = bench_fixtures.eval_shard(np.random.default_rng(2911 + seed), tmp_path / "case")
        argv = ("eval", "--dets", case["dets"], "--ann-dir", case["ann_dir"], "--classes", *bench_fixtures.CLASSES)
        for subset in ((), ("ship", "plane")):
            report = self._check_eval(capsys, tmp_path, monkeypatch, argv, subset)
            assert report.ap12 == pytest.approx(case["ap12"], abs=1e-9)

    def test_edge_case_nms(self, capsys, tmp_path, monkeypatch):
        payload = self._check_nms(capsys, tmp_path, monkeypatch, EDGE_NMS_DETS, EDGE_CLASSES, "0.5")
        text = json.dumps(payload, indent=2)
        for piece in ('"im\\"1"', '"x\\\\y"', '"P,1"', '"[z"', '"h\\u00e9\\u4e2d"', "123456789012345678901234567890,",
                      '"class_id": -7', "-0.0", "1e-07", "1e+16"):
            assert piece in text, piece
        assert len(payload["kept"]) == 6  # the two [z detections are one

    def test_empty_kept_list(self, capsys, tmp_path, monkeypatch):
        payload = self._check_nms(capsys, tmp_path, monkeypatch, "", ("ship",))
        assert payload == {"schema_version": 1, "kept": []}

    @pytest.mark.parametrize("subset", [(), ('q"a', "c,d", "f g")])
    def test_edge_case_eval(self, capsys, tmp_path, monkeypatch, subset):
        ann = tmp_path / "ann"
        ann.mkdir()
        for name, text in EDGE_ANN.items():
            (ann / name).write_text(text, encoding="utf-8")
        (tmp_path / "dets.txt").write_text(EDGE_EVAL_DETS, encoding="utf-8")
        argv = ("eval", "--dets", str(tmp_path / "dets.txt"), "--ann-dir", str(ann), "--classes", *EDGE_CLASSES)
        report = self._check_eval(capsys, tmp_path, monkeypatch, argv, subset)
        assert report.pr_curves["f g"] == ([], [])  # a class with an empty curve
        assert report.ap12["h\u00e9\u4e2d"] == 1.0 and report.ap12["[e"] == 0.0

    def test_report_of_numpy_floats(self):
        """A report whose values are numpy floats, as the loop oracle builds them, writes as json.dumps does."""
        dets = (["a", "a", "b"], [0, 1, 0], np.array([0.9, 0.8, 0.7]), np.array([[0, 0, 4, 2, 0.0]] * 3))
        gts = (["a", "b"], [0, 1], [False, False], np.array([[0, 0, 4, 2, 0.0]] * 2))
        report = loop_evaluate(dets, gts, ["x", "y", "z"])
        assert any(isinstance(v, np.float64) for v in report.ap07.values())
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)


class TestClassIds:
    def _files(self, tmp_path, class_tok):
        dets = tmp_path / "dets.txt"
        dets.write_text(f"im1 ship 0.9 2 1 4 2 0\nim1 {class_tok} 0.8 0 0 4 2 0\n")
        ann = tmp_path / "ann"
        ann.mkdir()
        (ann / "im1.txt").write_text("0 0 4 0 4 2 0 2 ship 0\n")
        return str(dets), str(ann)

    @pytest.mark.parametrize("class_tok", ["-1", "2", "9", "99999999999999999999"])
    def test_eval_rejects_out_of_range_id(self, tmp_path, capsys, class_tok):
        dets, ann = self._files(tmp_path, class_tok)
        code = main(["eval", "--dets", dets, "--ann-dir", ann, "--classes", "ship", "plane"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"class id {class_tok} " in captured.err and "'im1'" in captured.err

    def test_eval_accepts_in_range_id(self, tmp_path, capsys):
        dets, ann = self._files(tmp_path, "1")
        payload = run_json(capsys, "eval", "--dets", dets, "--ann-dir", ann, "--classes", "ship", "plane")
        assert payload["ap12"] == {"ship": 1.0, "plane": 0.0}

    # "\u0663" is an Arabic-Indic 3, which int() reads; the last does not fit in int64
    @pytest.mark.parametrize("class_tok", ["-1", "9", "\u0663", "99999999999999999999"])
    def test_nms_keeps_integer_ids(self, tmp_path, capsys, class_tok):
        dets, _ = self._files(tmp_path, class_tok)
        payload = run_json(capsys, "nms", "--dets", dets, "--classes", "ship")
        assert [d["class_id"] for d in payload["kept"]] == sorted([int(class_tok), 0])

    @pytest.mark.parametrize("class_tok", ["--1", "\u00b2", "-\u00b2", "-"])
    def test_digit_like_class_token_names_its_line(self, tmp_path, capsys, class_tok):
        # "--1" and the superscript two pass str.isdigit, but int() rejects them
        dets, _ = self._files(tmp_path, class_tok)
        code = main(["nms", "--dets", dets, "--classes", "ship"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: line 2: unknown class {class_tok!r}\n"


class TestBadParameters:
    """Codec and grid parameters are checked at the boundary: exit 2 with
    the library's message, nothing on stdout."""

    @pytest.mark.parametrize("argv, message", [
        (("window", "--r", "nan"), "radius must be non-negative"),
        (("window", "--kind", "triangle", "--r", "nan"), "radius must be non-negative"),
        (("encode", "--theta", "3", "--omega", "nan"), "omega must be positive"),
        (("quant-error", "--omega", "nan", "--samples", "10"), "omega must be positive"),
        (("quant-error", "--samples", "0"), "samples must be at least 1, got 0"),
        (("quant-error", "--samples", "-5"), "samples must be at least 1, got -5"),
        (("targets", "--image-size", "64", "--strides", "0"), "stride 0 is not positive"),
        (("targets", "--image-size", "64", "--strides", "8", "-16"), "stride -16 is not positive"),
        (("targets", "--image-size", "0"), "image size 0 is not positive"),
        (("targets", "--image-size", "-16", "--strides", "8"), "image size -16 is not positive"),
        (("targets", "--image-size", "64", "--base-scale", "nan"), "base scale nan is not positive"),
        (("targets", "--image-size", "64", "--base-scale", "0"), "base scale 0.0 is not positive"),
    ])
    def test_data_error(self, capsys, argv, message):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["iou", "--a", "0 0 9 1 0", "--b", "0 0 9 1 0", "--bogus"]) == 1
