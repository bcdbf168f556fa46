import json

import pytest

from cslkit.cli import main
from cslkit.rotgeom import canonicalize180, to_quad


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


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


class TestNmsAndEval(object):
    def test_nms_file(self, tmp_path, capsys):
        dets = tmp_path / "dets.txt"
        dets.write_text("im1 ship 0.9 0 0 4 2 0\nim1 ship 0.8 0 0 4 2 0\nim1 ship 0.7 100 0 4 2 0\n")
        payload = run_json(capsys, "nms", "--dets", str(dets), "--classes", "ship", "--iou-thresh", "0.5")
        assert [d["score"] for d in payload["kept"]] == [0.9, 0.7]

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
        dets.write_text(
            "im2 plane 0.6 5 5 4 2 30\nim1 ship 0.9 0 0 4 2 0\nim1 plane 0.85 0.5 0 4 2 0\n"
            "im2 plane 0.95 5.2 5 4 2 31\nim1 ship 0.8 0.3 0.1 4 2 2\nim1 ship 0.7 100 0 4 2 0\n"
            "im1 plane 0.5 40 40 6 3 -45\nim2 ship 0.4 5 5 2 4 -60\nim1 plane 0.45 41 40 6 3 -44\n"
        )
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

    def test_missing_file_is_data_error(self, capsys):
        code, _ = run(capsys, "nms", "--dets", "/nonexistent.txt")
        assert code == 2


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["iou", "--a", "0 0 9 1 0", "--b", "0 0 9 1 0", "--bogus"]) == 1
