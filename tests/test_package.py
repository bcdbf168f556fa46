"""The package's public names: the exports of cslkit stay stable unless a
change bumps them on purpose."""

import types

import cslkit

EXPORTS = {
    "AnchorGridSpec", "AssignmentConfig", "CslCodecConfig", "CslLabel", "DetectionRecord", "DiscontinuityReport",
    "EvalReport", "GroundTruthRecord", "InvalidGeometryError", "LossBatch", "LossWeights", "OrientedBox180",
    "OrientedBox90", "QuadBox", "QuantizationErrorStats", "RegressionTarget", "angle_to_bin", "assign_targets",
    "boundary_probe", "canonicalize180", "canonicalize90", "compute_ap", "convex_intersection",
    "csl_classification_loss", "decode", "decode_regression", "encode", "encode_regression", "evaluate",
    "generate_anchors", "ingest_dota", "multi_task_loss", "order_corners", "quad_to_box180",
    "quantization_error_stats", "rotated_iou", "rotated_iou_matrix", "rotated_nms", "smooth_l1", "to_quad",
    "window_value",
}


def test_public_names():
    # submodules become attributes once imported anywhere, so they are not counted
    public = {n for n, v in vars(cslkit).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == EXPORTS
    assert cslkit.__version__ == "0.1.0"
