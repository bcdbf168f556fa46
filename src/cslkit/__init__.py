"""Geometry, circular smooth label encoding, losses and evaluation for
rotated-box object detection."""

from .csl_codec import (
    CslCodecConfig,
    CslLabel,
    QuantizationErrorStats,
    angle_to_bin,
    decode,
    encode,
    quantization_error_stats,
    window_value,
)
from .evaluation import DetectionRecord, EvalReport, GroundTruthRecord, compute_ap, evaluate, ingest_dota, rotated_nms
from .losses import (
    DiscontinuityReport,
    LossBatch,
    LossWeights,
    RegressionTarget,
    boundary_probe,
    csl_classification_loss,
    decode_regression,
    encode_regression,
    multi_task_loss,
    smooth_l1,
)
from .rotgeom import (
    InvalidGeometryError,
    OrientedBox90,
    OrientedBox180,
    QuadBox,
    canonicalize90,
    canonicalize180,
    convex_intersection,
    order_corners,
    quad_to_box180,
    rotated_iou,
    rotated_iou_matrix,
    to_quad,
)
from .targets import AnchorGridSpec, AssignmentConfig, assign_targets, generate_anchors

__version__ = "0.1.0"
