"""flowseg: scene flow, motion segmentation, and odometry for point clouds.

Estimates per-point 3D flow between consecutive LiDAR-like frames, segments
the scene into a static background plus rigid dynamic objects by iteratively
co-refining flow and segmentation, and derives ego odometry from the static
set.  A built-in synthetic scene generator with exact ground truth backs the
test suite end to end.
"""

__version__ = "0.1.0"

from .errors import (DegenerateInput, EmptyCloud, FlowsegError, FormatError,
                     InvalidSpec, LengthMismatch, TimestampMismatch)
from .geometry import (Match, RigidTransform, SpatialIndex, chamfer_distance,
                       weighted_kabsch)
from .flow import (ClusterFit, FlowField, InitFlow, PointCloud,
                   fit_transforms, init_flow, refine_flow)
from .segment import (Clustering, ClusterStats, PairList, SegmentationMask,
                      StaticSet, classify, cluster, cluster_stats, pair_list)
from .losses import (ChamferTerm, LossBreakdown, chamfer_loss,
                     flow_consistency_loss, motion_loss, total_loss)
from .pipeline import (ConvergenceReport, IterationConfig, IterationRecord,
                       SemanticSceneFlow, flow_delta, initial_mask,
                       mask_delta, run)
from .odometry import (ErrorStats, Pose, Trajectory, TrajectoryErrorReport,
                       accumulate, ego_motion, read_trajectory, rpe,
                       write_trajectory)
from .metrics import FlowMetrics, SegMetrics, flow_metrics, seg_metrics
from .datagen import (FrameRecord, SceneSpec, generate, random_scene_spec,
                      read_frame, read_sequence, write_frame, write_sequence)
