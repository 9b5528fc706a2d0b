"""Exception types shared across the toolkit."""


class FlowsegError(Exception):
    """Base class for all flowseg-specific errors."""


class DegenerateInput(FlowsegError):
    """Rigid fit is impossible: too few points, zero total weight, or collinear geometry."""


class EmptyIndex(FlowsegError):
    """A spatial index cannot be built over an empty point set."""


class EmptyCloud(FlowsegError):
    """An operation received a point cloud with no points."""


class MaskMismatch(FlowsegError):
    """A mask or flow field is not aligned with its point cloud."""


class TransformCountMismatch(FlowsegError):
    """The number of per-cluster transforms disagrees with the mask's cluster count."""


class LengthMismatch(FlowsegError):
    """Two sequences that must be index-aligned have different lengths."""


class TimestampMismatch(FlowsegError):
    """Two trajectories that must share timestamps do not."""


class DegenerateStaticSet(FlowsegError):
    """The static cluster is too small or degenerate to support an ego-motion fit."""


class InvalidSpec(FlowsegError):
    """A scene specification violates its invariants."""


class FormatError(FlowsegError):
    """An on-disk file does not conform to its declared format."""
