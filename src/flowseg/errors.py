"""Exception types shared across the toolkit, one per kind of failure."""


class FlowsegError(Exception):
    """Base class for all flowseg-specific errors."""


class DegenerateInput(FlowsegError):
    """Rigid fit is impossible: too few points, zero total weight, or collinear geometry."""


class EmptyCloud(FlowsegError):
    """An operation or a spatial index received a point set with no points."""


class LengthMismatch(FlowsegError):
    """Two index-aligned inputs, or a per-cluster tuple and its mask, differ in length."""


class TimestampMismatch(FlowsegError):
    """Two trajectories that must share timestamps do not."""


class InvalidSpec(FlowsegError):
    """A scene specification violates its invariants."""


class FormatError(FlowsegError):
    """An on-disk file does not conform to its declared format."""
