"""Helpers shared by the test modules; pytest collects no test from here."""
import numpy as np

from flowseg.flow import PointCloud
from flowseg.segment import SegmentationMask


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng):
    # QR of a Gaussian matrix, sign-fixed to a proper rotation
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1.0
    return q


def cloud_of(points, **kw):
    return PointCloud(np.asarray(points, dtype=np.float64), **kw)


def mask_of(labels):
    return SegmentationMask(np.asarray(labels, dtype=np.int64))
