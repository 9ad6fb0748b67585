"""Closed-loop collective-spin simulator and analysis toolkit.

Simulates measurement-and-feedback emulation of nonlinear spin models
(a linear-plus-quadratic flow with a symmetry-breaking transition, and a
kicked-top map with chaos and subharmonic response), including controller
latency, finite sample rate, fixed-point arithmetic, and measurement noise.
"""

__version__ = "0.7.0"
