"""Run configuration shared by the CLI commands."""

import math
from dataclasses import dataclass

from .errors import SchemaError
from .hypcalc import DEFAULT_POLE_TOL


@dataclass
class RunConfig:
    float_precision: int = 64
    orders: tuple = (4, 3, 3)      # (N_iota, N_z, N_h)
    k_max: int = 8
    tol_pole: float = DEFAULT_POLE_TOL
    tol_resonance: float = 1e-8
    tol_conditioning: float = 1e8
    tol_residual: float = 1e-8

    def __post_init__(self):
        # 64 bits select native doubles, more select mpmath: none is narrower
        if self.float_precision < 64:
            raise SchemaError("float_precision must be >= 64 bits, got "
                              f"{self.float_precision}")
        for name in ("tol_pole", "tol_resonance", "tol_conditioning",
                     "tol_residual"):
            # a nan would turn a gate off and an inf would pass anything
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise SchemaError(f"{name} must be positive and finite, "
                                  f"got {v!r}")
        if any(o < 0 for o in self.orders):
            raise SchemaError("orders must be nonnegative")
        # the trace at h-order H reads F through iota^(H+1)
        iota, _z, h = self.orders
        if iota < h + 1:
            raise SchemaError(f"orders IOTA,Z,H need IOTA >= H + 1 = {h + 1}, "
                              f"got IOTA = {iota}")
