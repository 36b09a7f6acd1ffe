"""Peak-sidelobe optimization of MIMO-OFDM data symbols, with sensing and comms evaluation."""

from .constellation import ConstellationSpec, SubcarrierMask
from .optimizer import OptimizationReport, OptimizerConfig, optimize
from .spectrum import LagWeights, SymbolGrid, cyclic_correlations, psl_db

__all__ = [
    "ConstellationSpec",
    "SubcarrierMask",
    "OptimizationReport",
    "OptimizerConfig",
    "optimize",
    "LagWeights",
    "SymbolGrid",
    "cyclic_correlations",
    "psl_db",
]

__version__ = "0.1.0"
