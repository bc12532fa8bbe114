"""Secret-key rates, finite-blocklength bounds, and security audits for
quantized Gaussian PUF cells with zero-leakage helper data."""

from .stats import DomainError, PufModel, q_inverse
from .quantizer import (InputQuantizer, make_equidistant, make_equiprobable,
                        sibling_points)
from .channel import AttackerSpec, ChannelMatrix, averaged_channel
from .info import entropy, mutual_information
from .bounds import (BoundQuery, ChannelSummary, asymptotic_rate,
                     finite_rate_analog_ach, finite_rate_analog_conv,
                     finite_rate_digital_ach, finite_rate_digital_conv,
                     min_cells, summarize_channel)
from .optimize import OptimizeResult, best_equidistant_step, optimize_quantizer
from .sim import SimConfig, SimReport, leakage_test, run_simulation
from .tables import TableSpec, generate_table

__version__ = "0.1.0"

__all__ = [
    "AttackerSpec", "BoundQuery", "ChannelMatrix", "ChannelSummary",
    "DomainError", "InputQuantizer", "OptimizeResult", "PufModel",
    "SimConfig", "SimReport", "TableSpec", "asymptotic_rate",
    "averaged_channel", "best_equidistant_step",
    "entropy", "finite_rate_analog_ach", "finite_rate_analog_conv",
    "finite_rate_digital_ach", "finite_rate_digital_conv", "generate_table",
    "leakage_test", "make_equidistant", "make_equiprobable", "min_cells",
    "mutual_information", "optimize_quantizer", "q_inverse",
    "run_simulation", "sibling_points", "summarize_channel",
]
