"""Secret-key rates, finite-blocklength bounds, and security audits for
quantized Gaussian PUF cells with zero-leakage helper data."""

from .stats import DomainError, PufModel, q_function, q_inverse
from .quantizer import (InputQuantizer, OutputQuantizer, helper_data,
                        make_equidistant, make_equiprobable,
                        output_quantizer, reconstruct, sibling_points)
from .channel import (AttackerSpec, ChannelMatrix, analog_extension,
                      averaged_channel, channel_given_w, digital_extension)
from .info import conditional_mi_given_w, entropy, mutual_information
from .bounds import (BoundQuery, BoundResult, ChannelSummary,
                     asymptotic_rate_analog, asymptotic_rate_digital,
                     evaluate, finite_rate_analog_ach, finite_rate_analog_conv,
                     finite_rate_digital_ach, finite_rate_digital_conv,
                     min_cells, summarize_channel)
from .optimize import OptimizeResult, best_equidistant_step, optimize_quantizer
from .sim import SimConfig, SimReport, leakage_test, run_simulation
from .tables import TableSpec, generate_table

__version__ = "0.1.0"

__all__ = [
    "AttackerSpec", "BoundQuery", "BoundResult", "ChannelMatrix",
    "ChannelSummary", "DomainError", "InputQuantizer",
    "OptimizeResult", "OutputQuantizer", "PufModel", "SimConfig", "SimReport",
    "TableSpec", "analog_extension", "asymptotic_rate_analog",
    "asymptotic_rate_digital", "averaged_channel", "best_equidistant_step",
    "channel_given_w", "conditional_mi_given_w", "digital_extension",
    "entropy", "evaluate", "finite_rate_analog_ach", "finite_rate_analog_conv",
    "finite_rate_digital_ach", "finite_rate_digital_conv", "generate_table",
    "helper_data", "leakage_test", "make_equidistant",
    "make_equiprobable", "min_cells", "mutual_information",
    "optimize_quantizer", "output_quantizer", "q_function", "q_inverse",
    "reconstruct", "run_simulation", "sibling_points",
    "summarize_channel",
]
