"""Forward and inverse source solvers for the 1-D Helmholtz equation in
a two-layered medium, with the identity suite and stability experiments
that back them."""

from .model import (Medium, FrequencyGrid, SourceSpec, SourcePair, HalfSource,
                    wavenumbers, eval_source, split_source, sobolev_norm,
                    discrete_sobolev_norm, class_membership, l2_norm_sq)
from .greens import (GreenCoeffs, InterfaceResiduals, green_eval, green_dx,
                     green_coeffs_closed, green_coeffs_via_linear_system,
                     eval_from_coeffs, interface_residuals)
from .forward import (BoundaryData, TraceReport, forward_field,
                      forward_field_dx, boundary_sweep, fd_oracle,
                      interface_traces, interface_traces_many, check_radiation,
                      check_radiation_many, write_boundary_csv, read_boundary_csv)
from .fourier import (DataEnergy, halfline_ft, halfline_ft_many,
                      plancherel_residual, data_energy, data_energy_from_sweep,
                      epsilon_norm, tail_decay_fit, endpoint_amplitude_bound,
                      endpoint_amplitude_bound_many, data_energy_constant, fit_loglog,
                      fit_loglog_slope)
from .inverse import (ForwardOperator, ReconstructionResult, assemble_operator,
                      add_noise, reconstruct_tikhonov, reconstruct_tsvd,
                      reconstruct_homogeneous, recon_error, morozov_lambda)
from .cli import RunConfig, ExperimentRecord, parse_config, parse_config_text, main

__version__ = "0.1.0"
