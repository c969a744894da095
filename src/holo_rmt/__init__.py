"""Asymptotic MI statistics for non-centered non-separable MIMO channels."""

from .asymptotics import (AsymptoticStats, BMatrix, analyze_model, build_b,
                          emi_deterministic, oracle_from_blocks, outage_curve,
                          variance_clt)
from .channel import (ChannelModel, VarianceProfile, build_holographic,
                      build_kronecker, build_weichselberger,
                      profile_nonseparable_gaussian,
                      profile_separable_isotropic, separable_profile,
                      synth_los)
from .errors import (AssumptionError, ConfigError, ConvergenceError,
                     HoloRmtError, InvalidRegimeError, NumericalError)
from .geometry import (ArrayGeometry, WavenumberLattice, antenna_gain,
                       effective_zeta, enumerate_lattice, rx_lattice,
                       tx_lattice, zeta_from_snr_db)
from .montecarlo import (MiSampleSet, compute_mi, empirical_outage,
                         ks_statistic, model_digest, normalized_samples,
                         qq_data, qq_slope, run_mc, run_mc_grid, sample_channel,
                         substream)
from .solver import (DeltaSolution, Resolvents, compute_resolvents,
                     delta_upper_bounds, self_consistency_residual,
                     solve_deltas)

__version__ = "0.1.0"
