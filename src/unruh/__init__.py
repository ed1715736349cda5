"""Correlations across the Rindler horizon for Dirac, scalar and
hardcore-boson fields.

The package reconstructs the Alice/Rob/AntiRob tripartite state of a
maximally entangled pair when one observer uniformly accelerates, and
computes mutual information, negativity and logarithmic negativity for all
three bipartitions, in closed form and through an independent constructive
Fock-space route.
"""

from .errors import (BasisError, ConvergenceError, MissingLapackError,
                     NotAStateError, NotSymmetricError, OracleMismatchError,
                     TruncationError, UnruhError)
from .fock import (Bipartition, DensityMatrix, FieldKind, LabeledBasis,
                   SqueezingParam, StateVector, Subsystem, basis_state,
                   density_from_state, partial_trace, partial_transpose,
                   reduced_density_matrix, tensor_state)
from .linalg import sym_eigenvalues
from .measures import (bipartite_measures, entropy_from_eigenvalues,
                       log_negativity, mutual_information, negativity,
                       von_neumann_entropy)
from .report import CorrelationReport
from .dirac import (dirac_closed_negativity, dirac_closed_pt_spectrum,
                    dirac_closed_rho, dirac_closed_spectrum,
                    dirac_one_particle, dirac_report, dirac_tripartite_state,
                    dirac_vacuum, rapidity_dirac)
from .scalar import (HardcoreConfig, TruncationConfig, hardcore_report,
                     hardcore_rho, hardcore_tripartite_state, rapidity_scalar,
                     rrbar_block, scalar_closed_rho, scalar_entropies,
                     scalar_negativity_AR, scalar_negativity_ARbar,
                     scalar_negativity_RRbar, scalar_one_particle,
                     scalar_report, scalar_tripartite_state, scalar_vacuum)
from .sweep import (CSV_HEADER, ConservationSummary, SweepConfig, SweepResult,
                    check_report, figure_preset, run_sweep)

__version__ = "0.1.0"
