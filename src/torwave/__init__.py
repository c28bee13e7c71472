"""torwave: wavelet paraproducts, singular integrals, Hardy/BMO estimators and
commutator decompositions on the periodic torus, with a verification harness."""

from .core import (DyadicCube, SampledFunction, constant, distance_field, inner,
                   sup_norm, zeros)
from .errors import (CancellationError, ConfigurationError, ContractError,
                     DegeneracyError, DomainError, FileFormatError, ResolutionError,
                     ShapeError, TorwaveError, UsageError)
from .wavelets import (CoefficientTree, PsiAtomCheck, WaveletBasis, analyze, build_basis,
                       coarse_projection, default_coarse_level, min_coarse_level,
                       projection_stack, sampled_wavelet, synthesize, validate_psi_atom,
                       wavelet_square_function)
from .paraproducts import (ProductDecomposition, diagonal_coefficient_sum, paraproducts,
                           s_operator, shift_invariance_check)
from .operators import (MultiplierOperator, PdeltaEnvelope, WaveletMatrixOperator,
                        almost_diagonal_envelope_fit, k_class_image, k_class_ratio, p_delta,
                        parse_operator, pdelta_composition_check, wavelet_matrix)
from .sublinear import grand_maximal, lusin_area
from .norms import (AtomCheck, NormReport, hardy_norm, llog_quasinorm, lp_norm, norm_report,
                    oscillation_norm, validate_atom, weak_lp_quasinorm)
from .commutators import (AtomicDecomposition, CommutatorDecomposition, H1bReport,
                          SubbilinearEnvelope, atomic_decompose, bilinear_decomposition,
                          commutator_apply, commutator_parts, h1b_characterizations,
                          make_qb_atom, molecule_norm, subbilinear_envelope)
from .samples import (cube_profile, derive_rng, random_bmo, random_classical_atom,
                      random_cube, random_function, random_h1_tree, random_psi_atom,
                      random_tree, truncated_log, two_sided_atom)
from .hlf import read_hlf, write_hlf
from .harness import (CSV_SCHEMAS, SUITES, ExperimentConfig, ExperimentReport, Gate,
                      emit_report, parse_report, run_suite)

__version__ = "0.1.0"
