"""Symbolic-numeric verification of the rolled-wave electron model.

The library carries the 4x4 anticommuting matrix algebra, the dictionary
between 4-component amplitudes and electromagnetic field vectors, the
toroidal ring-wave model with its quadratures, plane-wave solutions of the
amplitude system, and the Lagrangian and force evaluators, each checked
against independent numeric routes.
"""
from .bridge import (EmField, FieldLayout, LayoutViolation,
                     bispinor_from_fields, dirac_residual_em, electron_layout,
                     energy_density, fields_from_bispinor, fierz_em,
                     fierz_quantum, layout_for_triad, positron_layout,
                     poynting)
from .dirac import (AlphaSet, AxisTriad, NonClosureError, NotUnitaryError,
                    alpha_prime_set, anticommutation_deviation, axis_triads,
                    canonical_alpha_set, canonical_transform, generate_group,
                    s_matrix, transform_mode_match)
from .dynamics import (CurrentPair, SelfField, StressTensor, WavePoint,
                       centripetal_check, lagrangian_linear,
                       lagrangian_nonlinear, lorentz_force_ring,
                       magnetic_confinement_density, matter_motion_residual,
                       maxwell_invariant_forms, photon_photon_comparison,
                       self_action_constant, self_field, stress_tensor,
                       tangential_currents)
from .planewave import (AxisMismatch, PlaneWaveState, build_system,
                        continuity_check, dispersion, field_interpretation,
                        make_states, nullspace, residual, solution_basis)
from .report import CheckReport, Discrepancy, RunConfig, VERSION
from .torus import (DomainError, QuadratureNotConverged, TorusModel,
                    UnitSystem, calibrate_e0, coupling_constant,
                    derive_parameters, integrate_charge, integrate_mass,
                    ring_current, spin_and_moment, zitterbewegung)

__version__ = VERSION

__all__ = [name for name in dir() if not name.startswith("_")]
