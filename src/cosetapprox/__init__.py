"""Exact arithmetic toolkit for congruentially constrained rational
approximation: multiplicative counting functions, unit-group structure,
Dirichlet characters, equidistribution error bounds, and a deterministic
Monte Carlo approximation experiment."""

from .arith import (
    Factorization,
    brute_r_d,
    brute_u_d,
    euler_phi,
    factor,
    growth_scan,
    omega,
    r_d,
    s_d,
    tau,
    u_d,
)
from .characters import (
    all_characters,
    char_sum,
    evaluate,
    pv_bound,
    quotient_characters,
)
from .equidist import (
    CountEstimate,
    IntervalSystem,
    interval_system,
    overlap_bound_check,
    overlap_measure,
    phi_mu,
    phi_mu_sieve,
    psi_count,
    psi_estimate,
)
from .experiment import (
    AlphaSequence,
    ExperimentConfig,
    HitRecord,
    QSequence,
    abel_condition_check,
    check_conditions,
    prepare,
)
from .residue_group import (
    Coset,
    Subgroup,
    UnitGroup,
    coset,
    dth_power_subgroup,
    full_subgroup,
    index,
    subgroup,
    subgroup_from_generators,
    unit_group,
)

__version__ = "0.1.0"
