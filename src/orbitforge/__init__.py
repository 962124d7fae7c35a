"""orbitforge: finite group actions on finite vector spaces.

Table-driven arithmetic in GF(q^n), the semilinear group and its norm-one
subgroups, an algebraic criterion for regular orbits with brute-force
oracles, a three-backend orbit engine, builders for the classic
counterexample constructions, and a seeded search harness.
"""

__version__ = "0.1.0"

from .field import FieldContext, ZERO, make_field, norm_map
from .semilinear import (
    CoveringWitness,
    NormOneSubgroup,
    RegularOrbitDecision,
    Standardization,
    compose,
    covering_prime_witness,
    norm_kernel_preimage,
    norm_one_subgroup,
    norm_subgroup_prime_analysis,
    regular_orbit_criterion,
    standardize_subgroup,
    subgroup_closure,
)
from .action import (
    ActionInstance,
    MatrixAction,
    OrbitReport,
    SemilinearAction,
    WreathAction,
    closure,
    enumerate_orbits,
    is_irreducible,
    matrix_realization,
    orbit_implication_report,
)
from .constructions import (
    SignAssignment,
    WreathSpec,
    build_example1,
    build_example2,
    build_wreath,
    orbit_sign_assignment,
    sign_pairing_witness,
    trivial_stabilizer_partition,
    wolf_family,
)
from .permutation import PermGroup, cyclic_group, cyclic_wreath, is_transitive, power_set_regular_orbit
from .search import SearchConfig, iter_search, run_search
