"""Exact perfect-matching counts for trimmed rotated rectangles and their
six companion graph families on the cross lattice, with machine checks of
every closed form, recurrence and condensation identity at desk scale."""

from .errors import CrossdimerError
from .matchcount import (
    Graph, count_brute, count_fkt, count_matchings, reduce_forced,
    kuo_check, split_check,
)
from .lattice import FULL_GRID, GRID_B, LatticeSpec
from .families import (
    derive_params, build_A, build_F, build_TR, build_TA, build_TB,
    build_aztec_rectangle, build_augmented_aztec, assign_cross_weights,
    weight_point, Spec,
)
from .formulas import (
    g_fn, q_fn, alpha_fn, beta_fn, tau_fn, phi, psi, thm_TR, thm_TA, thm_TB,
    recurrence_check, reflection_check, factor_small, alpha_w, beta_w,
    FactoredCount,
)
from .harness import SuiteConfig, run_suite, conjecture_probe, render_svg

__version__ = "0.1.0"
