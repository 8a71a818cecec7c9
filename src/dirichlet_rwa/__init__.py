"""Randomly weighted averages of Dirichlet vectors.

z = sum_i w_i x_i with Dirichlet summands and an independent Dirichlet weight
vector stays Dirichlet; this package samples the construction with numpy's
Dirichlet sampler, checks the claim with a statistical battery and
exact moment identities, and verifies the associated Stieltjes-transform
differential identities numerically.
"""

__version__ = "0.1.0"

from .distributions import (  # noqa: F401
    DirichletParams,
    RngStream,
    dirichlet_mixed_moment,
    sample_dirichlet_batch,
)
from .rwa import (  # noqa: F401
    WeightedAverageScenario,
    sample_rwa_direct_batch,
    theorem_scenario,
    variant_scenario,
)
from .moments import (  # noqa: F401
    DirMultParams,
    MomentIndex,
    dirmult_normalization_check,
    rwa_moment_closed_form,
    rwa_moment_expansion,
)
