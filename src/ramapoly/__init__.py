"""Exact arithmetic for the Ramanujan/Shor polynomial families, the
improper-edge statistics of labeled trees behind them, the constructive
bijections connecting the tree classes, and exhaustive-enumeration
verification of all of it at desk scale."""

from .bijections import (Case, CaseTag, ColoredRootedTree, DomainError, color_merge,
                         color_split, extract_root, flatten_min, fold_stem, insert_root,
                         lift, lower, plane_fwd, plane_inv, rooted_fwd, rooted_inv,
                         unflatten_min, unfold_stem, unrooted_fwd, unrooted_inv)
from .polynomials import (IntPoly, f, psi_bew, psi_ramanujan, q_from_psi, q_shor,
                          q_shor_alt, q_zeng_a, q_zeng_b)
from .series import genfun_mismatch
from .trees import (ClassFilter, CycleError, DisconnectedError, LabelError,
                    PlaneTree, RootedTree, TreeError, build, enumerate_rooted,
                    enumerate_unrooted, plane_from_text, plane_to_text,
                    tree_from_text, tree_to_text)
from .verify import (VerificationReport, check_bijections, check_conjecture,
                     check_genfun, check_identities, check_recurrences,
                     count_class, reproduce_tables)

__version__ = "0.1.0"
