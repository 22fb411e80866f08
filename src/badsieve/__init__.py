"""Exact construction and verification of badly approximable shift vectors
for the weighted two-variable linear form with exponents (2/3, 1/3)."""

from .bestapprox import (
    BestApproxSequence,
    BestApproxVector,
    audit_growth,
    audit_minkowski,
    enumerate_best_approx,
    export_sequence_lines,
    sequence_fingerprint,
)
from .catalog import CatalogEntry, catalog_names, get_entry
from .errors import (
    BadSieveError,
    ConfigError,
    DegenerateForm,
    IncompleteSequence,
    InvariantViolation,
    NoBaseFound,
    NoSurvivor,
    PrecisionExhausted,
)
from .journal import (
    certificate_json,
    journal_text,
    parse_certificate,
    parse_journal,
)
from .rationals import (
    ThetaForm,
    dist_to_nearest_int,
    form_value,
    parse_rational,
    format_rational,
    theta_fingerprint,
    validate_precision,
    weighted_height_sq,
)
from .sieve import (
    Certificate,
    Rectangle,
    RunJournal,
    SieveConfig,
    dangerous_children,
    gap_condition,
    rect_clear,
    run_sieve,
    select_base,
    sieve_step,
)
from .verify import (
    ScoreReport,
    bad_alpha_beta_score,
    bad_theta_score,
    brute_best_approx,
    grid_dangerous_children,
    linear_form_score,
)

__version__ = "0.1.0"

# every function and class imported above, and no module
__all__ = sorted(
    name for name, value in globals().items()
    if getattr(value, "__module__", "").startswith(f"{__name__}.")
)
