"""Exact computation of the Lah/Stirling/Bell families, the translated
Whitney, Whitney-Lah, and Dowling numbers, and their q-analogues, together
with a registry that machine-checks every identity they satisfy."""

from .arith import (
    DivisionByZero,
    LaurentPoly,
    NonExactDivision,
    NonInvertibleConstantTerm,
    TruncSeries,
    lp_div_exact,
    lp_eval_q1,
    monomial,
    ts_inverse,
    ts_pow,
)
from .classical import (
    ScaleExceeded,
    bell,
    binomial,
    falling_poly,
    genfact_poly,
    lah,
    lah_oracle,
    rising_poly,
    stirling1u,
    stirling2,
)
from .qcalc import InvalidOrder, NegativeArgument, qbinom, qfact, qfalling, qint
from .qwhitney import (
    InvalidRange,
    qbinom_inverse_transform,
    qbinom_transform,
    qdowling,
    qdowling_qi,
    qint_signed,
    qlah_gr,
    qw1,
    qw2,
    qwl,
    qwl_explicit,
)
from .verify import (
    CheckResult,
    Config,
    IdentitySpec,
    InvalidConfig,
    ParamsOutOfDomain,
    Report,
    UnknownIdentity,
    check_identity,
    registry_ids,
    report_to_json,
    run_suite,
)
from .whitney import (
    DuplicateBValues,
    InvalidAlpha,
    MansourSpec,
    NoConvergence,
    dowling,
    dowling_dobinski,
    dowling_qi,
    mansour_u,
    tw1,
    tw2,
    twl,
)

__version__ = "0.1.0"
