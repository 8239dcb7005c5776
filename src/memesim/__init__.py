"""memesim: agent-based SIS simulation of meme sharing, plus the statistical
tooling around it (sharing-decision models, regression fitting, and
access-log analytics)."""

from .core import (
    ConfigurationError,
    EventKind,
    EventRecord,
    InputError,
    RngStream,
    StreamLabel,
)
from .decision import DEFAULT_SHARING_MODEL, SharingModel
from .engine import SimConfig, SimOutput, WorldState, init_world, run
from .logio import HitSummary, LogParseError, aggregate_hits, parse_line
from .stats import (
    DesignMatrix,
    FitResult,
    logistic_fit,
    mcfadden,
    ols_fit,
    r_squared,
)

__version__ = "0.1.0"
