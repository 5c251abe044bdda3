"""zpfsim: a stochastic zeropoint-field model of parametric down conversion
with threshold photodetection, verified against analytic gaussian laws and
a CHSH harness."""

__version__ = "0.1.0"

# loads zpfsim.optics, whose rotator the benchmark's span tracer wraps
# (it wraps only loaded modules)
from .optics import rotator_transform
from .detection import DetectorSpec, p_joint, p_single, q_model
from .analysis import (
    chsh_scan,
    classify_regime,
    min_rate_bound,
    tradeoff_report,
)
from .engine import mc_detect
from .scenarios import (
    Scenario,
    chsh_scenario,
    make_matched_detector,
    pdc_scenario,
    vacuum_scenario,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .runner import emit, run
