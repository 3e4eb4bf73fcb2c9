"""Metapopulation epidemic simulation over origin-destination mobility,
with distance-filtered transit subsampling and trajectory comparison."""

from .engine import EpidemicParams, PrevalenceSeries, run_simulation
from .metrics import CompareConfig, ComparisonReport, compare
from .mobility import (
    ContactMatrix,
    LocationTable,
    build_contact_matrix,
    load_trips,
    network_stats,
)
from .runner import Disease, ScenarioConfig, SweepResult, run_sweep
from .synthcity import CityConfig, generate_synthetic_city
from .theory import invasion_probability
from .transit import DeltaBand, GammaTripModel, calibrate, gamma_pdf, sample_transit_matrix

__version__ = "0.1.0"

__all__ = [
    "CityConfig",
    "CompareConfig",
    "ComparisonReport",
    "ContactMatrix",
    "DeltaBand",
    "Disease",
    "EpidemicParams",
    "GammaTripModel",
    "LocationTable",
    "PrevalenceSeries",
    "ScenarioConfig",
    "SweepResult",
    "build_contact_matrix",
    "calibrate",
    "compare",
    "gamma_pdf",
    "generate_synthetic_city",
    "invasion_probability",
    "load_trips",
    "network_stats",
    "run_simulation",
    "run_sweep",
    "sample_transit_matrix",
]
