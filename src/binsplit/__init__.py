"""Averaging dynamics and the binomial particle-splitting system on weighted
graphs: exact generators, dualities and intertwinings, spectra, event-driven
simulation, and mixing-profile experiments."""

from .graphs import (SiteWeights, WeightedGraph, build_graph, complete_graph,
                     cycle_graph, path_graph, site_weights, torus_graph,
                     uniform_weights)
from .spectral import (Spectrum, UnlabeledSpace, enumerate_configs,
                       generator_single_particle, generator_splitting,
                       generator_splitting_labeled, multinomial_measure,
                       spectral_gap, transient_distribution)
from .averaging import edge_update, l2_drop, transport_norm
from .simulate import (SimOptions, make_rng, simulate_averaging,
                       simulate_averaging_batch, simulate_multicolored,
                       simulate_splitting, simulate_splitting_batch)
from .distances import (nash_fit, tv_profile_exact, wasserstein_estimate,
                        wilson_report)

__version__ = "0.1.0"
