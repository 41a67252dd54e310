"""Averaging dynamics and the binomial particle-splitting system on weighted
graphs: exact generators, dualities and intertwinings, spectra, event-driven
simulation, and mixing-profile experiments."""

__version__ = "0.1.0"
