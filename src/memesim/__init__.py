"""memesim: agent-based SIS simulation of meme sharing, plus the statistical
tooling around it (sharing-decision models, regression fitting, and
access-log analytics).

The package root holds only `__version__`; import the submodules
(`memesim.cli`, `memesim.engine`, `memesim.stats`, ...) for everything else.
"""

__version__ = "0.1.0"
