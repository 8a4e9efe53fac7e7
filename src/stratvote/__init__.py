"""Strategic voting under poll uncertainty.

Decision models mapping (utilities, poll) to a Plurality vote, pivot
probability machinery, behavioral classification of observed votes, a
synthetic vote generator, and a leave-one-out fitting and evaluation
harness with a small neural baseline.

The package exports the two inputs of every decision, :class:`Poll` and
:class:`UtilityFunction`; everything else is imported from its module
(``stratvote.models``, ``stratvote.pivot``, ``stratvote.evaluation``, ...).
"""

from .core import Poll, UtilityFunction

__version__ = "0.1.0"
