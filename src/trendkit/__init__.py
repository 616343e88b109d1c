"""Trend filtering toolkit: L1/L2 filters, penalty calibration, momentum backtests.

It exports the ``__all__`` of every module but ``cli`` and ``tv``."""

from .banded import *
from .calibration import *
from .errors import *
from .filters import *
from .ipm import *
from .series import *
from .strategy import *
from .synth import *

__version__ = "0.1.0"
