import platform
import sys

import numpy as np


def pytest_report_header(config):
    """The platform facts the pinned digests depend on.

    ``PILOT_CLOSURE_FLOATS_N5000`` and ``SINGLE_BLOCK_DIGESTS`` are stated for
    numpy 2.4.6 on x86-64, the ``_Words`` equality tests follow the installed
    numpy's draws, made from raw words split into halves by explicit
    little-endian views, and the long-double heads need x86-64's 64-bit
    mantissa (``nmant`` 63: the bits after the leading one), so a pin that
    fails elsewhere shows why in the run's first lines.
    """
    return (f"urtlab pins: python {platform.python_version()}, numpy {np.__version__}, "
            f"machine {platform.machine()}, byteorder {sys.byteorder}, "
            f"longdouble nmant {np.finfo(np.longdouble).nmant}")
