"""The ``hessavg`` command; ``python -m hessavg`` is its module form.

It sets each unset variable of :data:`hessavg.BLAS_THREAD_VARS` to 1 before
anything loads numpy, so a run uses one BLAS thread unless the caller says
otherwise.
"""

import os
import sys

from . import BLAS_THREAD_VARS


def main() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import cli_dispatch

    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
