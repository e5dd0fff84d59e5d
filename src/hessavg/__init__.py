"""Hessian-averaged subsampled Newton methods with adaptive gradient sampling.

The package is its modules; importing it loads none of them, and no numpy.
The ``hessavg`` command (``python -m hessavg`` in module form) runs with one
BLAS thread unless the caller sets a variable of :data:`BLAS_THREAD_VARS`,
and so do the workers of a parallel sweep.
"""

__version__ = "0.1.0"

# OpenBLAS and OpenMP read these once, when numpy loads. Unset, a process
# starts one BLAS thread per core: parallel sweep workers oversubscribe the
# cores between them, and a run's floating-point results depend on the count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
