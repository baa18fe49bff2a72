"""Kernel dispatch: compiled extension when available, pure Python otherwise.

Only the two batch kernels that pay off end to end have a compiled lane
(``_speedups.c``): the syndrome map and the search loop (README,
"Performance").  ``random_group`` and ``max_dimension`` call the pure
sampler and greedy scan of ``_fallback`` on both lanes; the compiled
search loop keeps its own copy of each, held to them by the tests.
``_fallback`` is the pure lane and the reference.  The compiled lane is
a fast path: it runs a call in C only when the arguments are in its
domain and hands every other call to the ``_fallback`` function of the
same name, so every refusal comes from ``_fallback``.  Set
``COSETQEC_PURE=1`` to force the pure-Python lane regardless of whether
the extension was built.  ``BACKEND`` records the active lane.
``lane_ones``, ``pack_lanes`` and ``unpack_lanes``, which hold u64
values in the 64-bit lanes of one int, are pure helpers of both lanes,
used by the seed and the saved-seed parser in :mod:`cosetqec.codes` and
by the pure sampler.
"""

from __future__ import annotations

import os

if os.environ.get("COSETQEC_PURE") == "1":
    from . import _fallback as _impl

    BACKEND = "python"
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]

        BACKEND = "compiled"
    except ImportError:
        from . import _fallback as _impl  # type: ignore[no-redef]

        BACKEND = "python"

from ._fallback import lane_ones, pack_lanes, unpack_lanes

syndrome_map = _impl.syndrome_map
search_range = _impl.search_range

__all__ = [
    "BACKEND",
    "syndrome_map",
    "search_range",
    "lane_ones",
    "pack_lanes",
    "unpack_lanes",
]
