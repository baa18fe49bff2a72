"""Dense-engine self-test suite: TAP-style checks of the structural
claims every construction relies on.

Each check is exact; a failure here means the algebra and the dense
engine disagree, which is an internal defect rather than a property of
any particular input.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from . import golden
from .oracle import (
    check_eigenvectors,
    check_knill_laflamme,
    check_overlap_dichotomy,
    check_syndrome_orthogonality,
    syndrome_states,
)
from .stabilizer import random_group
from .verify import check_correctable

# random groups per width for the overlap-dichotomy checks
GROUPS_PER_WIDTH = 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def run_selftest(max_width: int = 4, seed: int = 1):
    """Run the suite and return a list of CheckResult, deterministically.
    Both arguments must be integers (``operator.index``), and a
    ``max_width`` below 1 is refused with ValueError."""
    max_width, seed = index(max_width), index(seed)
    if max_width < 1:
        raise ValueError(f"max width must be at least 1, got {max_width}")
    results: list[CheckResult] = []

    for p in range(2, min(max_width, 4) + 1):
        for k in range(GROUPS_PER_WIDTH):
            g = random_group(p, seed + 97 * p + k)
            report = check_overlap_dichotomy(g)
            results.append(
                CheckResult(
                    f"overlap-dichotomy p={p} sample={k}",
                    report.ok,
                    "; ".join(report.violations[:3]),
                )
            )

    codes = golden.golden_codes()
    errsets = golden.golden_error_sets()
    for name, code in codes.items():
        # width <= 3 cases always run; the width-5 code needs max_width >= 5
        if code.width > max(max_width, 3):
            continue
        errs = errsets[name]
        eig = check_eigenvectors(code, errs)
        results.append(
            CheckResult(
                f"eigenvectors {name}", eig.ok, "; ".join(eig.violations[:3])
            )
        )
        orth = check_syndrome_orthogonality(code, errs)
        results.append(
            CheckResult(
                f"syndrome-orthogonality {name}",
                orth.ok,
                "; ".join(orth.violations[:3]),
            )
        )

    # algebraic verdict and dense engine must agree on the flagship
    # positive and negative cases
    rep3, cat3 = codes["rep3"], codes["cat3"]
    verdict = check_correctable(rep3, errsets["rep3"])
    kl = check_knill_laflamme(rep3, errsets["rep3"])
    results.append(
        CheckResult(
            "correctable+KL rep3", verdict.correctable and kl.passed, ""
        )
    )
    bad = check_correctable(cat3, errsets["cat3"])
    detail = ""
    ok = not bad.correctable and bad.collision is not None
    if ok:
        i1, j1, i2, j2 = bad.collision
        states = {
            (i, j): s for i, j, s in syndrome_states(cat3, errsets["cat3"])
        }
        ok = not states[(i1, j1)].is_orthogonal(states[(i2, j2)])
        if not ok:
            detail = "colliding entries produced orthogonal states"
    else:
        detail = "expected a collision verdict"
    results.append(CheckResult("collision-confirmed cat3", ok, detail))
    return results


def format_tap(results) -> str:
    lines = [f"1..{len(results)}"]
    for n, r in enumerate(results, start=1):
        status = "ok" if r.ok else "not ok"
        line = f"{status} {n} - {r.name}"
        if r.detail and not r.ok:
            line += f" # {r.detail}"
        lines.append(line)
    return "\n".join(lines)
