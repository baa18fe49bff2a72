"""The four workloads: inputs, one job, and the check of its output.

Every job in a workload has the same size (the same p, K and N, and the
same seed size where that sets the cost), so the per-job median sits in
one tight cluster.  Sizes differ between workloads, never inside one.
Inputs are made in set-up from the run's seed and kept as JSON or error
text; each job parses them into fresh objects, because
``StabilizerGroup`` and ``DenseState`` cache work through
``cached_property`` and a reused object would carry one job's work into
the next.

``cq`` is the ``cosetqec`` module of the current set-up; ``tr`` is a
tracer from ``spans``.  Each check compares the job's output with a
reference that set-up computed, not with something the job produced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


def error_text(p: int) -> str:
    """Identity, then X, Y and Z on each qubit: the single-qubit error
    set as an error file, 3p + 1 lines."""
    lines = ["I" * p]
    for j in range(p):
        for letter in "XYZ":
            lines.append("I" * j + letter + "I" * (p - j - 1))
    return "\n".join(lines) + "\n"


def seed_size(group) -> int:
    """Number of basis strings in the group's seed: 2 ** (GF(2) rank of
    the generators' X parts)."""
    pivots: dict[int, int] = {}
    for g in group.generators:
        w = g.x
        while w:
            hb = w.bit_length() - 1
            if hb not in pivots:
                pivots[hb] = w
                break
            w ^= pivots[hb]
    return 1 << len(pivots)


def groups_with_seed_size(cq, p: int, size: int, rng):
    """Endless stream of random width-p groups whose seed has ``size``
    strings."""
    s = rng.getrandbits(32)
    while True:
        group = cq.random_group(p, s)
        s += 1
        if seed_size(group) == size:
            yield group


def code_json(code) -> str:
    return json.dumps(code.to_dict(), indent=2)


def load_code(cq, text: str):
    return cq.QuantumCode.from_dict(json.loads(text))


class Workload:
    """``tail_pct`` is the percentile reported as ``job_tail_s``; a run
    makes at least ``min_jobs`` timed jobs, which leaves at least ten
    beyond it."""

    name = ""
    tail_pct = 75
    min_jobs = 40

    def setup(self, cq, rng) -> list:
        raise NotImplementedError

    def job(self, cq, inp, tr) -> dict:
        raise NotImplementedError

    def check(self, cq, inp, out: dict) -> bool:
        raise NotImplementedError

    def units(self, inp, out: dict) -> float:
        raise NotImplementedError

    def probe(self, cq, inp, tr) -> None:
        """Traced runs only: extra per-layer calls outside the job span."""


@dataclass(frozen=True)
class ConstructInput:
    group_text: str
    label_text: str
    labels: tuple[int, ...]
    errors_text: str
    correctable: bool


class Construct(Workload):
    """The build -> classify -> verify CLI workflow on p=11 groups whose
    seed has 2^10 strings, K=8 labels and the single-qubit error set."""

    name = "construct"
    P, K, SEED_SIZE, POOL = 11, 8, 1 << 10, 12
    tail_pct, min_jobs = 80, 50

    def setup(self, cq, rng) -> list:
        errors_text = error_text(self.P)
        errors = cq.ErrorSet.from_text(errors_text)
        inputs = []
        for group in groups_with_seed_size(cq, self.P, self.SEED_SIZE, rng):
            labels = (0, *rng.sample(range(1, 1 << self.P), self.K - 1))
            err_labels = [group.syndrome(e) for e in errors]
            inputs.append(
                ConstructInput(
                    group_text=json.dumps(group.to_dict()),
                    label_text=",".join(cq.format_label(l, self.P) for l in labels),
                    labels=labels,
                    errors_text=errors_text,
                    correctable=cq.sumset_distinct(err_labels, labels),
                )
            )
            if len(inputs) == self.POOL:
                return inputs

    def job(self, cq, inp: ConstructInput, tr) -> dict:
        with tr.span("stabilizer.from_dict"):
            group = cq.StabilizerGroup.from_dict(json.loads(inp.group_text))
        with tr.span("pauli.label_parse"):
            labels = [cq.parse_bits(tok, group.width) for tok in inp.label_text.split(",")]
        with tr.span("codes.build_code"):
            code = cq.build_code(group, labels)
        with tr.span("cli.code_json"):
            text = code_json(code)
        # classify, as its own CLI call, reads the code file back
        with tr.span("cli.code_load"):
            code = load_code(cq, text)
        with tr.span("classify.classify") as s:
            cls = cq.classify(code)
            s.count("classify.seed_pairs", len(code.seed.terms) ** 2)
        # and so does verify
        with tr.span("cli.code_load"):
            code = load_code(cq, text)
        with tr.span("pauli.error_parse"):
            errors = cq.ErrorSet.from_text(inp.errors_text)
        with tr.span("verify.check_correctable"):
            verdict = cq.check_correctable(code, errors)
        rows = 0
        if not verdict.pigeonhole:
            with tr.span("verify.build_table") as s:
                table = cq.build_table(code, errors)
                rows = len(table.rows) * len(table.rows[0])
                s.count("verify.table_entries", rows)
        return {
            "code": text,
            "type": cls.type_tag,
            "correctable": verdict.correctable,
            "entries": rows,
        }

    def check(self, cq, inp: ConstructInput, out: dict) -> bool:
        again = code_json(load_code(cq, out["code"]))
        return again == out["code"] and out["correctable"] == inp.correctable

    def units(self, inp, out) -> float:
        return (self.K + 1) * (1 << self.P)

    def probe(self, cq, inp: ConstructInput, tr) -> None:
        # closure, seed and representatives on a fresh group: together
        # they make up build_code
        group = cq.StabilizerGroup.from_dict(json.loads(inp.group_text))
        with tr.span("stabilizer.closure") as s:
            s.count("stabilizer.closure_elems", len(group.closure()))
        with tr.span("codes.seed_state") as s:
            seed = cq.seed_state(group.normalized(0), 0)
            s.count("codes.seed_terms", len(seed.terms))
        for label in inp.labels:
            with tr.span("codes.coset_representative"):
                cq.coset_representative(group, label)


@dataclass(frozen=True)
class DecodeInput:
    code_text: str
    errors_text: str
    queries: tuple[int, ...]
    expected: tuple  # (i, j) per query, or None for an absent label


class Decode(Workload):
    """Load a stored p=12 code, verify it, build its syndrome table and
    diagnose every table label plus as many absent ones.  Every code has
    greedy maximal K=32 for single-qubit errors and a seed of 2^11
    strings."""

    name = "decode"
    P, K, SEED_SIZE, POOL = 12, 32, 1 << 11, 2
    # p97 (at 334 jobs) flipped between the host's fast and slow states
    # from run to run (quartile spread 0.18 over ten quiet-host runs);
    # p90 held within 0.08 there and on a busy host.
    tail_pct, min_jobs = 90, 100

    def setup(self, cq, rng) -> list:
        errors_text = error_text(self.P)
        errors = cq.ErrorSet.from_text(errors_text)
        inputs = []
        for group in groups_with_seed_size(cq, self.P, self.SEED_SIZE, rng):
            greedy = cq.max_dimension(group, errors)
            if greedy.dimension != self.K or greedy.degenerate_pair is not None:
                continue
            code = cq.build_code(group, list(greedy.labels))
            err_labels = [group.syndrome(e) for e in errors]
            where = {
                e ^ c: (i, j)
                for i, e in enumerate(err_labels)
                for j, c in enumerate(greedy.labels)
            }
            absent = rng.sample(
                [lab for lab in range(1 << self.P) if lab not in where], len(where)
            )
            queries = list(where) + absent
            rng.shuffle(queries)
            inputs.append(
                DecodeInput(
                    code_text=code_json(code),
                    errors_text=errors_text,
                    queries=tuple(queries),
                    expected=tuple(where.get(q) for q in queries),
                )
            )
            if len(inputs) == self.POOL:
                return inputs

    def job(self, cq, inp: DecodeInput, tr) -> dict:
        with tr.span("cli.code_load"):
            code = load_code(cq, inp.code_text)
        with tr.span("pauli.error_parse"):
            errors = cq.ErrorSet.from_text(inp.errors_text)
        with tr.span("verify.check_correctable"):
            verdict = cq.check_correctable(code, errors)
        with tr.span("verify.build_table") as s:
            table = cq.build_table(code, errors)
            s.count("verify.table_entries", len(table.rows) * len(table.rows[0]))
        found = []
        with tr.span("verify.diagnose") as s:
            for label in inp.queries:
                try:
                    d = cq.diagnose(code, errors, label, table)
                except cq.UnknownSyndromeError:
                    found.append(None)
                else:
                    found.append((d.error_index, d.codeword_index))
            s.count("verify.diagnoses", len(inp.queries))
            s.count("verify.unknown", found.count(None))
        return {
            "correctable": verdict.correctable,
            "entries": len(table.rows) * len(table.rows[0]),
            "found": found,
        }

    def check(self, cq, inp: DecodeInput, out: dict) -> bool:
        return (
            out["correctable"]
            and out["entries"] == len(inp.queries) // 2
            and tuple(out["found"]) == inp.expected
        )

    def units(self, inp: DecodeInput, out) -> float:
        return out["entries"] + len(inp.queries)


@dataclass(frozen=True)
class SearchInput:
    scan_errors: str
    hit_errors: str
    scan_seed: int
    hit_seed: int


class Search(Workload):
    """One full-budget scan at p=6, K=3 (no such code exists, so the
    whole budget is always scanned), then one findable search at p=8,
    K=4 whose code is re-verified as the CLI does.  Single-qubit errors,
    one worker."""

    name = "search"
    SCAN_P, SCAN_K, BUDGET = 6, 3, 2000
    HIT_P, HIT_K, HIT_BUDGET = 8, 4, 100_000
    POOL = 16
    tail_pct, min_jobs = 85, 67

    def setup(self, cq, rng) -> list:
        return [
            SearchInput(
                scan_errors=error_text(self.SCAN_P),
                hit_errors=error_text(self.HIT_P),
                scan_seed=rng.getrandbits(32),
                hit_seed=rng.getrandbits(32),
            )
            for _ in range(self.POOL)
        ]

    def job(self, cq, inp: SearchInput, tr) -> dict:
        with tr.span("pauli.error_parse"):
            scan_errors = cq.ErrorSet.from_text(inp.scan_errors)
            hit_errors = cq.ErrorSet.from_text(inp.hit_errors)
        with tr.span("search.scan") as s:
            scan = cq.search_code(
                scan_errors, self.SCAN_K, budget=self.BUDGET,
                seed=inp.scan_seed, workers=1,
            )
            s.count("search.scan_candidates", scan.candidates_tried)
        with tr.span("search.hit") as s:
            hit = cq.search_code(
                hit_errors, self.HIT_K, budget=self.HIT_BUDGET,
                seed=inp.hit_seed, workers=1,
            )
            s.count("search.hit_index", hit.hit_index)
            s.count("search.hits", 1)
            s.count("search.hit_candidates", hit.candidates_tried)
        with tr.span("verify.check_correctable"):
            verdict = cq.check_correctable(hit.code, hit_errors)
        with tr.span("cli.code_json"):
            text = code_json(hit.code)
        return {
            "scan_found": scan.found,
            "scan_tried": scan.candidates_tried,
            "hit_tried": hit.candidates_tried,
            "correctable": verdict.correctable,
            "code": text,
        }

    def check(self, cq, inp: SearchInput, out: dict) -> bool:
        if out["scan_found"] or out["scan_tried"] != self.BUDGET:
            return False
        code = load_code(cq, out["code"])
        errors = cq.ErrorSet.from_text(inp.hit_errors)
        err_labels = [code.group.syndrome(e) for e in errors]
        return (
            out["correctable"]
            and code.dimension == self.HIT_K
            and cq.sumset_distinct(err_labels, code.labels)
        )

    def units(self, inp, out: dict) -> float:
        return out["scan_tried"] + out["hit_tried"]


@dataclass(frozen=True)
class RefereeInput:
    group_text: str
    code_text: str
    errors_text: str
    selftest_seed: int


class Referee(Workload):
    """The exact oracle: the overlap dichotomy of a p=6 group (seed of
    2^6 strings), then orthogonality, Knill-Laflamme and eigenvectors on
    a searched p=8, K=3 code (seed of 2^8 strings) with single-qubit
    errors, then the width-5 self-test."""

    name = "referee"
    GROUP_P, P, K, SEED_SIZE, POOL = 6, 8, 3, 1 << 8, 8
    SELFTEST_WIDTH = 5
    tail_pct, min_jobs = 75, 40

    def setup(self, cq, rng) -> list:
        groups = groups_with_seed_size(cq, self.GROUP_P, 1 << self.GROUP_P, rng)
        errors_text = error_text(self.P)
        errors = cq.ErrorSet.from_text(errors_text)
        inputs = []
        while len(inputs) < self.POOL:
            found = cq.search_code(
                errors, self.K, budget=100_000, seed=rng.getrandbits(32), workers=1
            )
            if len(found.code.seed.terms) != self.SEED_SIZE:
                continue
            inputs.append(
                RefereeInput(
                    group_text=json.dumps(next(groups).to_dict()),
                    code_text=code_json(found.code),
                    errors_text=errors_text,
                    selftest_seed=rng.randrange(1, 1000),
                )
            )
        return inputs

    def cases(self) -> dict[str, int]:
        """Closed forms of each sweep's case count."""
        nk = (3 * self.P + 1) * self.K
        return {
            "dichotomy": 4 ** self.GROUP_P,
            "orthogonality": math.comb(nk, 2),
            "knill_laflamme": nk * nk,
            "eigenvectors": self.K << self.P,
        }

    def job(self, cq, inp: RefereeInput, tr) -> dict:
        with tr.span("stabilizer.from_dict"):
            group = cq.StabilizerGroup.from_dict(json.loads(inp.group_text))
        with tr.span("oracle.dichotomy") as s:
            dich = cq.check_overlap_dichotomy(group)
            s.count("oracle.dichotomy_cases", dich.cases)
        with tr.span("cli.code_load"):
            code = load_code(cq, inp.code_text)
        with tr.span("pauli.error_parse"):
            errors = cq.ErrorSet.from_text(inp.errors_text)
        with tr.span("oracle.orthogonality") as s:
            orth = cq.check_syndrome_orthogonality(code, errors)
            s.count("oracle.orthogonality_cases", orth.cases)
        with tr.span("oracle.knill_laflamme") as s:
            kl = cq.check_knill_laflamme(code, errors)
            # the report carries no count; a pass visits every (a, b, i, j)
            s.count("oracle.knill_laflamme_cases", (len(errors) * code.dimension) ** 2)
        with tr.span("oracle.eigenvectors") as s:
            eig = cq.check_eigenvectors(code)
            s.count("oracle.eigenvectors_cases", eig.cases)
        with tr.span("selftest.run_selftest") as s:
            results = cq.selftest.run_selftest(
                max_width=self.SELFTEST_WIDTH, seed=inp.selftest_seed
            )
            s.count("selftest.checks", len(results))
        return {
            "ok": [dich.ok, orth.ok, kl.passed, eig.ok],
            "cases": {
                "dichotomy": dich.cases,
                "orthogonality": orth.cases,
                "eigenvectors": eig.cases,
            },
            "selftest": [(r.name, r.ok) for r in results],
        }

    def check(self, cq, inp, out: dict) -> bool:
        want = self.cases()
        return (
            all(out["ok"])
            and all(out["cases"][k] == want[k] for k in out["cases"])
            and bool(out["selftest"])
            and all(ok for _, ok in out["selftest"])
        )

    def units(self, inp, out) -> float:
        return sum(self.cases().values())


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Construct(), Decode(), Search(), Referee())
}
