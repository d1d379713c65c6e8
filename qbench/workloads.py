"""The four workloads: seeded job mixes, each job with its own check.

A workload is built once per set-up from the imported ``qcorr`` package and
the seed.  ``round(r)`` returns the jobs of round r: the same mix of kinds
every round, with fresh instances drawn from ``default_rng([seed, 1, r])``,
so no two rounds repeat an input and a run measures whole rounds of a fixed
mix.  ``warmup()`` returns one job of each kind from a separate stream.

Every call into the package is looked up through the module attribute at
call time (``q.correspondence.search_counterparts``), so the traced run can
wrap it there.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref


@dataclass
class Job:
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``check`` returns None when the output is right and a message otherwise.
    ``counts`` gives per-layer counters read off the output in traced rounds.
    """

    kind: str
    key: tuple
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    counts: Callable[[Any], dict] | None = None


def _rng(seed: int, r: int | None) -> np.random.Generator:
    return np.random.default_rng([seed, 0] if r is None else [seed, 1, r])


class _Mix:
    """A fixed mix of job kinds; subclasses make one job of a kind."""

    MIX: tuple[tuple[str, int], ...] = ()

    def __init__(self, q, seed: int, workdir: Path):
        self.q = q
        self.seed = seed

    def round(self, r: int) -> list[Job]:
        rng = _rng(self.seed, r)
        jobs = [self._make(kind, rng) for kind, count in self.MIX for _ in range(count)]
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def warmup(self) -> list[Job]:
        rng = _rng(self.seed, None)
        return [self._make(kind, rng) for kind, _ in self.MIX]

    def _make(self, kind: str, rng) -> Job:
        raise NotImplementedError


def _diff(got, want) -> str | None:
    return None if got == want else f"got {got!r}, expected {want!r}"


class Grid(_Mix):
    """``search_counterparts`` over every chi/eta word, or over seeded random
    product bases, on one oracle per job."""

    # Costs on a 2-core x86 sandbox: bv6 ~0.8 s (34 to 48 of 64 words
    # admitted), fn6 ~0.11 s and fn5 ~0.05 s (about 7 admitted), phase5
    # ~0.2 s (all admitted), sample6 ~0.015 s (rejected at an early column).
    # fn6 sets p50 and phase5, whose cost does not depend on k, sets p90.
    MIX = (("bv6", 1), ("bv5", 4), ("fn6", 10), ("fn5", 6), ("phase5", 4), ("sample6", 4))
    SAMPLE_COUNT = 16

    def _make(self, kind: str, rng) -> Job:
        q = self.q
        m = int(kind[-1])
        if kind.startswith("fn"):
            n = m - 1
            truth = tuple(int(b) for b in rng.integers(0, 2, 1 << n))
            key = (kind, truth)
            u = ref.standard_matrix(truth)

            def build():
                return q.oracleforge.standard_oracle(q.oracleforge.BooleanFunction(n, truth))
        else:
            n = m if kind.startswith("phase") else m - 1
            k_int = int(rng.integers(0, 1 << n))
            k0 = int(rng.integers(0, 2))
            key = (kind, k0, k_int)
            inst_args = (n, k0, ref.bits_of(k_int, n))
            if kind.startswith("phase"):
                u = ref.phase_matrix(n, k_int)

                def build():
                    return q.oracleforge.phase_oracle(q.oracleforge.BVInstance(*inst_args))
            else:
                u = ref.standard_matrix(ref.bv_truth(n, k0, k_int))

                def build():
                    inst = q.oracleforge.BVInstance(*inst_args)
                    return q.oracleforge.standard_oracle(q.oracleforge.bv_function(inst))

        if kind.startswith("sample"):
            sample_seed = int(rng.integers(0, 2**31))
            key += (sample_seed,)
            want = ref.admitted(u, ref.random_assignments(m, self.SAMPLE_COUNT, sample_seed))

            def space():
                return q.correspondence.RandomSample(self.SAMPLE_COUNT, sample_seed)
        else:
            want = ref.admitted(u, ref.grid_assignments(m))

            def space():
                return q.correspondence.PauliGrid()

        def run():
            return q.correspondence.search_counterparts(build(), space())

        def check(found):
            return _diff([(name, tuple(gp.perm)) for name, _, gp in found], want)

        return Job(kind, key, run, check)


def _truth_of(instance) -> tuple[int, ...]:
    if hasattr(instance, "truth"):
        return tuple(instance.truth)
    return ref.bv_truth(instance.n, instance.k0, ref.int_of(instance.k))


class Minimax(_Mix):
    """``deterministic_query_complexity`` alone, on families the benchmark
    builds itself, with hypotheses reordered and queries relabelled."""

    # bv4.O_S is ~0.12 s and sets both p50 and p90; the rest are 0.1 to 6 ms.
    MIX = (
        ("bv4.O_S", 14), ("bv3.O_S", 2), ("parity2.O_S", 1), ("parity2.O_A", 1),
        ("bv4.O_B", 1), ("bv4.O_Btilde", 1), ("extracted", 2),
    )

    def __init__(self, q, seed: int, workdir: Path):
        super().__init__(q, seed, workdir)
        ql = q.querylab
        self.problems = {
            "bv4": ql.bv_problem(4), "bv3": ql.bv_problem(3), "parity2": ql.parity_problem(2),
        }
        # Canonical families for every word whose counterpart exists on every
        # hypothesis, with the count the program gives in canonical order.
        self.extracted = []
        for pname in ("bv3", "parity2"):
            problem = self.problems[pname]
            m = problem.n + 1
            units = [ref.standard_matrix(_truth_of(h.instance)) for h in problem.hypotheses]
            for word, b in ref.grid_assignments(m):
                cps = [ref.counterpart(u, b) for u in units]
                if any(cp is None for cp in cps):
                    continue
                maps = [(perm, tuple(complex(p) for p in phases)) for perm, phases in cps]
                family = self._family(word, m, maps)
                want = ql.deterministic_query_complexity(problem, family)
                self.extracted.append((pname, word, maps, want))

    def _family(self, name, m, maps, order=None, mask=0):
        mc, ql = self.q.matrixcore, self.q.querylab
        order = range(len(maps)) if order is None else order
        gps = []
        for i in order:
            perm, phases = maps[i]
            gps.append(mc.GeneralizedPermutation(
                m, tuple(perm[x ^ mask] for x in range(1 << m)), phases))
        return ql.ClassicalOracleFamily(name, m, tuple(gps))

    def _named_maps(self, pname, oracle):
        problem = self.problems[pname]
        n = problem.n
        ones = (1 + 0j,) * (1 << (n + 1))
        maps = []
        for h in problem.hypotheses:
            inst = h.instance
            if oracle == "O_S":
                maps.append((ref.perm_os(_truth_of(inst)), ones))
            elif oracle == "O_A":
                maps.append((ref.perm_oa(_truth_of(inst), n), ones))
            elif oracle == "O_B":
                maps.append((ref.perm_ob(ref.int_of(inst.k), n), ones))
            else:
                maps.append((ref.perm_obtilde(ref.int_of(inst.k), n), ones[: 1 << n]))
        m = n if oracle == "O_Btilde" else n + 1
        return m, maps, ref.paper_counts(pname.rstrip("0123456789"), n)[oracle]

    def _make(self, kind: str, rng) -> Job:
        q = self.q
        if kind == "extracted":
            pname, oracle, maps, want = self.extracted[int(rng.integers(0, len(self.extracted)))]
            m = self.problems[pname].n + 1
        else:
            pname, oracle = kind.split(".")
            m, maps, want = self._named_maps(pname, oracle)
        problem = self.problems[pname]
        order = [int(i) for i in rng.permutation(len(problem.hypotheses))]
        mask = int(rng.integers(0, 1 << m))
        shuffled = q.querylab.ProblemSpec(
            problem.name, problem.n, tuple(problem.hypotheses[i] for i in order))
        family = self._family(oracle, m, maps, order, mask)

        def run():
            return q.querylab.deterministic_query_complexity(shuffled, family)

        return Job(kind, (kind, pname, oracle, tuple(order), mask), run,
                   lambda count: _diff(count, want))


def check_report(d: dict, problem: str, n: int) -> str | None:
    """The paper's counts in a speed-up report: the named oracles, the
    quantum count, and a genuine speed-up of 1."""
    counts = {e["oracle"]: e["queries"] for e in d["entries"]}
    want = ref.paper_counts(problem, n)
    for name in ("O_S", "O_B" if problem == "bv" else "O_A"):
        if counts.get(name) != want[name]:
            return f"{name} count {counts.get(name)!r}, expected {want[name]}"
    quantum = ref.quantum_count(problem, n)
    if d["quantum_queries"] != quantum:
        return f"quantum count {d['quantum_queries']!r}, expected {quantum}"
    if d["naive_speedup"] != want["O_S"] / quantum or d["genuine_speedup"] != 1.0:
        return f"speed-ups {d['naive_speedup']!r}, {d['genuine_speedup']!r}"
    return None


class Audit(_Mix):
    """``speedup_report`` with the hypothesis order shuffled."""

    # ~0.55 s for bv3, ~0.06 s for bv2, ~0.09 s for parity2, ~0.01 s for
    # parity1 (raw, quiet host); bv2 sets p50 and bv3 sets p90.
    MIX = (("parity1", 5), ("bv2", 10), ("parity2", 3), ("bv3", 4))

    def __init__(self, q, seed: int, workdir: Path):
        super().__init__(q, seed, workdir)
        ql = q.querylab
        self.problems = {}
        self.canonical = {}
        for kind, _ in self.MIX:
            name, n = kind.rstrip("0123456789"), int(kind[-1])
            problem = ql.bv_problem(n) if name == "bv" else ql.parity_problem(n)
            self.problems[kind] = problem
            self.canonical[kind] = ql.speedup_report(problem).as_dict()

    def _make(self, kind: str, rng) -> Job:
        q = self.q
        problem = self.problems[kind]
        order = [int(i) for i in rng.permutation(len(problem.hypotheses))]
        shuffled = q.querylab.ProblemSpec(
            problem.name, problem.n, tuple(problem.hypotheses[i] for i in order))
        canonical = self.canonical[kind]

        def run():
            return q.querylab.speedup_report(shuffled)

        def check(report):
            d = report.as_dict()
            return check_report(d, problem.name, problem.n) or _diff(d, canonical)

        return Job(kind, (kind, tuple(order)), run, check)


def invoke_cli(q, argv: list[str]):
    """``qcorr.cli.main(argv)`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = q.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Coset representatives as images of 0..3, and the class each one's dressed
# versions must get, from the paper's two-qubit table, in the CLI's order.
_COSETS = {
    "I": ((0, 1, 2, 3), ["I"]),
    "SWAP": ((0, 2, 1, 3), ["SWAP"]),
    "CNOT12": ((0, 1, 3, 2), ["I", "CNOT12", "CNOT21"]),
    "CNOT21": ((0, 3, 2, 1), ["I", "CNOT12", "CNOT21"]),
    "SWAT12": ((0, 2, 3, 1), ["SWAP", "SWAT12", "SWAT21"]),
    "SWAT21": ((0, 3, 1, 2), ["SWAP", "SWAT12", "SWAT21"]),
}
_COMPLEXITY = (
    ("bv", 2, "OS", 3), ("bv", 3, "OS", 4), ("bv", 3, "OB", 1), ("bv", 3, "OBT", 1),
    ("parity", 1, "OS", 2), ("parity", 2, "OS", 4), ("parity", 2, "OA", 2),
    ("bv", 3, "extracted:HHHH", 1), ("parity", 2, "extracted:CHH", 2),
)
_SPEEDUP = (("bv", 2), ("parity", 2))


def _matrix_json(mat: np.ndarray) -> dict:
    return {"dim": int(mat.shape[0]),
            "entries": [[float(v.real), float(v.imag)] for v in mat.reshape(-1)]}


class Cli(_Mix):
    """``qcorr.cli.main`` in process on JSON files written for each round."""

    # classify ~1.6 to 1.9 ms, malformed ~1.7 ms, counterparts ~8 ms, speedup
    # ~0.06 to 0.09 s, simulate bv16 ~0.1 s, simulate parity10 ~0.26 s.
    # classify sets p50 and simulate bv16 sets p90.
    MIX = (
        ("classify.coset", 8), ("classify.haar", 8), ("counterparts", 4),
        ("simulate.bv16", 4), ("simulate.bv", 2), ("simulate.parity10", 1),
        ("simulate.parity", 1), ("complexity", 2), ("speedup", 1), ("malformed", 4),
    )
    MALFORMED = ("bad_json", "not_4x4", "non_unitary", "bad_k", "bv17", "parity13",
                 "parity_n3", "bv_n7", "grid14", "missing_flag", "unknown_oracle")

    def __init__(self, q, seed: int, workdir: Path):
        super().__init__(q, seed, workdir)
        self.workdir = workdir
        self.rdir = workdir
        self.files = 0

    def _enter(self, name: str):
        """Write this round's files to a fresh directory, dropping the last."""
        shutil.rmtree(self.rdir, ignore_errors=True)
        self.rdir = self.workdir / name
        self.rdir.mkdir(parents=True, exist_ok=True)

    def round(self, r: int) -> list[Job]:
        self._enter(f"r{r}")
        return super().round(r)

    def warmup(self) -> list[Job]:
        self._enter("warm")
        return super().warmup()

    def _write(self, obj) -> str:
        self.files += 1
        path = self.rdir / f"in{self.files}.json"
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        return str(path)

    def _make(self, kind: str, rng) -> Job:
        argv, code, want = self._case(kind, rng)
        q = self.q

        def run():
            return invoke_cli(q, argv)

        def check(result):
            got_code, stdout, stderr = result
            if got_code != code:
                return f"exit {got_code!r}, expected {code}: {stderr.strip()[-200:]}"
            if code != 0:
                return None if stdout == "" and stderr else "error exit must print only to stderr"
            try:
                return want(json.loads(stdout))
            except (ValueError, KeyError, TypeError) as exc:
                return f"unreadable output {stdout[:200]!r}: {exc}"

        def counts(result):
            return {"cli.main.stdout_bytes": len(result[1].encode()),
                    "cli.main.nonzero_exit": int(result[0] != 0)}

        return Job(kind, (kind, tuple(a if "/" not in a else Path(a).read_text() for a in argv)),
                   run, check, counts)

    def _case(self, kind, rng):
        """(argv, expected exit code, check of the parsed stdout)."""
        if kind.startswith("classify"):
            if kind == "classify.coset":
                image, want_class = list(_COSETS.values())[int(rng.integers(0, 6))]
                core = np.zeros((4, 4), dtype=complex)
                core[list(image), range(4)] = 1.0
                left = np.kron(ref.haar(2, rng), ref.haar(2, rng))
                right = np.kron(ref.haar(2, rng), ref.haar(2, rng))
                mat = left @ core @ right
            else:
                mat, want_class = ref.haar(4, rng), []
            path = self._write(_matrix_json(mat))
            return (["classify", "--matrix", path], 0,
                    lambda d: _diff((d["cc_class"], d["warnings"]), (want_class, [])))
        if kind == "counterparts":
            n = int(rng.integers(4, 6))
            k_int, k0 = int(rng.integers(0, 1 << n)), int(rng.integers(0, 2))
            word = "".join("CH"[int(b)] for b in rng.integers(0, 2, n + 1))
            path = self._write({"n": n, "k0": k0, "k": list(ref.bits_of(k_int, n))})
            u = ref.standard_matrix(ref.bv_truth(n, k0, k_int))
            cp = ref.counterpart(u, ref.word_basis(word))
            want = [] if cp is None else [
                (word, cp[0], bool(np.any(np.abs(cp[1] - 1.0) > ref.REF_TOL)))]

            def check(d):
                got = [(e["bases"], ref.perm_from_cycles(e["perm"], 1 << (n + 1)),
                        e["phases_present"]) for e in d]
                return _diff(got, want)

            return (["counterparts", "--oracle", "standard", "--bv", path, "--bases", word],
                    0, check)
        if kind.startswith("simulate.bv"):
            n = 16 if kind == "simulate.bv16" else int(rng.integers(6, 13))
            k = "".join(str(int(b)) for b in rng.integers(0, 2, n))
            k0 = str(int(rng.integers(0, 2)))
            return (["simulate", "--algorithm", "bv", "--k", k, "--k0", k0], 0,
                    lambda d: _diff(d, {"k": k, "queries": 1}))
        if kind.startswith("simulate.parity"):
            n = 10 if kind == "simulate.parity10" else int(rng.integers(3, 7))
            truth = [int(b) for b in rng.integers(0, 2, 1 << n)]
            want = {"parity": sum(truth) & 1, "queries": 1 << (n - 1)}
            if kind == "simulate.parity10":
                args = ["--function", self._write({"n": n, "truth": truth})]
            else:
                args = ["--truth", "".join(map(str, truth))]
            return (["simulate", "--algorithm", "parity", *args], 0,
                    lambda d: _diff(d, want))
        if kind == "complexity":
            problem, n, oracle, count = _COMPLEXITY[int(rng.integers(0, len(_COMPLEXITY)))]
            return (["complexity", "--problem", problem, "--n", str(n), "--oracle", oracle],
                    0, lambda d: _diff(d, {"queries": count}))
        if kind == "speedup":
            problem, n = _SPEEDUP[int(rng.integers(0, len(_SPEEDUP)))]
            return (["speedup", "--problem", problem, "--n", str(n)], 0,
                    lambda d: check_report(d, problem, n))
        return self._malformed(self.MALFORMED[int(rng.integers(0, len(self.MALFORMED)))], rng)

    def _malformed(self, case, rng):
        """Inputs the CLI must refuse: exit 2 malformed, 3 non-unitary, 4 over a limit."""
        bits = lambda count: "".join(str(int(b)) for b in rng.integers(0, 2, count))  # noqa: E731
        if case == "bad_json":
            return ["classify", "--matrix", self._write('{"dim": 4, "entries": [')], 2, None
        if case == "not_4x4":
            return ["classify", "--matrix", self._write(_matrix_json(ref.haar(2, rng)))], 2, None
        if case == "non_unitary":
            mat = ref.haar(4, rng) * 1.5
            return ["classify", "--matrix", self._write(_matrix_json(mat))], 3, None
        if case == "bad_k":
            return ["simulate", "--algorithm", "bv", "--k", bits(5) + "2"], 2, None
        if case == "bv17":
            return ["simulate", "--algorithm", "bv", "--k", bits(17)], 4, None
        if case == "parity13":
            return ["simulate", "--algorithm", "parity", "--truth", bits(1 << 13)], 4, None
        if case == "parity_n3":
            return ["complexity", "--problem", "parity", "--n", "3", "--oracle", "OS"], 4, None
        if case == "bv_n7":
            return ["complexity", "--problem", "bv", "--n", "7", "--oracle", "OS"], 4, None
        if case == "grid14":
            path = self._write({"n": 13, "k0": 0, "k": [int(b) for b in bits(13)]})
            return ["counterparts", "--oracle", "standard", "--bv", path, "--bases", "GRID"], 4, None
        if case == "missing_flag":
            return ["classify"], 2, None
        return ["complexity", "--problem", "bv", "--n", "2", "--oracle", "OQ"], 2, None


WORKLOADS = {"grid": Grid, "minimax": Minimax, "audit": Audit, "cli": Cli}
